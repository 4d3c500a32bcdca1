"""Peak traced bytes of the micro chain build, the sparse reader, the
block-sum test and the partition reader on compiled voters, against the
arrays they return or read, and of the partition builders per state:
each bound holds with room to spare and fails if a full-size copy of the
input or an unneeded full-size temporary comes back. The absorption
solve's peak resident memory, which includes LAPACK's copies that
tracemalloc does not see, is measured in a child process, as is a long
walk's growth per step."""

import io
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import microlump
from microlump import (ConfigSpace, GeneratorSet, ModelSpec, SpacePermutation, Topology,
                       agent_symmetric_group, attr_symmetric_group, build_micro_chain,
                       builtin_voter, check_lumpable, frequency_partition, moran_partition,
                       orbits, read_partition, read_sparse, serialize_model, write_partition,
                       write_sparse)
from conftest import path_topology
from test_sim import noisy_voter


@pytest.fixture(scope="module", params=[(2, 12), (3, 8)], ids=["delta2-N12", "delta3-N8"])
def voter(request):
    delta, n = request.param
    chain = build_micro_chain(builtin_voter(Topology.complete(n), labels=tuple("abc"[:delta])))
    return chain, frequency_partition(chain.space)


def traced_peak(fn, *args):
    """What `fn(*args)` returns, and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_sparse_reader_peaks_below_60_bytes_per_entry(voter):
    """Four int64 columns are 32 B per entry; the returned chain holds 16."""
    chain, _ = voter
    buf = io.StringIO()
    write_sparse(chain, buf)
    read, peak = traced_peak(read_sparse, buf.getvalue())
    assert read.nnz() == chain.nnz()
    assert peak <= 60 * chain.nnz()


def test_the_block_sum_test_peaks_below_36_bytes_per_entry(voter):
    chain, part = voter
    verdict, peak = traced_peak(check_lumpable, chain, part)
    assert verdict
    assert peak <= 36 * chain.nnz()


def test_the_exhaustive_failing_verdict_peaks_below_105_bytes_per_entry():
    """Path7's three-code voter against its count partition: 8484
    witnesses over 17,061 entries, whose tuples and Fractions, returned,
    take most of the peak beside the grouped sums and their lists."""
    chain = build_micro_chain(builtin_voter(path_topology(7), labels=("red", "green", "blue")))
    part = frequency_partition(chain.space)
    verdict, peak = traced_peak(lambda: check_lumpable(chain, part, exhaustive=True))
    assert len(verdict.violations) == 8484 and chain.nnz() == 17061
    assert peak <= 105 * chain.nnz()


def test_the_partition_reader_peaks_below_two_and_a_half_times_its_members(voter):
    _, part = voter
    buf = io.StringIO()
    write_partition(part, buf)
    read, peak = traced_peak(read_partition, buf.getvalue())
    assert read.labels == part.labels
    assert peak <= 2.5 * read.members.nbytes


@pytest.mark.parametrize("delta, n", [(3, 10), (2, 16), (4, 8)],
                         ids=["delta3-N10", "delta2-N16", "delta4-N8"])
def test_the_code_rows_peak_at_their_own_bytes(delta, n):
    """Each agent's column is written in place, code by code, with no
    full-size index array or quotient beside the returned rows."""
    space = ConfigSpace(n, delta)
    codes, peak = traced_peak(lambda: space.codes_matrix)
    assert codes.shape == (space.size, n)
    assert peak <= 1.25 * codes.nbytes


@pytest.mark.parametrize("delta, n", [(2, 12), (3, 8)], ids=["delta2-N12", "delta3-N8"])
def test_the_micro_chain_build_peaks_below_56_bytes_per_entry(delta, n, monkeypatch):
    """On cached code rows: the slot rows, the rows' targets, their order
    and the two sorted tables beside the returned columns, with no second
    full-size copy of the slot rows."""
    spec = builtin_voter(Topology.complete(n), labels=tuple("abc"[:delta]))
    space = spec.space()
    space.codes_matrix
    monkeypatch.setattr(ModelSpec, "space", lambda self, cap=None: space)
    chain, peak = traced_peak(build_micro_chain, spec)
    assert chain.space is space
    assert peak <= 56 * chain.nnz()


BUILDERS = {
    "orbits-SN": lambda space: orbits(space, agent_symmetric_group(space.n_agents, space.delta)),
    "frequency": frequency_partition,
    "moran": moran_partition,
}


@pytest.mark.parametrize("delta, n", [(3, 10), (4, 8)], ids=["delta3-N10", "delta4-N8"])
@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS)
def test_the_partition_builders_peak_below_55_bytes_per_state(delta, n, build):
    """On cached code rows: the 8-byte members the partition returns, and
    no full-size per-code count table beside them."""
    space = ConfigSpace(n, delta)
    space.codes_matrix
    part, peak = traced_peak(build, space)
    assert part.n_states == space.size
    assert peak <= 55 * space.size


@pytest.mark.parametrize("delta, n, sdelta, bound", [(3, 10, True, 75), (2, 16, False, 135)],
                         ids=["delta3-N10-reflection-Sdelta", "delta2-N16-reflection"])
def test_orbits_over_every_state_peak_below_their_bound_per_state(delta, n, sdelta, bound):
    """The path reflection moves no single pair of agents, so its orbits
    propagate over every state: generator images are one int64 column
    each, with no (states, agents) gather beside them. On N=16 most of
    the peak is the `O<i>` labels. The first call is not traced, so that
    lazy imports do not count."""
    space = ConfigSpace(n, delta)
    space.codes_matrix
    reflection = SpacePermutation(tuple(reversed(range(n))), tuple(range(delta)))
    gens = GeneratorSet("reflection", (reflection,)
                        + (attr_symmetric_group(n, delta).perms if sdelta else ()))
    orbits(space, gens)
    part, peak = traced_peak(orbits, space, gens)
    assert part.n_states == space.size
    assert peak <= bound * space.size


# On Linux a process starts with the peak resident set of the image its
# exec replaced, so a child started from the test process would see no
# ru_maxrss growth below the test process's own peak: children are started
# from a bare interpreter, whose image is smaller than theirs at the start.
LAUNCHER = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"


def child_ints(script, stdin=None, **env):
    """The integers `script` prints in a fresh process."""
    src = str(Path(microlump.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", LAUNCHER, sys.executable, "-c", script],
                          input=stdin, capture_output=True, text=True, timeout=600, check=True,
                          env=dict(os.environ, PYTHONPATH=src, **env))
    return list(map(int, proc.stdout.split()))


ABSORPTION_RSS = """
import resource
from fractions import Fraction
from microlump import Topology, absorption_analysis, build_micro_chain, builtin_voter

def voter(n, path):
    edges = {(i, j): Fraction(1) for i in range(n) for j in range(n)
             if (abs(i - j) == 1 if path else i != j)}
    return build_micro_chain(builtin_voter(Topology(n, edges), labels=("a", "b", "c")))

chain = voter(7, True)
absorption_analysis(voter(3, False))  # lazy imports and BLAS set-up
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
nt = len(absorption_analysis(chain).transient)
print(nt, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


@pytest.fixture(scope="module")
def absorption_rss_growth():
    """The path voter's transient state count, and the bytes by which one
    absorption call grows ru_maxrss (KiB on Linux): a fresh process, one
    BLAS thread, started once for both bounds."""
    nt, grown_kib = child_ints(ABSORPTION_RSS, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    assert nt == 2184
    return nt, grown_kib * 1024


def test_absorption_on_the_path_grows_the_peak_rss_below_one_and_a_half_nt_squared(
        absorption_rss_growth):
    """The 3-code voter on a 7-agent path, 2184 transient states in 378
    components of at most 20: a whole-system solve adds an nt x nt I - Q
    (8 nt^2 bytes) and LAPACK's copy of it."""
    nt, grown = absorption_rss_growth
    assert grown <= 1.5 * 8 * nt ** 2


def test_absorption_on_the_path_grows_the_peak_rss_below_nt_squared_bytes(absorption_rss_growth):
    """Batches of small components make no nt x nt array, not even for
    the residuals: the growth stays below one byte per entry of I - Q
    (2.75 MB measured, against 38.6 MB with one dense residual I - Q)."""
    nt, grown = absorption_rss_growth
    assert grown < nt ** 2


SIMULATE_RSS = """
import resource, sys
from microlump import parse_model, simulate

spec = parse_model(sys.stdin.read())
start = [a % 2 for a in range(spec.n_agents)]
simulate(spec, start, 1000, 1)  # lazy imports and generator set-up
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
run = simulate(spec, start, 200000, 1)
print(len(run.states), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


def test_a_long_walk_grows_the_peak_rss_below_38_bytes_per_step():
    """The benchmark's noisy voter on 20 agents, 200 000 steps: the visited
    list and the states tuple hold 8 B per step each, and only a step that
    moves makes a new index int (29.5 B per step measured). A walk that
    makes an int on every step, moved or not, grows by 47 B per step."""
    n_states, grown_kib = child_ints(SIMULATE_RSS, serialize_model(noisy_voter(20, 9)))
    assert n_states == 200001
    assert grown_kib * 1024 < 38 * 200000
