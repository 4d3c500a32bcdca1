import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from microlump import chain as chainmod
from microlump import cli
from microlump import read_sparse
from microlump.cli import main
from oracle import entry
from conftest import PATH4_FLIP

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
VOTER3 = str(SAMPLES / "voter3.model")
PATH3 = str(SAMPLES / "path3.model")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compile_writes_stochastic_sparse(tmp_path, capsys):
    target = tmp_path / "chain.sparse"
    code, _, err = run(capsys, "compile", VOTER3, "-o", str(target))
    assert code == 0
    chain = read_sparse(target.read_text())
    assert chain.n_states == 8
    for row in chain.rows:
        assert sum(p for _, p in row) == 1


def test_compile_reproducible_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.sparse", tmp_path / "b.sparse"
    assert run(capsys, "compile", VOTER3, "-o", str(a))[0] == 0
    assert run(capsys, "compile", VOTER3, "-o", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_orbits_prints_count_labels(capsys):
    code, out, _ = run(capsys, "orbits", VOTER3, "--gens", "SN")
    assert code == 0
    labels = [line.split(":")[0] for line in out.strip().splitlines()]
    assert labels == ["⟨3,0⟩", "⟨2,1⟩",
                      "⟨1,2⟩", "⟨0,3⟩"]


def test_maps_table(capsys):
    code, out, _ = run(capsys, "maps", VOTER3, "--table")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("z=1 agents=(1,2) option=copy p=1/6 action:")


def test_check_lump_accepts_complete(tmp_path, capsys):
    chain = tmp_path / "chain.sparse"
    part = tmp_path / "freq.part"
    run(capsys, "compile", VOTER3, "-o", str(chain))
    run(capsys, "orbits", VOTER3, "--gens", "SN", "-o", str(part))
    code, out, _ = run(capsys, "check-lump", str(chain), str(part))
    assert code == 0
    assert "lumpable" in out


def test_check_lump_rejects_path_with_witness(tmp_path, capsys):
    chain = tmp_path / "chain.sparse"
    part = tmp_path / "freq.part"
    run(capsys, "compile", PATH3, "-o", str(chain))
    run(capsys, "orbits", VOTER3, "--gens", "SN", "-o", str(part))
    code, out, _ = run(capsys, "check-lump", str(chain), str(part))
    assert code == 3
    assert "1/6" in out and "2/3" in out


def test_check_sym_verdicts(capsys):
    assert run(capsys, "check-sym", VOTER3, "--gens", "SN")[0] == 0
    code, out, _ = run(capsys, "check-sym", PATH3, "--gens", "SN")
    assert code == 3
    assert "witness" in out
    # the flip is a symmetry regardless of the wiring
    assert run(capsys, "check-sym", PATH3, "--gens", "flip")[0] == 0


def test_a_certified_symmetry_never_builds_the_chain(capsys, monkeypatch):
    def build(*args, **kwargs):
        raise AssertionError("chain built")

    monkeypatch.setattr(chainmod, "build_micro_chain", build)
    assert run(capsys, "check-sym", VOTER3, "--gens", "SN") == (0, "symmetric under SN\n", "")


def test_check_sym_falls_back_to_the_matrix(tmp_path, capsys):
    """The path's draws are not SN-invariant, so the certificate fails;
    the chain is SN-symmetric all the same, and the matrix says so."""
    model = tmp_path / "path4-flip.model"
    model.write_text(PATH4_FLIP)
    assert run(capsys, "check-sym", str(model), "--gens", "SN") == (0, "symmetric under SN\n", "")


def test_check_sym_keeps_the_cap(capsys):
    """Also where the certificate alone would decide: 8 states over a cap of 4."""
    code, out, err = run(capsys, "check-sym", VOTER3, "--gens", "SN", "--cap", "4")
    assert code == 6 and out == ""
    assert err.startswith("cap exceeded:")


ENUMERATING = {
    "compile": ["compile", VOTER3],
    "maps-table": ["maps", VOTER3, "--table"],
    "orbits": ["orbits", VOTER3],
    "check-sym": ["check-sym", VOTER3, "--gens", "SN"],
    "simulate": ["simulate", VOTER3, "--start", "1", "--steps", "3", "--seed", "1"],
    "estimate": ["estimate", VOTER3, "--samples", "10", "--seed", "1"],
}


@pytest.mark.parametrize("argv", ENUMERATING.values(), ids=ENUMERATING)
def test_every_verb_that_enumerates_states_keeps_the_cap(capsys, monkeypatch, argv):
    """8 states over a cap of 4, from `--cap` or from the environment; an
    environment cap that is no integer is a validation error."""
    code, out, err = run(capsys, *argv, "--cap", "4")
    assert (code, out) == (6, "") and err.startswith("cap exceeded:")
    monkeypatch.setenv("MICROLUMP_CAP", "4")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (6, "") and err.startswith("cap exceeded:")
    monkeypatch.setenv("MICROLUMP_CAP", "abc")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (5, "")
    assert err == "error: MICROLUMP_CAP must be an integer, got 'abc'\n"


VOTER64 = ("[model]\nattributes = black, white\n[topology]\ncomplete 64\n"
           "[rule]\nbuiltin voter\n[choice]\nfrom-topology uniform\n")
PAST_INT64 = {
    "compile": ["compile"],
    "orbits": ["orbits"],
    "estimate": ["estimate", "--seed", "1"],
    "maps-table": ["maps", "--table"],
}


@pytest.mark.parametrize("argv", PAST_INT64.values(), ids=PAST_INT64)
def test_a_space_past_int64_indices_exceeds_the_cap(tmp_path, capsys, argv):
    """2**64 states under a cap of 2**101: exit 6 and one line, before any
    array over the states is asked for; reading the model and its 4032
    draws takes about 1 MB."""
    model = tmp_path / "voter64.model"
    model.write_text(VOTER64)
    tracemalloc.start()
    try:
        code, out, err = run(capsys, argv[0], str(model), *argv[1:], "--cap", str(2 ** 101))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (6, "")
    assert err == (f"cap exceeded: state space has {2 ** 64} configurations, "
                   f"past the int64 index limit {2 ** 63 - 1}\n")
    assert peak < 1 << 22


def test_check_sym_and_simulate_past_int64_indices_enumerate_nothing(tmp_path, capsys):
    """A passing certificate and a walk from the last of 2**64 states."""
    model = tmp_path / "voter64.model"
    model.write_text(VOTER64)
    cap = str(2 ** 101)
    assert run(capsys, "check-sym", str(model), "--cap", cap) == (0, "symmetric under SN\n", "")
    code, out, _ = run(capsys, "simulate", str(model), "--start", str(2 ** 64 - 1),
                       "--steps", "3", "--seed", "1", "--cap", cap)
    assert code == 0 and out.splitlines()[1] == "(" + ",".join(["white"] * 64) + ")"


def test_estimate_reports_a_bad_environment_cap_before_its_arguments(capsys, monkeypatch):
    monkeypatch.setenv("MICROLUMP_CAP", "abc")
    for argv in (["--samples", "0", "--seed", "1"], ["--samples", "10", "--seed", "-1"]):
        code, _, err = run(capsys, "estimate", VOTER3, *argv)
        assert (code, err) == (5, "error: MICROLUMP_CAP must be an integer, got 'abc'\n")


def test_maps_without_a_table_enumerates_no_states(capsys, monkeypatch):
    assert run(capsys, "maps", VOTER3, "--cap", "4")[0] == 0
    for cap in ("4", "abc"):
        monkeypatch.setenv("MICROLUMP_CAP", cap)
        assert run(capsys, "maps", VOTER3)[0] == 0


@pytest.mark.parametrize("token", ["Sdelta-10", "Sdelta-1foo"])
def test_sdelta_1_takes_nothing_but_a_code(capsys, token):
    """`Sdelta-1` alone or `Sdelta-1:<code>`; any other suffix is no preset."""
    for verb in ("check-sym", "orbits"):
        code, out, err = run(capsys, verb, VOTER3, "--gens", token)
        assert (code, out) == (4, "")
        assert err == f"parse error: unknown generator preset {token!r}\n"


def test_lump_writes_reduced_chain(tmp_path, capsys):
    chain = tmp_path / "chain.sparse"
    part = tmp_path / "freq.part"
    out_file = tmp_path / "macro.sparse"
    run(capsys, "compile", VOTER3, "-o", str(chain))
    run(capsys, "orbits", VOTER3, "--gens", "SN", "-o", str(part))
    code, _, err = run(capsys, "lump", str(chain), str(part), "-o", str(out_file))
    assert code == 0
    macro = read_sparse(out_file.read_text())
    assert macro.n_states == 4
    assert entry(macro, 1, 0) == Fraction(1, 3)
    assert "block 0 ⟨3,0⟩ size=1" in err


def test_analyze_kv(tmp_path, capsys):
    chain = tmp_path / "chain.sparse"
    run(capsys, "compile", VOTER3, "-o", str(chain))
    code, out, _ = run(capsys, "analyze", str(chain), "--format", "kv")
    assert code == 0
    kv = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert kv["absorbing"] == "0,7"
    assert abs(float(kv["absorb[1][0]"]) - 2 / 3) < 1e-9


PATH7 = ("[model]\nattributes = a, b, c\n[topology]\nagents 7\nundirected\n"
         + "".join(f"{i} {i + 1} 1/1\n" for i in range(1, 7))
         + "[rule]\nbuiltin voter\n[choice]\nfrom-topology uniform\n")


def _line_chain(n):
    """The line x -> x, x+1, x+2 (weights 1/4, 1/2, 1/4) on n states, the
    last absorbing: n - 1 transient single-state components, one batch per
    height."""
    rows = []
    for x in range(n - 1):
        w = {}
        for y, p in ((x, 1), (x + 1, 2), (x + 2, 1)):
            w[min(y, n - 1)] = w.get(min(y, n - 1), 0) + p
        rows += [f"{x} {y} {p}/4" for y, p in sorted(w.items())]
    return "\n".join([f"states={n} nnz={len(rows) + 1}", *rows, f"{n - 1} {n - 1} 1/1", ""])


def test_analyze_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, capsys):
    """No strongly connected component of the 3-code voter on a 7-agent
    path, nor of the 2401-state line, is large enough for OpenBLAS to
    thread its solve, so `analyze` prints the same bytes, text and `--format
    kv`, under one and two threads. Each run is a child process, since the
    thread count is read as numpy loads."""
    model, path7, line = (tmp_path / name for name in ("path7.model", "path7.sparse",
                                                        "line.sparse"))
    model.write_text(PATH7, encoding="utf-8")
    assert run(capsys, "compile", str(model), "-o", str(path7))[0] == 0
    line.write_text(_line_chain(2401), encoding="utf-8")
    src = str(Path(cli.__file__).resolve().parents[1])
    both = ("import sys\nfrom microlump.cli import main\n"
            "sys.exit(main(['analyze', sys.argv[1]])"
            " or main(['analyze', sys.argv[1], '--format', 'kv']))")
    for chain, transient in ((path7, 2184), (line, 2400)):
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=src)
            outs.append(subprocess.run([sys.executable, "-c", both, str(chain)],
                                       capture_output=True, env=env, timeout=600,
                                       check=True).stdout)
        assert outs[0] == outs[1]
        assert outs[0].count(b"\nsteps[") == transient


def test_a_lumped_decimal_chain_reads_back_inexact(tmp_path, capsys):
    """Rows that sum to one only within the tolerance: `lump` marks its
    output `exact=0`, so `analyze` and `propagate` read it with the same
    tolerance that let `check-lump` pass."""
    chain, part, macro = tmp_path / "d.sparse", tmp_path / "d.part", tmp_path / "d.macro"
    chain.write_text("states=2 nnz=3\n0 0 0.3333333333\n0 1 0.6666666666\n1 1 1\n")
    part.write_text("x: 0\ny: 1\n")
    assert run(capsys, "check-lump", str(chain), str(part))[0] == 0
    assert run(capsys, "lump", str(chain), str(part), "-o", str(macro))[0] == 0
    assert macro.read_text().splitlines()[0] == "states=2 nnz=3 exact=0"
    code, out, err = run(capsys, "analyze", str(macro))
    assert code == 0 and err == "" and "absorbing states: 1" in out
    code, out, _ = run(capsys, "propagate", str(macro), "--start", "0", "-t", "1")
    assert code == 0
    assert out == "0 3333333333/10000000000\n1 3333333333/5000000000\n"


@pytest.mark.parametrize("listed", ["0 1", "1 0"])
@pytest.mark.parametrize("argv", [["check-lump"], ["check-lump", "--tol=0"], ["lump"]],
                         ids=["check-lump", "check-lump tol 0", "lump"])
def test_a_decimal_chain_without_tol_compares_its_own_blocks(tmp_path, capsys, argv, listed):
    """Decimal rows sum to one within 1e-9 only, so the sum into a state's
    own block is not implied by the others: without `--tol` both verbs
    compare it exactly, as `--tol 0` does, whichever member is listed
    first."""
    chain, part = tmp_path / "d.sparse", tmp_path / "d.part"
    chain.write_text("states=3 nnz=5\n0 0 0.3333333333\n0 2 0.6666666667\n"
                     "1 1 0.3333333334\n1 2 0.6666666667\n2 2 1\n")
    part.write_text(f"A: {listed}\nB: 2\n")
    assert run(capsys, argv[0], str(chain), str(part), *argv[1:]) == (
        3, "not lumpable\nwitness: block A → A: state 0 sums to 3333333333/10000000000 "
           "but state 1 sums to 1666666667/5000000000\n", "")


@pytest.mark.parametrize("listed", ["0 1", "1 0"])
def test_lump_under_tol_reads_each_block_from_its_smallest_member(tmp_path, capsys, listed):
    """Under `--tol` the members' rows differ within the tolerance; the
    reduced row is the smallest member's whichever member is listed first."""
    chain, part, macro = tmp_path / "d.sparse", tmp_path / "d.part", tmp_path / "d.macro"
    chain.write_text("states=3 nnz=5\n0 0 0.4999999999\n0 2 0.5000000001\n"
                     "1 1 0.5\n1 2 0.5\n2 2 1\n")
    part.write_text(f"A: {listed}\nB: 2\n")
    assert run(capsys, "lump", str(chain), str(part), "--tol", "1e-6", "-o", str(macro))[0] == 0
    assert macro.read_text() == ("states=2 nnz=3 exact=0\n0 0 4999999999/10000000000\n"
                                 "0 1 5000000001/10000000000\n1 1 1/1\n")


def _analyze(tmp_path, capsys, text, *argv):
    chain = tmp_path / "a.sparse"
    chain.write_text(text)
    return run(capsys, "analyze", str(chain), *argv)


def test_a_zero_entry_is_no_transition_out_of_an_absorbing_state(tmp_path, capsys):
    text = "states=2 nnz=3\n0 0 1/1\n0 1 0/1\n1 1 1/1\n"
    assert _analyze(tmp_path, capsys, text, "--format", "kv") == (
        0, "absorbing=0,1\ntransient=\nresidual_probs=0.000000e+00\n"
           "residual_steps=0.000000e+00\nvalues=float\n", "")


def test_a_zero_entry_joins_no_recurrent_class(tmp_path, capsys):
    text = "states=2 nnz=3\n0 0 1/1\n0 1 0/1\n1 0 1/1\n"
    code, out, err = _analyze(tmp_path, capsys, text, "--format", "kv")
    assert (code, err) == (0, "")
    assert out.splitlines()[:2] == ["absorbing=0", "transient=1"]
    assert out.splitlines()[-2:] == ["absorb[1][0]=1", "steps[1]=1"]


def test_zero_entries_from_the_absorbing_states_leave_the_report_as_it_is(tmp_path, capsys):
    chain = tmp_path / "voter3.sparse"
    run(capsys, "compile", VOTER3, "-o", str(chain))
    header, *lines = chain.read_text().splitlines()
    lines += ["0 1 0/1", "7 6 0/1"]  # voter3's absorbing states are 0 and 7
    lines.sort(key=lambda line: tuple(map(int, line.split()[:2])))
    zeros = "\n".join([header.replace("nnz=26", "nnz=28"), *lines, ""])
    expected = run(capsys, "analyze", str(chain), "--format", "kv")
    assert expected[0] == 0
    assert _analyze(tmp_path, capsys, zeros, "--format", "kv") == expected


@pytest.mark.parametrize("loop, message", [
    # the loop rounds to 1.0: the transient block is singular in floats
    ("18014398509481983/18014398509481984",
     "error: transient block of state 0 is singular in floating point\n"),
    # one minus the loop is 1e-10 in floats only to seven digits, so the
    # solved probability misses one by about 8e-8: the documented check
    ("9999999999/10000000000", "error: absorption probabilities do not sum to one\n"),
])
def test_a_self_loop_near_one_exits_5(tmp_path, capsys, loop, message):
    num, den = map(int, loop.split("/"))
    text = f"states=2 nnz=3\n0 0 {loop}\n0 1 {den - num}/{den}\n1 1 1/1\n"
    assert _analyze(tmp_path, capsys, text) == (5, "", message)


def test_propagate_point_mass(tmp_path, capsys):
    chain = tmp_path / "chain.sparse"
    run(capsys, "compile", VOTER3, "-o", str(chain))
    code, out, _ = run(capsys, "propagate", str(chain), "--start", "1", "-t", "1")
    assert code == 0
    dist = dict(line.split() for line in out.strip().splitlines())
    assert dist == {"0": "1/3", "1": "1/3", "3": "1/6", "5": "1/6"}


def test_propagate_from_file(tmp_path, capsys):
    chain = tmp_path / "chain.sparse"
    run(capsys, "compile", VOTER3, "-o", str(chain))
    mu = tmp_path / "mu.dist"
    mu.write_text("0 1/2\n7 1/2\n")
    code, out, _ = run(capsys, "propagate", str(chain), "--mu0", str(mu), "-t", "9")
    assert code == 0
    assert out.strip().splitlines() == ["0 1/2", "7 1/2"]


def test_simulate_deterministic_output(tmp_path, capsys):
    t1, t2 = tmp_path / "t1", tmp_path / "t2"
    for t in (t1, t2):
        code, _, _ = run(capsys, "simulate", VOTER3, "--start", "1",
                         "--steps", "20", "--seed", "9", "-o", str(t))
        assert code == 0
    assert t1.read_bytes() == t2.read_bytes()
    lines = t1.read_text().splitlines()
    assert lines[0].startswith("# seed=9 steps=20 start=1 model=")
    assert lines[1] == "(white,black,black)"


def test_simulate_projected(tmp_path, capsys):
    part = tmp_path / "freq.part"
    run(capsys, "orbits", VOTER3, "--gens", "SN", "-o", str(part))
    code, out, _ = run(capsys, "simulate", VOTER3, "--start", "1",
                       "--steps", "10", "--seed", "4",
                       "--partition", str(part))
    assert code == 0
    body = out.strip().splitlines()[1:]
    assert body[0] == "⟨2,1⟩"


def test_simulate_label_tuple_start(capsys):
    code, out, _ = run(capsys, "simulate", VOTER3, "--start",
                       "(white,black,black)", "--steps", "3", "--seed", "2")
    assert code == 0
    assert out.splitlines()[1] == "(white,black,black)"


def test_check_lump_bare_tol_flag(tmp_path, capsys):
    chain = tmp_path / "chain.sparse"
    part = tmp_path / "freq.part"
    run(capsys, "compile", VOTER3, "-o", str(chain))
    run(capsys, "orbits", VOTER3, "--gens", "SN", "-o", str(part))
    assert run(capsys, "check-lump", str(chain), str(part), "--tol")[0] == 0


@pytest.mark.parametrize("verb", ["check-lump", "lump"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_tolerance_must_be_finite_and_non_negative(tmp_path, capsys, verb, tol):
    chain = tmp_path / "chain.sparse"
    part = tmp_path / "freq.part"
    run(capsys, "compile", VOTER3, "-o", str(chain))
    run(capsys, "orbits", VOTER3, "--gens", "SN", "-o", str(part))
    code, out, err = run(capsys, verb, str(chain), str(part), f"--tol={tol}")
    assert code == 5 and out == ""
    assert "tolerance must be a finite number >= 0" in err


def test_estimate_runs(capsys):
    code, out, _ = run(capsys, "estimate", VOTER3, "--samples", "5000",
                       "--seed", "6")
    assert code == 0
    assert "max_abs_deviation=" in out


def test_exit_codes(tmp_path, capsys):
    # usage
    assert main([]) == 2
    assert main(["compile"]) == 2
    # parse error
    bad = tmp_path / "bad.model"
    bad.write_text("[model]\nattributes = a, b\n")
    assert run(capsys, "compile", str(bad))[0] == 4
    # validation error
    invalid = tmp_path / "invalid.model"
    invalid.write_text(Path(VOTER3).read_text().replace(
        "from-topology uniform", "1 2 1/2\n2 1 1/3"))
    assert run(capsys, "compile", str(invalid))[0] == 5
    # cap exceeded
    assert run(capsys, "compile", VOTER3, "--cap", "4")[0] == 6


def test_generator_file_via_cli(tmp_path, capsys):
    gens = tmp_path / "swap.gens"
    gens.write_text("agents: (1 2)\n")
    code, out, _ = run(capsys, "check-sym", VOTER3, "--gens-file", str(gens))
    assert code == 0


def test_gens_and_gens_file_together_exit_2_and_write_nothing(tmp_path, capsys):
    gens, target = tmp_path / "swap.gens", tmp_path / "out.part"
    gens.write_text("agents: (1 2)\n")
    for argv in (["--gens", "SN", "--gens-file", str(gens)],
                 ["--gens-file", str(gens), "--gens", "flip"]):
        for verb in ("orbits", "check-sym"):
            code, out, err = run(capsys, verb, VOTER3, *argv,
                                 *(["-o", str(target)] if verb == "orbits" else []))
            assert (code, out) == (2, "") and "not allowed with argument" in err
    assert not target.exists()


ONE_AGENT = ("[model]\nattributes = a, b, c\n[topology]\nagents 1\n[rule]\narity 1\n"
             "lambda up 1/2\nlambda stay 1/2\na up -> b\nb up -> c\nc up -> a\n"
             "a stay -> a\nb stay -> b\nc stay -> c\n[choice]\nfrom-topology uniform\n")


def test_presets_without_generators_are_the_trivial_group(tmp_path, capsys):
    """SN on one agent and Sdelta-1 on two codes give no generators: singleton
    orbits and a certified symmetry. A preset list numbers only the
    generators it gives, so a witness names the first real one 0."""
    model = tmp_path / "one.model"
    model.write_text(ONE_AGENT, encoding="utf-8")
    assert run(capsys, "orbits", str(model), "--gens", "SN") == (
        0, "⟨1,0,0⟩: 0\n⟨0,1,0⟩: 1\n⟨0,0,1⟩: 2\n", "blocks=3\n")
    assert run(capsys, "check-sym", str(model), "--gens", "SN") == (0, "symmetric under SN\n", "")
    assert run(capsys, "orbits", VOTER3, "--gens", "Sdelta-1") == (
        0, "⟨3,0⟩: 0\nO1: 1\nO2: 2\nO3: 3\nO4: 4\nO5: 5\nO6: 6\n⟨0,3⟩: 7\n", "blocks=8\n")
    assert run(capsys, "check-sym", VOTER3, "--gens", "Sdelta-1") == (
        0, "symmetric under Sdelta-1\n", "")
    code, out, _ = run(capsys, "check-sym", str(model), "--gens", "full")
    assert code == 3 and "witness: generator 0: P(0,1) = 1/2 but P(1,0) = 0\n" in out
    for verb in ("orbits", "check-sym"):
        assert run(capsys, verb, VOTER3, "--gens", ",") == (
            4, "", "parse error: no generator presets given\n")


def rejected(capsys, tmp_path, *argv):
    """Run a verb that must fail validation with `-o` on an existing file;
    returns stderr after checking the exit code and the file."""
    target = tmp_path / "existing.txt"
    target.write_text("keep\n")
    code, out, err = run(capsys, *argv, "-o", str(target))
    assert code == 5 and out == ""
    assert target.read_text() == "keep\n"
    return err


def test_simulate_rejects_partition_of_another_state_count(tmp_path, capsys):
    part = tmp_path / "four.part"
    part.write_text("A: 0\nB: 1\nC: 2\nD: 3\n")
    # start 5 lies outside the partition, start 1 inside it
    for start in ("5", "1"):
        err = rejected(capsys, tmp_path, "simulate", VOTER3, "--start", start,
                       "--steps", "3", "--seed", "1", "--partition", str(part))
        assert "partition covers 4 states, model has 8" in err


def test_simulate_rejects_negative_seed(tmp_path, capsys):
    err = rejected(capsys, tmp_path, "simulate", VOTER3, "--start", "1",
                   "--steps", "3", "--seed", "-3")
    assert "seed must be non-negative" in err


def test_simulate_rejects_negative_steps(tmp_path, capsys):
    err = rejected(capsys, tmp_path, "simulate", VOTER3, "--start", "1",
                   "--steps", "-4", "--seed", "1")
    assert "step count must be non-negative" in err


def test_propagate_rejects_step_counts_beyond_int64(tmp_path, capsys):
    chain = tmp_path / "chain.sparse"
    run(capsys, "compile", VOTER3, "-o", str(chain))
    for steps in (2**63, 10**20):
        err = rejected(capsys, tmp_path, "propagate", str(chain), "--start", "0",
                       "-t", str(steps))
        assert f"step count must be at most 9223372036854775807, got {steps}" in err
    err = rejected(capsys, tmp_path, "propagate", str(chain), "--start", "0", "-t", "-1")
    assert "step count must be non-negative" in err


def test_estimate_rejects_negative_seed(tmp_path, capsys):
    err = rejected(capsys, tmp_path, "estimate", VOTER3, "--samples", "10",
                   "--seed", "-1")
    assert "seed must be non-negative" in err


def test_estimate_rejects_samples_beyond_int64(tmp_path, capsys):
    err = rejected(capsys, tmp_path, "estimate", VOTER3, "--samples",
                   "99999999999999999999", "--seed", "1")
    assert "samples per state must be at most 9223372036854775807" in err
    code, out, _ = run(capsys, "estimate", VOTER3, "--samples", str(2**62), "--seed", "1")
    assert code == 0 and f"samples_per_state={2**62}" in out


def test_compile_rejects_a_cap_below_one(tmp_path, capsys):
    for cap in ("-1", "0"):
        err = rejected(capsys, tmp_path, "compile", VOTER3, "--cap", cap)
        assert f"--cap must be positive, got {cap}" in err


def test_sparse_header_needs_a_state_and_a_count(tmp_path, capsys):
    chain = tmp_path / "chain.sparse"
    for header in ("states=-1 nnz=0", "states=0 nnz=0", "states=2 nnz=-1"):
        chain.write_text(header + "\n")
        code, out, err = run(capsys, "analyze", str(chain))
        assert code == 4 and out == ""
        assert err.startswith("parse error: line 1: header needs states >= 1 and nnz >= 0")


@pytest.mark.parametrize("nnz", [10 ** 15, 10 ** 7])
def test_a_sparse_header_that_overstates_its_entries_sizes_nothing(tmp_path, capsys, nnz):
    """The reader's columns are sized by what the text can hold, so a
    header claiming more entries than follow allocates nothing from its
    count: 10**7 entries would be 320 MB of columns."""
    chain = tmp_path / "chain.sparse"
    chain.write_text(f"states=2 nnz={nnz}\n0 0 1/1\n1 1 1/1\n")
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "analyze", str(chain))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 4 and out == ""
    assert err == f"parse error: expected {nnz} entry lines, found 2\n"
    assert peak < 1 << 20


def test_a_sparse_parse_error_names_the_line_in_the_file(tmp_path, capsys):
    """Comment and blank lines count, as in every other document."""
    chain = tmp_path / "chain.sparse"
    chain.write_text("states=2 nnz=2\n# a comment\n\n0 0 1/1\n1 x 1/1\n")
    code, out, err = run(capsys, "analyze", str(chain))
    assert code == 4 and out == ""
    assert err.startswith("parse error: line 5: row and col must be integers")


def test_propagate_rejects_a_repeated_state(tmp_path, capsys):
    chain = tmp_path / "chain.sparse"
    run(capsys, "compile", VOTER3, "-o", str(chain))
    mu = tmp_path / "mu.dist"
    mu.write_text("0 1/2\n# again\n0 1/2\n7 1/2\n")
    code, out, err = run(capsys, "propagate", str(chain), "--mu0", str(mu), "-t", "1")
    assert code == 4 and out == ""
    assert "line 3: state 0 listed twice" in err


@pytest.mark.parametrize("verb", ["check-lump", "lump", "analyze", "propagate"])
def test_a_row_sum_beyond_the_largest_double_is_reported(tmp_path, capsys, verb):
    """A decimal entry of 1e400 makes the row sum overflow a double: the
    message gives it in decimal, with exit 5. A sum a double holds keeps
    the float text."""
    chain, part = tmp_path / "chain.sparse", tmp_path / "orbits.part"
    run(capsys, "compile", VOTER3, "-o", str(chain))
    run(capsys, "orbits", VOTER3, "--gens", "SN", "-o", str(part))
    good = chain.read_text()
    extra = {"check-lump": [str(part)], "lump": [str(part)], "analyze": [],
             "propagate": ["--start", "0", "-t", "2"]}[verb]
    for value, shown in (("1e400", "1.0000000000000000e+400"), ("1.5", "1.5")):
        chain.write_text(good.replace("\n0 0 1/1\n", f"\n0 0 {value}\n"))
        code, out, err = run(capsys, verb, str(chain), *extra)
        assert code == 5 and out == ""
        assert err == f"error: row 0 sums to {shown} outside 1±1e-09\n"


def test_a_partition_file_repeating_a_state_past_int64_exits_5(tmp_path, capsys):
    """Indices past int64 keep their value in the message, and one never
    sizes an array."""
    chain, part = tmp_path / "chain.sparse", tmp_path / "big.part"
    run(capsys, "compile", VOTER3, "-o", str(chain))
    big = 10**30
    part.write_text(f"A: 0 1 2 3 {big}\nB: 4 5\nC: 6 7 {big}\n")
    code, out, err = run(capsys, "check-lump", str(chain), str(part))
    assert code == 5 and out == ""
    assert err == f"error: state {big} appears in two blocks\n"
    part.write_text("A: 0 1 2 3\nB: 4 5 6 1000000000000\n")
    code, out, err = run(capsys, "check-lump", str(chain), str(part))
    assert code == 5 and out == ""
    assert err == "error: blocks must cover exactly the states 0..n-1\n"


@pytest.mark.parametrize("verb", ["analyze", "check-lump"])
def test_a_huge_state_count_fails_at_its_first_empty_row(tmp_path, capsys, verb):
    """Rows past the last entry, or skipped before a far one, are empty: the
    first of them is reported, without allocating a row per declared state
    or up to the far row."""
    chain, part = tmp_path / "chain.sparse", tmp_path / "one.part"
    part.write_text("A: 0\n")
    extra = {"check-lump": [str(part)], "analyze": []}[verb]
    for text in ("states=10000000000000 nnz=1\n0 0 1/1\n",
                 f"states={2**62 + 1} nnz=3\n0 0 1/2\n0 1 1/2\n{2**62} 0 1/1\n"):
        chain.write_text(text)
        code, out, err = run(capsys, verb, str(chain), *extra)
        assert code == 5 and out == ""
        assert err == "error: row 1 sums to 0 ≠ 1\n"


@pytest.mark.parametrize("entry", ["99999999999999999999 0 1/1", "0 9223372036854775808 1/1"])
def test_a_state_index_past_int64_is_a_parse_error(tmp_path, capsys, entry):
    """A header may declare more states than int64 holds; an index past it
    exits 4 naming its file line, not with numpy's OverflowError."""
    chain = tmp_path / "chain.sparse"
    chain.write_text(f"states=100000000000000000000000 nnz=2\n0 0 1/1\n# far\n{entry}\n")
    x, y = entry.split()[:2]
    for argv in (["analyze", str(chain)], ["propagate", str(chain), "--start", "0", "-t", "1"]):
        code, out, err = run(capsys, *argv)
        assert code == 4 and out == ""
        assert err == f"parse error: line 4: state pair ({x},{y}) out of range\n"


def test_a_decimal_distribution_sum_is_shown_in_decimal(tmp_path, capsys):
    """`0 1e400` used to print its 401-digit sum; decimal entries give the
    sum as a float, or in 17 digits past the double range, and ratios and
    bare integers keep the exact sum."""
    chain, mu = tmp_path / "chain.sparse", tmp_path / "mu.dist"
    run(capsys, "compile", VOTER3, "-o", str(chain))
    for text, shown in (("0 1e400\n", "1.0000000000000000e+400"), ("0 1/2\n1 0.25\n", "0.75"),
                        ("0 1/2\n1 1/3\n", "5/6"), ("0 1\n1 1\n", "2")):
        mu.write_text(text)
        code, out, err = run(capsys, "propagate", str(chain), "--mu0", str(mu), "-t", "1")
        assert code == 5 and out == ""
        assert err == f"error: distribution sums to {shown} ≠ 1\n"


def _model_with(tmp_path, source, old, new):
    path = tmp_path / "digits.model"
    text = Path(source).read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new), encoding="utf-8")
    return str(path)


# '²' passes str.isdigit but not int(); '٣' and '０' are decimal digits
# that int() reads as 3 and 0
def test_complete_with_a_superscript_count_is_a_parse_error(tmp_path, capsys):
    code, _, err = run(capsys, "compile", _model_with(tmp_path, VOTER3, "complete 3",
                                                      "complete ²"))
    assert code == 4 and "expected: complete N" in err


def test_agents_with_a_superscript_count_is_a_parse_error(tmp_path, capsys):
    code, _, err = run(capsys, "compile", _model_with(tmp_path, PATH3, "agents 3",
                                                      "agents ²"))
    assert code == 4 and "expected: agents N" in err


def test_arity_with_a_superscript_is_a_parse_error(tmp_path, capsys):
    code, _, err = run(capsys, "compile", _model_with(tmp_path, SAMPLES / "majority3.model",
                                                      "arity 3", "arity ²"))
    assert code == 4 and "rule must start with 'builtin voter' or 'arity r'" in err


def test_simulate_start_with_a_superscript_is_rejected(tmp_path, capsys):
    err = rejected(capsys, tmp_path, "simulate", VOTER3, "--start", "²",
                   "--steps", "3", "--seed", "1")
    assert "bad start configuration '²'" in err


def test_decimal_digits_int_reads_are_counts(tmp_path, capsys):
    code, out, _ = run(capsys, "maps", _model_with(tmp_path, VOTER3, "complete 3",
                                                   "complete ٣"))
    assert code == 0 and len(out.splitlines()) == 6
    code, out, _ = run(capsys, "simulate", VOTER3, "--start", "٣", "--steps", "0",
                       "--seed", "1")
    assert code == 0 and out.splitlines()[1] == "(white,white,black)"


# --- error messages, one per bad input -----------------------------------------

BAD_GENERATOR_FILES = {
    "unclosed": ("agents: (1 2", "line 1: agent cycles must look like (a b)(c d)"),
    "unclosed on line 2": ("attrs: (0 1)\nagents: (1 2",
                           "line 2: agent cycles must look like (a b)(c d)"),
    "not a number": ("agents: (1 x)", "line 1: bad cycle entry in agent cycles '(1 x)'"),
    "one entry": ("agents: (1)", "line 1: cycle in agent needs at least two entries"),
    "reused": ("agents: (1 2)(2 3)", "line 1: agent cycles reuse an entry in '(1 2)(2 3)'"),
    "out of range": ("attrs: (0 2)", "line 1: attribute cycle entry out of range in '(0 2)'"),
    "unknown key": ("foo: (1 2)", "line 1: expected 'agents:' or 'attrs:', got 'foo'"),
    "unknown key after a bad cycle": ("agents: (1 x); foo: (1 2)",
                                      "line 1: expected 'agents:' or 'attrs:', got 'foo'"),
    "repeated agents": ("agents: (1 2); agents: (1 3)", "line 1: repeated key 'agents'"),
    "repeated attrs": ("attrs: (0 1); attrs: ()", "line 1: repeated key 'attrs'"),
    "empty line": (" ; ", "line 1: empty generator line"),
    "comments only": ("# nothing", "generator file defines no generators"),
}


@pytest.mark.parametrize("text, message", BAD_GENERATOR_FILES.values(), ids=BAD_GENERATOR_FILES)
def test_a_bad_generator_file_is_a_parse_error(tmp_path, capsys, text, message):
    gens = tmp_path / "g.txt"
    gens.write_text(text + "\n")
    assert run(capsys, "orbits", VOTER3, "--gens-file", str(gens)) == (
        4, "", f"parse error: {message}\n")


def test_a_repeated_generator_part_is_refused_not_overridden(tmp_path, capsys):
    """`(1 2)` alone is no symmetry of path3, which the matrix shows (exit
    3); a second `agents:` part on its line is refused, not taken in its
    place."""
    gens = tmp_path / "g.txt"
    gens.write_text("agents: (1 2)\n")
    assert run(capsys, "check-sym", PATH3, "--gens-file", str(gens))[0] == 3
    gens.write_text("agents: (1 2); agents: (1 3)\n")
    assert run(capsys, "check-sym", PATH3, "--gens-file", str(gens)) == (
        4, "", "parse error: line 1: repeated key 'agents'\n")


def test_empty_cycles_in_a_generator_file_are_the_identity(tmp_path, capsys):
    gens = tmp_path / "g.txt"
    gens.write_text("agents: ()\nattrs: () ; agents:\n")
    code, out, err = run(capsys, "orbits", VOTER3, "--gens-file", str(gens))
    assert (code, err) == (0, "blocks=8\n")
    assert [line.split(": ")[1] for line in out.splitlines()] == [str(x) for x in range(8)]


@pytest.mark.parametrize("preset, expected", [
    ("Sdelta-1:x", (4, "", "parse error: bad preset 'Sdelta-1:x'\n")),
    ("Sdelta-1:5", (5, "", "error: attribute code 5 out of range\n")),
])
def test_a_bad_fixed_code_preset_is_refused(capsys, preset, expected):
    assert run(capsys, "orbits", VOTER3, "--gens", preset) == expected


def test_a_rule_without_lambda_lines_is_refused(tmp_path, capsys):
    model = tmp_path / "flip.model"
    model.write_text(PATH4_FLIP.replace("lambda flip 1\n", ""), encoding="utf-8")
    assert run(capsys, "compile", str(model)) == (
        4, "", "parse error: rule has no lambda lines\n")


MAJORITY3 = str(SAMPLES / "majority3.model")
BAD_MODELS = {
    "empty attributes": (VOTER3, "attributes = black, white", "attributes = ,",
                         4, "parse error: line 4: empty attribute list"),
    "repeated attribute": (VOTER3, "attributes = black, white", "attributes = black, black",
                           5, "error: alphabet symbols must be distinct"),
    "repeated name": (VOTER3, "name = voter3", "name = voter3\nname = voter4",
                      4, "parse error: line 4: repeated key 'name' in [model]"),
    "repeated attributes": (VOTER3, "attributes = black, white",
                            "attributes = black, white\nattributes = black, white, red",
                            4, "parse error: line 5: repeated key 'attributes' in [model]"),
    "lines after complete": (VOTER3, "complete 3", "complete 3\nagents 3",
                             4, "parse error: line 8: no further lines allowed after 'complete N'"),
    "lines after builtin voter": (VOTER3, "builtin voter", "builtin voter\narity 2",
                                  4, "parse error: line 11: no further lines allowed after "
                                     "'builtin voter'"),
    "undirected self-edge": (PATH3, "1 2 1/1", "1 1 1/1\n1 2 1/1",
                             5, "error: self-edge on agent 1"),
    "directed self-edge": (PATH3, "undirected\n1 2 1/1", "1 1 1/1\n1 2 1/1\n2 1 1/1",
                           5, "error: self-edge on agent 1"),
    "late lambda": (MAJORITY3, "white white white copy -> white",
                    "white white white copy -> white\nlambda late 0",
                    4, "parse error: line 32: lambda lines must precede table lines"),
    "lambda without probability": (MAJORITY3, "lambda copy 1/3", "lambda copy",
                                   4, "parse error: line 15: expected: lambda <label> <prob>"),
    "undeclared lambda label": (MAJORITY3, "black black black majority", "black black black kopy",
                                4, "parse error: line 16: lambda label 'kopy' is not declared"),
    "zero probability": (MAJORITY3, "lambda copy 1/3", "lambda copy 0",
                         5, "error: option 'copy' has non-positive probability 0"),
    "probabilities short of one": (MAJORITY3, "lambda copy 1/3", "lambda copy 1/4",
                                   5, "error: option probabilities sum to 11/12 ≠ 1"),
    "missing table line": (MAJORITY3, "white white white copy -> white\n", "",
                           5, "error: rule table has 15 entries, needs all 16"),
}


@pytest.mark.parametrize("source, old, new, code, message", BAD_MODELS.values(), ids=BAD_MODELS)
def test_a_bad_model_is_refused_naming_the_fault(tmp_path, capsys, source, old, new, code,
                                                message):
    assert run(capsys, "compile", _model_with(tmp_path, source, old, new)) == (
        code, "", message + "\n")


def test_one_line_forms_are_matched_as_tokens(tmp_path, capsys):
    """Whitespace within a line is free in the one-line forms too."""
    tabbed = tmp_path / "tabbed.model"
    tabbed.write_text(Path(VOTER3).read_text().replace("builtin voter", "builtin\tvoter")
                      .replace("from-topology uniform", "from-topology  uniform"))
    assert run(capsys, "compile", str(tabbed)) == run(capsys, "compile", VOTER3)


def test_a_choice_line_is_read_whole_before_its_tuple_is_looked_up(tmp_path, capsys):
    """A repeated tuple with a bad rational reports the rational, as an
    edge line does."""
    doc = tmp_path / "choice.model"
    doc.write_text(Path(VOTER3).read_text().replace(
        "from-topology uniform", "1 2 1/2\n1 2 x"))
    assert run(capsys, "compile", str(doc)) == (4, "", "parse error: line 14: bad rational 'x'\n")


def test_an_all_integer_chain_is_exact(tmp_path, capsys):
    """A bare integer value is exact: a row it leaves short of one is
    reported exactly, and `lump` writes no `exact=0`."""
    chain, part, macro = tmp_path / "i.sparse", tmp_path / "i.part", tmp_path / "i.macro"
    chain.write_text("states=2 nnz=3\n0 0 1\n0 1 1/1000000000000\n1 1 1/1\n")
    assert run(capsys, "analyze", str(chain)) == (
        5, "", "error: row 0 sums to 1000000000001/1000000000000 ≠ 1\n")
    chain.write_text("states=2 nnz=2\n0 1 1\n1 1 1\n")
    part.write_text("a: 0\nb: 1\n")
    assert run(capsys, "lump", str(chain), str(part), "-o", str(macro))[0] == 0
    assert macro.read_text() == "states=2 nnz=2\n0 1 1/1\n1 1 1/1\n"


def test_an_arity_0_rule_is_refused(tmp_path, capsys):
    model = tmp_path / "arity0.model"
    model.write_text("[model]\nattributes = a, b\n[topology]\ncomplete 2\n"
                     "[rule]\narity 0\nlambda stay 1\n[choice]\nfrom-topology uniform\n")
    assert run(capsys, "compile", str(model)) == (
        5, "", "error: rule arity must be at least 1\n")


@pytest.mark.parametrize("text, message", [
    ("0 1/2 x", "line 1: expected: index probability"),
    ("0 x", "line 1: bad distribution line '0 x'"),
    ("# mass\n9 1", "line 2: state 9 out of range"),
], ids=["three tokens", "not a number", "out of range"])
def test_a_bad_distribution_file_is_a_parse_error(tmp_path, capsys, text, message):
    chain, mu = tmp_path / "c.sparse", tmp_path / "mu.txt"
    assert run(capsys, "compile", VOTER3, "-o", str(chain))[0] == 0
    mu.write_text(text + "\n")
    assert run(capsys, "propagate", str(chain), "--mu0", str(mu), "-t", "1") == (
        4, "", f"parse error: {message}\n")


@pytest.mark.parametrize("text, message", [
    ("", "empty sparse file"),
    ("# a\n\n   # b\n", "empty sparse file"),
    ("states=x nnz=1\n0 0 1\n", "line 1: header counts must be integers"),
    ("states=2 nnz=3 states=3\n0 0 1/2\n0 1 1/2\n1 1 1/1\n",
     "line 1: repeated key 'states' in the header"),
], ids=["empty", "comments only", "not a count", "repeated key"])
def test_a_sparse_file_without_a_good_header_is_a_parse_error(tmp_path, capsys, text, message):
    chain = tmp_path / "c.sparse"
    chain.write_text(text)
    assert run(capsys, "analyze", str(chain)) == (4, "", f"parse error: {message}\n")


def test_a_missing_input_file_is_an_io_error(tmp_path, capsys):
    missing = tmp_path / "missing.sparse"
    assert run(capsys, "analyze", str(missing)) == (
        5, "", f"io error: [Errno 2] No such file or directory: {str(missing)!r}\n")


def test_a_cap_below_one_in_the_environment_is_refused(capsys, monkeypatch):
    monkeypatch.setenv("MICROLUMP_CAP", "0")
    assert run(capsys, "compile", VOTER3) == (5, "", "error: MICROLUMP_CAP must be positive, got 0\n")


def test_estimate_lists_each_entry_beyond_its_bound(capsys):
    assert run(capsys, "estimate", VOTER3, "--samples", "30", "--seed", "1") == (
        0, "samples_per_state=30 seed=1\nmax_abs_deviation=0.3\nentries_beyond_3sigma=1\n"
           "  (1,1): empirical 0.633333 vs exact 0.333333, bound 0.258199\n", "")


# --- one parser per process -------------------------------------------------

def fresh(capsys, monkeypatch, *argv):
    """`run` through a parser built for this call alone."""
    with monkeypatch.context() as patch:
        patch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        return run(capsys, *argv)


def test_the_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_a_verb_rebound_after_the_parser_is_built_is_the_one_called(tmp_path, capsys,
                                                                      monkeypatch):
    """Verbs are looked up by name when `main` runs, so a `cmd_*` rebound
    after the first call (as the benchmark's tracer does) is honoured."""
    assert run(capsys, "maps", VOTER3)[0] == 0
    calls = []

    def spy(args):
        calls.append((args.chain, args.partition))
        return 0

    monkeypatch.setattr(cli, "cmd_lump", spy)
    assert run(capsys, "lump", "a.sparse", "b.part") == (0, "", "")
    assert calls == [("a.sparse", "b.part")]


def test_a_verb_rebound_under_another_name_before_the_parser_is_built(capsys, monkeypatch):
    """The parser stores the fixed `cmd_<verb>` name, not the name of the
    function bound there when it was built, so a renamed replacement is
    found on the first call and every later one."""
    calls = []

    def renamed(args):
        calls.append(args.model)
        return 0

    monkeypatch.setattr(cli, "cmd_compile", renamed)
    cli.build_parser.cache_clear()
    try:
        assert run(capsys, "compile", "a.model") == (0, "", "")
        assert run(capsys, "compile", "b.model") == (0, "", "")
    finally:
        cli.build_parser.cache_clear()
    assert calls == ["a.model", "b.model"]


# three states whose decimal rows lump over A = {0}, B = {1, 2} only within
# the bare `--tol` flag's 1e-12
NEAR_LUMPABLE = """\
states=3 nnz=5
0 0 1
1 0 0.5
1 1 0.5
2 0 0.5000000000001
2 2 0.4999999999999
"""


def leak_sequences(tmp_path, capsys):
    """Calls whose options, leaked into the next call, would change it."""
    chain, part, mu = (str(tmp_path / name) for name in ("path3.sparse", "sn.part", "mu"))
    near, halves = str(tmp_path / "near.sparse"), str(tmp_path / "halves.part")
    run(capsys, "compile", PATH3, "-o", chain)
    run(capsys, "orbits", PATH3, "--gens", "SN", "-o", part)
    Path(mu).write_text("0 1/2\n7 1/2\n")
    Path(near).write_text(NEAR_LUMPABLE)
    Path(halves).write_text("A: 0\nB: 1 2\n")
    return {
        "exhaustive then not": [("check-lump", chain, part, "--exhaustive"),
                                ("check-lump", chain, part)],
        "bare tol then none": [("check-lump", near, halves, "--tol"),
                               ("check-lump", near, halves)],
        "start then mu0": [("propagate", chain, "--start", "3", "-t", "2"),
                           ("propagate", chain, "--mu0", mu, "-t", "2")],
        "usage error then valid": [("propagate", chain, "--start", "3", "--mu0", mu),
                                   ("check-lump", chain, part)],
    }


def test_no_option_leaks_from_one_call_to_the_next(tmp_path, capsys, monkeypatch):
    """Each call of a sequence run through the shared parser gives the exit
    code, stdout and stderr of the same call through a fresh parser."""
    for name, calls in leak_sequences(tmp_path, capsys).items():
        shared = [run(capsys, *argv) for argv in calls]
        alone = [fresh(capsys, monkeypatch, *argv) for argv in calls]
        assert shared == alone, name
        # the two calls differ, so a leak would show
        assert shared[0] != shared[1], name
    assert [code for code, _, _ in shared] == [2, 3]


@pytest.mark.parametrize("argv", [["--help"], ["check-lump", "--help"],
                                  ["propagate", "x.sparse", "--steps"], []],
                         ids=["help", "verb help", "usage error", "no verb"])
def test_help_and_usage_follow_the_terminal_width(capsys, monkeypatch, argv):
    """Text is formatted when printed, at the width of that moment."""
    texts = []
    for columns in ("60", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        texts.append(run(capsys, *argv))
        assert texts[-1] == fresh(capsys, monkeypatch, *argv)
    assert texts[0][0] == texts[1][0] == (0 if "--help" in argv else 2)
    if argv[:1] == ["--help"]:
        assert texts[0] != texts[1]


def test_out_of_memory_in_any_verb_exits_6_naming_it(capsys, monkeypatch):
    def cmd_compile(args):  # the name the parser may store for the verb
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_compile", cmd_compile)
    assert main(["compile", VOTER3]) == cli.EXIT_CAP
    assert capsys.readouterr() == ("", "out of memory: compile needs more memory than it can get\n")


def test_unbounded_steps_under_an_address_space_limit_exit_6():
    """The trajectory outgrows a 300 MB address space, set in the child
    only: one line and exit 6, not a MemoryError traceback."""
    script = ("import resource, sys\n"
              "resource.setrlimit(resource.RLIMIT_AS, (300 << 20, 300 << 20))\n"
              "from microlump.cli import main\n"
              "sys.exit(main(sys.argv[1:]))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script, "simulate", VOTER3, "--start", "1",
                           "--steps", "100000000000", "--seed", "1"],
                          capture_output=True, text=True, env=env, timeout=600)
    assert (proc.returncode, proc.stdout) == (cli.EXIT_CAP, "")
    assert proc.stderr == "out of memory: simulate needs more memory than it can get\n"
