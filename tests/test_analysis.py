import dataclasses
import io
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from microlump import analysis
from microlump import (AnalysisError, Chain, Topology, ValidationError,
                       absorption_analysis, build_micro_chain,
                       builtin_voter, classify_states,
                       commutation_profile, frequency_partition, lump,
                       moran_partition, point_mass, propagate, read_sparse)
from microlump.analysis import (Classification, absorption_kv, absorption_text,
                                read_distribution, write_distribution)
from oracle import aggregate, commutation_check, counts, partition
from conftest import letter_index


def test_classify_voter(voter3_chain):
    cls = classify_states(voter3_chain)
    assert set(cls.absorbing) == {letter_index("a"), letter_index("h")}
    assert len(cls.transient) == 6
    assert all(len(c) == 1 for c in cls.recurrent_classes)


def test_an_absorption_report_is_a_classification(voter3_chain):
    report = absorption_analysis(voter3_chain)
    assert isinstance(report, Classification)
    fields = [f.name for f in dataclasses.fields(report)]
    assert fields[:3] == [f.name for f in dataclasses.fields(Classification)]
    assert (Classification(*(getattr(report, name) for name in fields[:3]))
            == classify_states(voter3_chain))


def test_classify_moran(voter3_chain):
    macro = lump(voter3_chain, moran_partition(voter3_chain.space, 0))
    cls = classify_states(macro)
    assert cls.absorbing == (0, 3)


def test_classify_uniform_chain():
    p = Fraction(1, 3)
    rows = tuple(tuple((y, p) for y in range(3)) for _ in range(3))
    chain = read_sparse("states=3 nnz=9\n" + "\n".join(
        f"{x} {y} 1/3" for x in range(3) for y in range(3)))
    cls = classify_states(chain)
    assert cls.absorbing == ()
    assert cls.transient == ()
    assert cls.recurrent_classes == ((0, 1, 2),)


def test_classify_a_chain_of_no_states():
    chain = Chain(np.array([0]), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), 1)
    assert classify_states(chain) == Classification((), (), ())
    with pytest.raises(AnalysisError, match="no absorbing state"):
        absorption_analysis(chain)


def test_absorbing_states_alone_leave_an_empty_report():
    """No transient states: empty arrays and residuals of 0."""
    report = absorption_analysis(read_sparse("states=2 nnz=2\n0 0 1\n1 1 1\n"))
    assert (report.absorbing, report.transient) == ((0, 1), ())
    assert report.probs.shape == (0, 2) and report.expected_steps.shape == (0,)
    assert (report.residual_probs, report.residual_steps) == (0.0, 0.0)


def test_a_65536_state_identity_chain_is_analysed_in_linear_time():
    """Every state absorbing: each recurrent class is looked up among the
    absorbing states in a set, where a scan of their tuple is quadratic."""
    n = 1 << 16
    chain = Chain(np.arange(n + 1), np.arange(n), np.ones(n, dtype=np.int64), 1)
    start = time.perf_counter()
    report = absorption_analysis(chain)
    assert time.perf_counter() - start < 5
    assert report.absorbing == tuple(range(n)) and report.transient == ()


def test_every_state_of_the_65536_state_identity_chain_is_looked_up_in_constant_time():
    """`fixation_prob` and `steps_from` find a state by its place, built
    once per report, where a scan of the state tuples takes milliseconds a
    call; numpy integers are states too."""
    n = 1 << 16
    report = absorption_analysis(
        Chain(np.arange(n + 1), np.arange(n), np.ones(n, dtype=np.int64), 1))
    deadline = time.perf_counter() + 5
    for x in range(n):
        assert report.fixation_prob(x, x) == 1.0 and report.fixation_prob(x, n - 1) == (x == n - 1)
        assert report.steps_from(np.int64(x)) == 0.0
        assert time.perf_counter() < deadline, x


def test_lookups_answer_the_report_entries(voter3_chain):
    """Transient states read their row of `probs` and `expected_steps`;
    absorbing ones stay put; a target must be absorbing."""
    report = absorption_analysis(voter3_chain)
    assert report.transient
    for i, x in enumerate(report.transient):
        assert report.steps_from(x) == report.expected_steps[i] > 0
        for j, a in enumerate(report.absorbing):
            assert report.fixation_prob(np.int64(x), a) == report.probs[i, j]
    for a in report.absorbing:
        assert [report.fixation_prob(a, b) for b in report.absorbing] == [
            float(a == b) for b in report.absorbing]
        assert report.steps_from(a) == 0.0
    x = report.transient[0]
    for state in (x, report.absorbing[0]):
        with pytest.raises(AnalysisError, match=f"^state {x} is not absorbing$"):
            report.fixation_prob(state, x)


@pytest.mark.parametrize("step", [1, -1], ids=["up", "down"])
def test_classify_a_20000_state_line(step):
    """One-way line of 20,000 states ending in an absorbing state: both
    searches run as deep as the line, with no recursion."""
    n = 20000
    end = n - 1 if step == 1 else 0
    chain = read_sparse(f"states={n} nnz={n}\n" + "".join(
        f"{x} {x if x == end else x + step} 1/1\n" for x in range(n)))
    cls = classify_states(chain)
    assert cls.absorbing == (end,) and cls.recurrent_classes == ((end,),)
    assert cls.transient == tuple(x for x in range(n) if x != end)


@pytest.mark.parametrize("n", range(2, 7))
def test_fixation_is_black_share(n):
    spec = builtin_voter(Topology.complete(n))
    chain = build_micro_chain(spec)
    report = absorption_analysis(chain)
    all_black = 0
    for x in range(chain.n_states):
        k = counts(chain.space, chain.space.config_of(x))[0]
        assert abs(report.fixation_prob(x, all_black) - k / n) < 1e-9


def test_micro_and_line_fixation_agree(voter3_chain):
    mor = moran_partition(voter3_chain.space, 0)
    macro = lump(voter3_chain, mor)
    micro_rep = absorption_analysis(voter3_chain)
    macro_rep = absorption_analysis(macro)
    for x in range(voter3_chain.n_states):
        k = mor.block_of[x]
        assert abs(micro_rep.fixation_prob(x, 0)
                   - macro_rep.fixation_prob(k, mor.n_blocks - 1)) < 1e-9


def test_absorbing_start_trivial(voter3_chain):
    report = absorption_analysis(voter3_chain)
    a = letter_index("a")
    assert report.fixation_prob(a, a) == 1.0
    assert report.steps_from(a) == 0.0


def test_expected_steps_positive(voter3_chain):
    report = absorption_analysis(voter3_chain)
    assert all(s > 0 for s in report.expected_steps)
    assert report.residual_probs <= 1e-9
    assert report.residual_steps <= 1e-9


def test_no_absorbing_state_reported():
    chain = read_sparse("states=2 nnz=2\n0 1 1/1\n1 0 1/1\n")
    with pytest.raises(AnalysisError, match="state 0"):
        absorption_analysis(chain)


def test_a_residual_past_the_bound_is_refused(path3_chain, monkeypatch):
    assert absorption_analysis(path3_chain).residual_probs > 0
    monkeypatch.setattr(analysis, "RESIDUAL_BOUND", 0.0)
    with pytest.raises(AnalysisError, match=r"^solve residuals .* exceed 0e\+00$"):
        absorption_analysis(path3_chain)


def test_propagate_point_mass_absorbing(voter3_chain):
    mu = point_mass(8, letter_index("a"))
    for t in (0, 1, 5):
        assert propagate(voter3_chain, mu, t) == mu


def test_propagate_one_step_from_d(voter3_chain):
    mu1 = propagate(voter3_chain, point_mass(8, letter_index("d")), 1)
    expect = {letter_index("a"): Fraction(1, 3),
              letter_index("d"): Fraction(1, 3),
              letter_index("f"): Fraction(1, 6),
              letter_index("g"): Fraction(1, 6)}
    assert {i: p for i, p in enumerate(mu1) if p} == expect


def test_propagate_zero_steps_identity(voter3_chain):
    mu = [Fraction(1, 8)] * 8
    assert propagate(voter3_chain, mu, 0) == mu


def test_propagate_conserves_mass(voter3_chain):
    mu = [Fraction(1, 8)] * 8
    for t in range(1, 15):
        mu = propagate(voter3_chain, mu, 1)
        assert sum(mu) == 1


def test_absorbed_mass_monotone(voter3_chain):
    absorbing = (letter_index("a"), letter_index("h"))
    mu = point_mass(8, letter_index("d"))
    last = sum(mu[a] for a in absorbing)
    for _ in range(20):
        mu = propagate(voter3_chain, mu, 1)
        now = sum(mu[a] for a in absorbing)
        assert now >= last
        last = now


def test_commutation_zero_for_lumpable(voter3_chain):
    part = frequency_partition(voter3_chain.space)
    for start in range(8):
        assert commutation_check(voter3_chain, part,
                                 point_mass(8, start), 10) == 0


def test_commutation_nonzero_when_forced(path3_chain):
    part = frequency_partition(path3_chain.space)
    hit = Fraction(0)
    for start in range(8):
        prof = commutation_profile(path3_chain, part, point_mass(8, start),
                                   5, force=True)
        hit = max(hit, max(prof))
    assert hit > 0


def test_commutation_requires_lumpable(path3_chain):
    from microlump import NotLumpableError
    part = frequency_partition(path3_chain.space)
    with pytest.raises(NotLumpableError):
        commutation_check(path3_chain, part, point_mass(8, 1), 3)


def test_aggregate(voter3_chain):
    part = frequency_partition(voter3_chain.space)
    mu = [Fraction(1, 8)] * 8
    nu = aggregate(mu, part)
    assert nu == [Fraction(1, 8), Fraction(3, 8), Fraction(3, 8), Fraction(1, 8)]


def test_distribution_io(voter3_chain):
    mu = propagate(voter3_chain, point_mass(8, letter_index("d")), 2)
    buf = io.StringIO()
    write_distribution(mu, buf)
    again = read_distribution(buf.getvalue(), 8)
    assert again == mu
    with pytest.raises(ValidationError):
        read_distribution("0 1/2\n", 8)  # mass missing


def test_report_formats(voter3_chain):
    report = absorption_analysis(voter3_chain)
    text = absorption_text(report)
    assert "absorbing states: 0 7" in text
    kv = absorption_kv(report)
    assert "values=float" in kv
    assert any(line.startswith("absorb[1][0]=") for line in kv.splitlines())


def test_validate_distribution_errors(voter3_chain):
    with pytest.raises(ValidationError):
        propagate(voter3_chain, [Fraction(1, 2)] * 8, 1)
    with pytest.raises(ValidationError):
        propagate(voter3_chain, point_mass(8, 0), -1)


def test_commutation_rejects_negative_steps(voter3_chain):
    part = frequency_partition(voter3_chain.space)
    mu = point_mass(8, 1)
    for force in (False, True):
        with pytest.raises(ValidationError, match="step count must be non-negative"):
            commutation_check(voter3_chain, part, mu, -1, force=force)
        with pytest.raises(ValidationError, match="step count must be non-negative"):
            commutation_profile(voter3_chain, part, mu, -1, force=force)


def test_step_counts_past_islice_are_rejected(voter3_chain):
    """Propagation takes up to 2**63 - 1 steps, a profile up to 2**63 - 1
    points (t_max up to 2**63 - 2): beyond, a validation error names the
    bound rather than `islice` raising."""
    mu = point_mass(8, 1)
    with pytest.raises(ValidationError, match=f"at most {2**63 - 1}, got {2**63}$"):
        propagate(voter3_chain, mu, 2**63)
    part = frequency_partition(voter3_chain.space)
    for force in (False, True):
        with pytest.raises(ValidationError, match=f"at most {2**63 - 2}, got {sys.maxsize}$"):
            commutation_profile(voter3_chain, part, mu, sys.maxsize, force=force)


@pytest.mark.parametrize("n_states", [4, 11])
def test_partition_of_another_size_is_rejected(voter3_chain, n_states):
    part = partition(((0,), tuple(range(1, n_states))), ("A", "B"))
    mu = point_mass(8, 1)
    message = f"partition covers {n_states} states, chain has 8"
    for force in (False, True):
        with pytest.raises(ValidationError, match=message):
            commutation_profile(voter3_chain, part, mu, 3, force=force)
    with pytest.raises(ValidationError, match=message):
        aggregate(mu, part)
