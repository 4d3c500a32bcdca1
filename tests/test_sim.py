import io
import random
from fractions import Fraction

import numpy as np
import pytest

from microlump import (Alphabet, ChoiceDistribution, ConfigSpace, ModelSpec, Topology,
                       UpdateRule, estimate_matrix, frequency_partition, lump,
                       project_trajectory, simulate)
from microlump.sim import _draw_lookup, _draw_weights, _philox_keys, write_trajectory
from oracle import empirical, entry
from conftest import LETTERS, letter_index


def test_step_from_homogeneous_is_fixed(voter3):
    for letter in "ah":
        run = simulate(voter3, LETTERS[letter], 20, seed=0)
        assert set(run.states) == {letter_index(letter)}


def test_step_changes_at_most_one_agent(majority3):
    run = simulate(majority3, LETTERS["d"], 300, seed=9)
    space = ConfigSpace(majority3.n_agents, majority3.delta)
    configs = [space.config_of(x) for x in run.states]
    for cfg, nxt in zip(configs, configs[1:]):
        assert sum(1 for u, v in zip(cfg, nxt) if u != v) <= 1


def test_step_outcome_in_row_support(voter3, voter3_chain):
    support = {y for y, _ in voter3_chain.rows[letter_index("d")]}
    for seed in range(200):
        run = simulate(voter3, LETTERS["d"], 1, seed=seed)
        assert run.states[1] in support


def test_trajectory_support(voter3, voter3_chain):
    run = simulate(voter3, LETTERS["d"], 200, seed=5)
    for (x, y), cnt in run.counts.items():
        assert cnt > 0
        assert entry(voter3_chain, x, y) > 0


def test_the_tally_is_built_on_first_read(voter3):
    run = simulate(voter3, LETTERS["d"], 200, seed=5)
    assert "counts" not in vars(run)
    pairs = list(zip(run.states, run.states[1:]))
    assert run.counts == {pair: pairs.count(pair) for pair in pairs}
    assert run.counts is run.counts


def test_simulation_deterministic(voter3):
    r1 = simulate(voter3, LETTERS["d"], 100, seed=77)
    r2 = simulate(voter3, LETTERS["d"], 100, seed=77)
    assert r1.states == r2.states
    assert r1.counts == r2.counts


def test_trajectory_write_is_reproducible(voter3, voter3_chain):
    out1, out2 = io.StringIO(), io.StringIO()
    for out in (out1, out2):
        run = simulate(voter3, LETTERS["d"], 30, seed=3)
        write_trajectory(run, voter3_chain.space, out)
    assert out1.getvalue() == out2.getvalue()
    header = out1.getvalue().splitlines()[0]
    assert header.startswith("# seed=3 steps=30")
    assert "model=" in header


def test_project_trajectory_labels(voter3, voter3_chain):
    part = frequency_partition(voter3_chain.space)
    run = simulate(voter3, LETTERS["d"], 60, seed=11)
    labels = project_trajectory(run, part)
    assert len(labels) == 61
    assert labels[0] == "⟨2,1⟩"
    assert set(labels) <= set(part.labels)


def test_absorbed_trajectory_stays_absorbed(voter3, voter3_chain):
    part = frequency_partition(voter3_chain.space)
    run = simulate(voter3, LETTERS["d"], 300, seed=21)
    labels = project_trajectory(run, part)
    ends = {"⟨3,0⟩", "⟨0,3⟩"}
    if labels[-1] in ends:  # absorbed: suffix must be constant
        first = labels.index(labels[-1])
        assert all(l == labels[-1] for l in labels[first:])


def test_estimate_deterministic(voter3):
    rep1, _ = estimate_matrix(voter3, 2000, seed=42)
    rep2, _ = estimate_matrix(voter3, 2000, seed=42)
    assert rep1.counts == rep2.counts


def test_estimate_absorbing_rows_exact(voter3):
    report, chain = estimate_matrix(voter3, 5000, seed=8)
    for letter in "ah":
        x = letter_index(letter)
        assert report.counts[x] == {x: 5000}
        assert empirical(report, x, x) == 1.0


def test_estimate_within_three_sigma(voter3):
    report, chain = estimate_matrix(voter3, 100000, seed=1234)
    assert report.violations == ()
    assert report.max_abs_dev < 1e-2


def test_estimate_counts_sum_to_samples(path3):
    report, _ = estimate_matrix(path3, 3000, seed=2)
    for tally in report.counts:
        assert sum(tally.values()) == 3000


def test_macro_frequencies_match_reduced_chain(voter3):
    """Block-aggregated one-step frequencies behave like the reduced chain
    from every state of a block, within 3 sigma."""
    report, chain = estimate_matrix(voter3, 50000, seed=31)
    part = frequency_partition(chain.space)
    macro = lump(chain, part)
    n = report.samples_per_state
    for x in range(chain.n_states):
        k = part.block_of[x]
        agg = {}
        for y, cnt in report.counts[x].items():
            l = part.block_of[y]
            agg[l] = agg.get(l, 0) + cnt
        for l in range(part.n_blocks):
            p = float(entry(macro, k, l))
            emp = agg.get(l, 0) / n
            bound = 3.0 * (p * (1.0 - p) / n) ** 0.5
            assert abs(emp - p) <= bound


def test_estimate_rejects_bad_samples(voter3):
    from microlump import ValidationError
    with pytest.raises(ValidationError):
        estimate_matrix(voter3, 0, seed=1)
    with pytest.raises(ValidationError, match="at most 9223372036854775807"):
        estimate_matrix(voter3, 2**63, seed=1)


# one word up to 2**32 - 1; 2**128 and 2**200 + 12345 are wider than
# SeedSequence's four-word pool, so their top words are mixed in after it
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**128, 2**200 + 12345])
@pytest.mark.parametrize("n", [1, 2, 256, 2187])
def test_philox_keys_are_the_spawned_childrens(seed, n):
    keys = _philox_keys(seed, n)
    assert keys.dtype == np.uint64 and keys.shape == (n, 2)
    children = np.random.SeedSequence(seed).spawn(n)
    assert keys.tolist() == [c.generate_state(2, np.uint64).tolist() for c in children]


def noisy_voter(n, seed):
    """The benchmark's noisy voter: `copy` a neighbor with probability 9/10,
    else move to the next code, on a seeded random connected graph (a
    random spanning tree plus each other pair with probability 0.2)."""
    rng = random.Random(seed)
    pairs = {(rng.randrange(i), i) for i in range(1, n)}
    pairs |= {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.2}
    edges = {e: Fraction(1) for i, j in sorted(pairs) for e in ((i, j), (j, i))}
    table = {(a, b, opt): (b if opt == 0 else 1 - a) for a in (0, 1) for b in (0, 1)
             for opt in (0, 1)}
    rule = UpdateRule(arity=2, options=(("copy", Fraction(9, 10)), ("noise", Fraction(1, 10))),
                      table=table, delta=2)
    topology = Topology(n, edges)
    return ModelSpec(name="noisy", alphabet=Alphabet(("a", "b")), topology=topology, rule=rule,
                     choice=ChoiceDistribution.uniform_from_topology(topology, 2))


def below_one_ulp():
    """Weights below one ulp of the running sum: cum repeats values."""
    return np.array([0.25] + [1e-20] * 3 + [0.25] + [1e-20] * 2 + [0.5])


def past_one():
    """Six parts over their sum, each less 1e-30/6, then a 1e-30 draw: the
    float cumsum passes 1.0 before the last draw."""
    parts, tiny = [1, 13, 19, 11, 14, 2], Fraction(1, 10**30)
    return np.array([float(Fraction(p, 60) - tiny / 6) for p in parts] + [float(tiny)])


GUIDE_WEIGHTS = {
    "simulate-noisy": lambda: _draw_weights(noisy_voter(20, 9)),
    "one heavy draw": lambda: np.array([1 - 1e-6] + [1e-6 / 999] * 999),
    "equal": lambda: np.full(39800, 1 / 39800),
    "below one ulp": below_one_ulp,
    "past one": past_one,
}


def simulated_cum(weights):
    """The cumulative weights as `simulate` makes them."""
    cum = np.cumsum(weights)
    cum[-1] = 1.0
    return cum


def test_the_guide_weight_cases_reach_their_edges():
    cum = simulated_cum(below_one_ulp())
    assert len(np.unique(cum)) < len(cum)
    assert np.cumsum(past_one())[-2] > 1.0


@pytest.mark.parametrize("name", list(GUIDE_WEIGHTS))
def test_guide_lookup_is_the_binary_search(name):
    """Every boundary of cum and every bucket edge b/m, m the power of two
    at or above 4 * len(cum), with their neighbouring doubles, 0, the
    largest uniform below one and random uniforms."""
    cum = simulated_cum(GUIDE_WEIGHTS[name]())
    m = 1 << (4 * len(cum) - 1).bit_length()
    points = np.concatenate([cum, np.arange(m) / m, [0.0, 1 - 2**-53]])
    u = np.concatenate([points, np.nextafter(points, -1), np.nextafter(points, 2),
                        np.random.default_rng(0).random(10_000)])
    u = u[(u >= 0) & (u < 1)]
    assert np.array_equal(_draw_lookup(cum)(u), np.searchsorted(cum, u, side="right"))
