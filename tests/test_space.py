import random
from fractions import Fraction

import numpy as np
import pytest

from microlump import (CapExceededError, ChoiceDistribution, ConfigSpace, ModelSpec, Topology,
                       ValidationError, attr_group_fixing, builtin_voter, moran_partition,
                       simulate)
from microlump.analysis import commutation_profile, point_mass, propagate
from microlump.chain import build_micro_chain
from microlump.sim import estimate_matrix
from microlump.lumping import Partition
from oracle import counts, neighbors
from conftest import LETTERS


def test_index_zero_case():
    space = ConfigSpace(4, 3)
    assert space.index_of((0, 0, 0, 0)) == 0


def test_index_mixed_radix_example():
    # agent 1 least significant: 1 + 0*3 + 2*9
    space = ConfigSpace(3, 3)
    assert space.index_of((1, 0, 2)) == 19
    assert space.config_of(19) == (1, 0, 2)


@pytest.mark.parametrize("n, dtype", [(63, "int64"), (64, "object")])
def test_radix_holds_every_digit_weight_exactly(n, dtype):
    """Past int64 the weights are Python ints, for walks that make no
    array over the states."""
    radix = ConfigSpace(n, 2, cap=2 ** n).radix
    assert radix.dtype == dtype and radix.tolist() == [2 ** i for i in range(n)]


def test_eight_binary_configs_bijective():
    space = ConfigSpace(3, 2)
    seen = {space.index_of(cfg) for cfg in LETTERS.values()}
    assert seen == set(range(8))


@pytest.mark.parametrize("n,delta", [(3, 2), (4, 2), (2, 3), (3, 3), (5, 2), (2, 5)])
def test_roundtrip_full(n, delta):
    space = ConfigSpace(n, delta)
    for idx in range(space.size):
        assert space.index_of(space.config_of(idx)) == idx


def test_roundtrip_sampled_large():
    space = ConfigSpace(16, 2)
    rng = random.Random(7)
    for _ in range(500):
        idx = rng.randrange(space.size)
        assert space.index_of(space.config_of(idx)) == idx


def test_neighbors_of_d():
    space = ConfigSpace(3, 2, labels=("black", "white"))
    got = neighbors(space, LETTERS["d"])
    # ordered by agent, then by code
    assert got == [(0, (0, 0, 0)), (1, (1, 1, 0)), (2, (1, 0, 1))]


@pytest.mark.parametrize("n,delta", [(2, 3), (3, 2), (3, 3), (4, 2)])
def test_neighbor_count_and_symmetry(n, delta):
    space = ConfigSpace(n, delta)
    for idx in range(space.size):
        cfg = space.config_of(idx)
        nbrs = [y for _, y in neighbors(space, cfg)]
        assert len(nbrs) == (delta - 1) * n
        for y in nbrs:
            assert cfg in [z for _, z in neighbors(space, y)]


def test_counts_examples():
    space = ConfigSpace(3, 2)
    assert counts(space, (0, 1, 0)) == (2, 1)
    assert counts(space, (0, 0, 0)) == (3, 0)
    for cfg in LETTERS.values():
        assert sum(counts(space, cfg)) == 3


def test_counts_change_in_one_pair_per_edge():
    space = ConfigSpace(3, 3)
    for idx in range(space.size):
        cfg = space.config_of(idx)
        base = counts(space, cfg)
        for _, y in neighbors(space, cfg):
            diff = [a - b for a, b in zip(counts(space, y), base)]
            assert sorted(diff) == [-1] + [0] * (space.delta - 2) + [1]


def test_cap_guard():
    with pytest.raises(CapExceededError):
        ConfigSpace(20, 2, cap=1000)
    ConfigSpace(10, 2, cap=1024)  # exactly at the cap is fine


def test_cap_env_override(monkeypatch):
    monkeypatch.setenv("MICROLUMP_CAP", "100")
    with pytest.raises(CapExceededError):
        ConfigSpace(7, 2)
    monkeypatch.setenv("MICROLUMP_CAP", "128")
    ConfigSpace(7, 2)


def test_validation():
    space = ConfigSpace(3, 2)
    with pytest.raises(ValidationError):
        space.index_of((0, 1))
    with pytest.raises(ValidationError):
        space.index_of((0, 1, 2))
    with pytest.raises(ValidationError):
        space.config_of(8)
    with pytest.raises(ValidationError):
        ConfigSpace(3, 1)


def test_codes_matrix_matches_config_of():
    """Row i is config_of(i), in the narrowest unsigned type that holds
    every code, one contiguous column per agent."""
    for n, delta in [(4, 3), (1, 2), (1, 3), (1, 4), (1, 5), (2, 257)]:
        space = ConfigSpace(n, delta)
        codes = space.codes_matrix
        assert codes.shape == (space.size, n) and codes.flags.f_contiguous
        assert codes.dtype == (np.uint16 if delta > 256 else np.uint8)
        assert codes.tolist() == [list(space.config_of(idx)) for idx in range(space.size)]


def test_counts_matrix_matches_counts():
    """Count vectors read from the code rows, and kept by each state's
    smallest image over one class of every agent."""
    space = ConfigSpace(3, 3)
    low = space.smallest_images([0, 0, 0])
    for idx in range(space.size):
        want = counts(space, space.config_of(idx))
        assert tuple(map(space.codes_matrix[idx].tolist().count, range(3))) == want
        assert counts(space, space.config_of(int(low[idx]))) == want


def test_format_config():
    space = ConfigSpace(3, 2, labels=("white", "black"))
    assert space.format_config((0, 1, 1)) == "(white,black,black)"
    assert space.format_index(0) == "(white,white,white)"


def _voter3_with(choice):
    voter3 = builtin_voter(Topology.complete(3))
    return ModelSpec(name="bad", alphabet=voter3.alphabet, topology=voter3.topology,
                     rule=voter3.rule, choice=ChoiceDistribution(choice))


NON_INTEGRAL = {
    "edge key": (lambda: Topology(3, {(0, 1.5): 1, (1, 0): 1}), "malformed edge key (0, 1.5)"),
    "choice key": (lambda: _voter3_with({(0, 1): Fraction(1, 2), (0, 1.5): Fraction(1, 2)}),
                   "malformed choice key (0, 1.5)"),
    "partition member": (lambda: Partition([0.5, 1.7], [0, 2], ("a",)),
                         "state 0.5 is not an integer"),
    "simulate start": (lambda: simulate(builtin_voter(Topology.complete(3)), (0.5, 1, 0), 5, 1),
                       "attribute code 0.5 is not an integer"),
    "fixed code": (lambda: attr_group_fixing(3, 3, 0.5), "attribute code 0.5 is not an integer"),
    "moran code": (lambda: moran_partition(ConfigSpace(3, 3), 0.5),
                   "attribute code 0.5 is not an integer"),
    "point mass": (lambda: point_mass(3, 1.5), "state 1.5 is not an integer"),
    "nan code": (lambda: ConfigSpace(3, 2).index_of((0, float("nan"), 1)),
                 "attribute code nan is not an integer"),
    "text code": (lambda: ConfigSpace(3, 2).index_of(("1", 0, 0)),
                  "attribute code '1' is not an integer"),
}


@pytest.mark.parametrize("call, message", NON_INTEGRAL.values(), ids=NON_INTEGRAL)
def test_a_non_integral_agent_state_or_code_is_named(call, message):
    with pytest.raises(ValidationError) as err:
        call()
    assert str(err.value) == message


VOTER3 = builtin_voter(Topology.complete(3))
VOTER3_CHAIN = build_micro_chain(VOTER3)
NON_INTEGRAL_COUNTS = {
    "agent count": (lambda: ConfigSpace(2.5, 2), "agent count 2.5 is not an integer"),
    "code count": (lambda: ConfigSpace(2, 2.5), "code count 2.5 is not an integer"),
    "topology agents": (lambda: Topology(2.5, {(0, 1): 1, (1, 0): 1}),
                        "agent count 2.5 is not an integer"),
    "complete agents": (lambda: Topology.complete(2.5), "agent count 2.5 is not an integer"),
    "simulate steps": (lambda: simulate(VOTER3, (0, 1, 0), 2.5, 1),
                       "step count 2.5 is not an integer"),
    "simulate seed": (lambda: simulate(VOTER3, (0, 1, 0), 5, 1.5), "seed 1.5 is not an integer"),
    "estimate samples": (lambda: estimate_matrix(VOTER3, 2.5, 1),
                         "sample count 2.5 is not an integer"),
    "estimate seed": (lambda: estimate_matrix(VOTER3, 2, "1"), "seed '1' is not an integer"),
    "propagate steps": (lambda: propagate(VOTER3_CHAIN, point_mass(8, 1), 2.5),
                        "step count 2.5 is not an integer"),
    "profile steps": (lambda: commutation_profile(VOTER3_CHAIN, moran_partition(
        VOTER3_CHAIN.space, 0), point_mass(8, 1), float("nan")), "step count nan is not an integer"),
}


@pytest.mark.parametrize("call, message", NON_INTEGRAL_COUNTS.values(), ids=NON_INTEGRAL_COUNTS)
def test_a_non_integral_count_or_seed_is_named(call, message):
    with pytest.raises(ValidationError) as err:
        call()
    assert str(err.value) == message


def test_integral_counts_and_seeds_are_their_integers():
    assert ConfigSpace(3.0, Fraction(4, 2)) == ConfigSpace(3, 2)
    assert Topology.complete(3.0).pairs.tolist() == Topology.complete(3).pairs.tolist()
    run = simulate(VOTER3, (0, 1, 0), 5.0, np.float64(7.0))
    assert (run.steps, run.seed, run.states) == (5, 7, simulate(VOTER3, (0, 1, 0), 5, 7).states)
    report, _ = estimate_matrix(VOTER3, 2.0, 3.0)
    assert (report.samples_per_state, report.seed) == (2, 3)
    assert propagate(VOTER3_CHAIN, point_mass(8, 1), 2.0) == propagate(
        VOTER3_CHAIN, point_mass(8, 1), 2)


def test_integral_floats_and_fractions_are_their_integers():
    voter = builtin_voter(Topology.complete(3))
    assert (simulate(voter, (1.0, Fraction(2, 2), np.int64(0)), 5, 1).states
            == simulate(voter, (1, 1, 0), 5, 1).states)
    assert Partition([1.0, 0.0], [0, 2], ("a",)).blocks == ((1, 0),)
    assert attr_group_fixing(3, 3, 1.0) == attr_group_fixing(3, 3, 1)
    space = ConfigSpace(3, 3)
    assert moran_partition(space, 2.0).blocks == moran_partition(space, 2).blocks
    assert point_mass(3, np.float64(1.0)) == point_mass(3, 1)
    assert ConfigSpace(3, 2).index_of((1.0, 0, 1)) == 5
    assert (Topology(3, {(0, 1.0): 1, (1.0, 0): 1}).pairs.tolist()
            == Topology(3, {(0, 1): 1, (1, 0): 1}).pairs.tolist())


def test_a_space_needs_an_agent_and_distinct_labels():
    with pytest.raises(ValidationError, match="^need at least one agent, got 0$"):
        ConfigSpace(0, 2)
    with pytest.raises(ValidationError,
                       match="^labels must be distinct and one per attribute code$"):
        ConfigSpace(2, 2, labels=("a", "a"))
