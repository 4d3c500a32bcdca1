import random
from fractions import Fraction

import numpy as np
import pytest

from microlump import (ConfigSpace, Topology, UpdateRule, build_micro_chain, builtin_voter)

# Letter shorthand for the eight three-agent binary configurations, used
# throughout the tests. black is code 0, white is code 1; the tuple lists
# agents 1..3 and agent 1 is the least significant index digit.
LETTERS = {
    "a": (0, 0, 0),
    "b": (0, 0, 1),
    "c": (0, 1, 0),
    "d": (1, 0, 0),
    "e": (0, 1, 1),
    "f": (1, 0, 1),
    "g": (1, 1, 0),
    "h": (1, 1, 1),
}


# Four agents on a path, each flipping its own code whatever its drawn
# neighbour holds. The draws are not SN-invariant (an end agent's one
# neighbour is drawn with probability 1/4, an inner agent's two with 1/8
# each), so the model-level certificate fails, but every agent flips with
# probability 1/4 and the chain is SN-symmetric.
PATH4_FLIP = """\
[model]
name = path4-flip
attributes = a, b

[topology]
agents 4
undirected
1 2 1
2 3 1
3 4 1

[rule]
arity 2
lambda flip 1
a a flip -> b
a b flip -> b
b a flip -> a
b b flip -> a

[choice]
from-topology uniform
"""


def letter_index(letter):
    space = ConfigSpace(3, 2)
    return space.index_of(LETTERS[letter])


def path_topology(n):
    edges = {}
    for i in range(n - 1):
        edges[(i, i + 1)] = Fraction(1)
        edges[(i + 1, i)] = Fraction(1)
    return Topology(n, edges)


def star_topology(n):
    """Agent 1 in the center, undirected spokes to everyone else."""
    edges = {}
    for leaf in range(1, n):
        edges[(0, leaf)] = Fraction(1)
        edges[(leaf, 0)] = Fraction(1)
    return Topology(n, edges)


def shift_rule():
    """Arity 1, three codes: the focal agent moves from c to c + 1 mod 3."""
    return UpdateRule(arity=1, options=(("shift", 1),),
                      table={(c, 0): (c + 1) % 3 for c in range(3)}, delta=3)


def assert_outcome_holds_the_table(rule):
    outcome = rule.outcome
    assert outcome.shape == (rule.delta,) * rule.arity + (len(rule.options),)
    assert outcome.dtype == np.int64
    for key, new in rule.table.items():
        assert outcome[key] == new


def random_topology(n, seed):
    """Seeded directed graph; every agent keeps at least one out-edge."""
    rng = random.Random(seed)
    edges = {}
    for i in range(n):
        others = [j for j in range(n) if j != i]
        for j in rng.sample(others, rng.randint(1, len(others))):
            edges[(i, j)] = Fraction(rng.randint(1, 4))
    return Topology(n, edges)


@pytest.fixture(scope="session")
def voter3():
    return builtin_voter(Topology.complete(3))


@pytest.fixture(scope="session")
def voter3_chain(voter3):
    return build_micro_chain(voter3)


@pytest.fixture(scope="session")
def path3():
    return builtin_voter(path_topology(3), name="path3")


@pytest.fixture(scope="session")
def path3_chain(path3):
    return build_micro_chain(path3)


@pytest.fixture(scope="session")
def star3():
    return builtin_voter(star_topology(3), name="star3")


@pytest.fixture(scope="session")
def imitation3x3():
    """Three agents, three attributes, complete mixing, imitation rule."""
    return builtin_voter(Topology.complete(3), labels=("a", "b", "c"),
                         name="imitation3x3")


@pytest.fixture(scope="session")
def imitation3x3_chain(imitation3x3):
    return build_micro_chain(imitation3x3)


@pytest.fixture(scope="session")
def majority3():
    from pathlib import Path
    from microlump import load_model
    samples = Path(__file__).resolve().parent.parent / "samples"
    return load_model(samples / "majority3.model")
