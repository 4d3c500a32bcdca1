import gc
import io
from fractions import Fraction

import numpy as np
import pytest

from microlump import (Chain, ConfigSpace, DocumentParseError, Topology,
                       ValidationError, build_micro_chain, builtin_voter,
                       enumerate_maps, read_sparse, write_sparse)
from microlump.chain import draw_targets, validate_stochastic
from oracle import entry, grammar_arcs, transition_prob
from conftest import LETTERS, letter_index

import oracle


def by_pair(spec):
    return {(m.agents[0] + 1, m.agents[1] + 1): m for m in enumerate_maps(spec)}


def test_six_maps_with_equal_weight(voter3):
    maps = by_pair(voter3)
    assert set(maps) == {(1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)}
    assert all(m.probability == Fraction(1, 6) for m in maps.values())


@pytest.mark.parametrize("enabled", [True, False])
def test_enumerate_maps_leaves_the_collector_as_it_found_it(voter3, enabled):
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert len(enumerate_maps(voter3)) == 6
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def actions(spec):
    """Each map's action as a table of target indices, by 1-based pair."""
    space = ConfigSpace(spec.n_agents, spec.delta)
    return {pair: t.tolist() for pair, t in zip(by_pair(spec), draw_targets(spec, space))}


def test_map_12_action(voter3, voter3_chain):
    action = actions(voter3)[(1, 2)]
    assert action[letter_index("c")] == letter_index("g")
    for fixed in "abgh":
        assert action[letter_index(fixed)] == letter_index(fixed)


def test_map_23_fixes_d(voter3):
    # agents 2 and 3 agree in d, so the copy changes nothing
    assert actions(voter3)[(2, 3)][letter_index("d")] == letter_index("d")


def test_homogeneous_fixed_by_every_map(voter3):
    for action in actions(voter3).values():
        assert action[letter_index("a")] == letter_index("a")
        assert action[letter_index("h")] == letter_index("h")


def test_row_d(voter3_chain):
    space = voter3_chain.space
    row = dict(voter3_chain.rows[letter_index("d")])
    expect = {
        letter_index("a"): Fraction(1, 3),
        letter_index("d"): Fraction(1, 3),
        letter_index("f"): Fraction(1, 6),
        letter_index("g"): Fraction(1, 6),
    }
    assert row == expect


def test_absorbing_rows(voter3_chain):
    one = Fraction(1)
    assert dict(voter3_chain.rows[letter_index("a")]) == {letter_index("a"): one}
    assert dict(voter3_chain.rows[letter_index("h")]) == {letter_index("h"): one}


def test_path_row_c(path3_chain):
    row = dict(path3_chain.rows[letter_index("c")])
    expect = {
        letter_index("a"): Fraction(1, 3),
        letter_index("g"): Fraction(1, 3),
        letter_index("e"): Fraction(1, 3),
    }
    assert row == expect


def test_transition_prob(voter3_chain):
    assert transition_prob(voter3_chain, LETTERS["d"], LETTERS["a"]) == Fraction(1, 3)
    assert transition_prob(voter3_chain, LETTERS["a"], LETTERS["a"]) == 1
    # e and d differ in two agents: a single step can never join them
    assert transition_prob(voter3_chain, LETTERS["d"], LETTERS["e"]) == 0


def test_grammar_arcs(voter3_chain):
    arcs = grammar_arcs(voter3_chain)
    assert set(arcs) == {(x, y) for x, row in enumerate(voter3_chain.rows)
                         for y, _ in row}
    unit_loops = [x for x in range(8)
                  if entry(voter3_chain, x, x) == 1]
    assert sorted(unit_loops) == [letter_index("a"), letter_index("h")]
    space = voter3_chain.space
    for x, y in arcs:
        if x != y:
            cx, cy = space.config_of(x), space.config_of(y)
            assert sum(1 for u, v in zip(cx, cy) if u != v) == 1


def hamming_distance(cx, cy):
    return sum(1 for u, v in zip(cx, cy) if u != v)


@pytest.mark.parametrize("spec_name", ["voter3", "path3", "star3",
                                       "imitation3x3", "majority3"])
def test_rows_exactly_stochastic_and_local(spec_name, request):
    spec = request.getfixturevalue(spec_name)
    chain = build_micro_chain(spec)
    space = chain.space
    bound = (space.delta - 1) * space.n_agents + 1
    for x, row in enumerate(chain.rows):
        assert sum(p for _, p in row) == 1
        assert len(row) <= bound
        cx = space.config_of(x)
        for y, p in row:
            assert p > 0
            if y != x:
                assert hamming_distance(cx, space.config_of(y)) == 1


@pytest.mark.parametrize("spec_name", ["voter3", "path3", "star3",
                                       "imitation3x3", "majority3"])
def test_matrix_agrees_with_materialized_maps(spec_name, request):
    """Brute-force route: sum the weights of every map sending x to y and
    compare against the row-assembled matrix, entry for entry."""
    spec = request.getfixturevalue(spec_name)
    chain = build_micro_chain(spec)
    space = chain.space
    brute = [dict() for _ in range(space.size)]
    for m in enumerate_maps(spec):
        action = oracle.materialize(spec, m, space)
        for x, y in enumerate(action):
            brute[x][y] = brute[x].get(y, Fraction(0)) + m.probability
    for x in range(space.size):
        assert brute[x] == dict(chain.rows[x])


def test_voter_flip_symmetry_random_topologies():
    from microlump import flip_generator, is_chain_symmetric
    from conftest import random_topology
    for seed in (1, 2, 3):
        spec = builtin_voter(random_topology(4, seed))
        chain = build_micro_chain(spec)
        assert is_chain_symmetric(chain, flip_generator(4, 2))


def test_sparse_roundtrip(voter3_chain):
    buf = io.StringIO()
    write_sparse(voter3_chain, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == f"states=8 nnz={voter3_chain.nnz()}"
    imported = read_sparse(text)
    assert imported.exact
    assert imported.rows == voter3_chain.rows
    buf2 = io.StringIO()
    write_sparse(imported, buf2)
    assert buf2.getvalue() == text


def test_sparse_roundtrip_beyond_int64():
    """Edge weights summing to large primes put the common denominator
    past 2**63: the writer's `%d` takes the Python-int numerators, and the
    text reads back to the same rows and bytes."""
    p1, p2, p3 = 2147483647, 2147483629, 2147483587
    edges = {(0, 1): 1, (0, 2): p1 - 1, (1, 0): 1, (1, 2): p2 - 1, (2, 0): 1, (2, 1): p3 - 1}
    chain = build_micro_chain(builtin_voter(Topology(3, edges)))
    assert chain.nums.dtype == object and chain.denom > 2 ** 63
    buf = io.StringIO()
    write_sparse(chain, buf)
    imported = read_sparse(buf.getvalue())
    assert imported.nums.dtype == object and imported.rows == chain.rows
    again = io.StringIO()
    write_sparse(imported, again)
    assert again.getvalue() == buf.getvalue()


def test_sparse_import_float_entries():
    text = "states=2 nnz=4\n0 0 0.25\n0 1 0.75\n1 0 0.5\n1 1 0.5\n"
    imported = read_sparse(text)
    assert not imported.exact
    assert entry(imported, 0, 1) == Fraction(3, 4)


def test_an_inexact_chain_reads_back_inexact():
    """A decimal import is written as ratios under an `exact=0` header, and
    reads back, here and in the references, to the same rows, still
    inexact, and the same bytes."""
    imported = read_sparse("states=2 nnz=3\n0 0 0.3333333333\n0 1 0.6666666666\n1 1 1\n")
    assert not imported.exact
    buf = io.StringIO()
    write_sparse(imported, buf)
    assert buf.getvalue().splitlines()[0] == "states=2 nnz=3 exact=0"
    again = read_sparse(buf.getvalue())
    assert not again.exact and again.rows == imported.rows
    assert oracle.read_sparse(buf.getvalue()) == (imported.rows, False)
    out = io.StringIO()
    write_sparse(again, out)
    assert out.getvalue() == buf.getvalue()


def test_a_bare_integer_entry_is_exact():
    """Only a point or an exponent makes a value a decimal: a bare integer
    is a ratio over 1, here and in the reference reader."""
    text = "states=2 nnz=2\n0 1 1\n1 1 1\n"
    chain = read_sparse(text)
    assert chain.exact and oracle.read_sparse(text) == (chain.rows, True)
    buf = io.StringIO()
    write_sparse(chain, buf)
    assert buf.getvalue() == "states=2 nnz=2\n0 1 1/1\n1 1 1/1\n"
    for text in ("states=1 nnz=1\n0 0 1.0\n", "states=1 nnz=1\n0 0 1E0\n"):
        assert not read_sparse(text).exact


def test_sparse_import_rejects_bad_rows():
    with pytest.raises(ValidationError, match="sums to"):
        read_sparse("states=1 nnz=1\n0 0 1/2\n")
    with pytest.raises(DocumentParseError):
        read_sparse("states=2 nnz=2\n0 1 1/2\n0 0 1/2\n")  # out of order
    with pytest.raises(DocumentParseError):
        read_sparse("nonsense\n")


@pytest.mark.parametrize("value", ["1/2", "0.5"], ids=["byte-gate", "line-by-line"])
@pytest.mark.parametrize("second", ["0 0", "0 1"], ids=["descending", "repeated"])
def test_entries_out_of_order_are_refused_with_their_line(second, value):
    """The reader alone checks column order: a ratio line in the writer's
    shape is flagged by the byte gate, a decimal one by `_entry`."""
    text = f"states=2 nnz=3\n0 1 {value}\n{second} {value}\n1 1 1/1\n"
    with pytest.raises(DocumentParseError, match="^line 3: entries must be strictly ascending"):
        read_sparse(text)


def test_validate_stochastic_rejects_negative():
    # rows ((0, 3/2), (1, -1/2)) and ((1, 1),) over the denominator 2
    chain = Chain(indptr=np.array([0, 2, 3]), cols=np.array([0, 1, 1]),
                  nums=np.array([3, -1, 2]), denom=2)
    with pytest.raises(ValidationError, match="negative"):
        validate_stochastic(chain)


def test_build_respects_cap():
    from microlump import CapExceededError
    spec = builtin_voter(Topology.complete(5))
    with pytest.raises(CapExceededError):
        build_micro_chain(spec, cap=16)


def test_majority_rows_hand_checked(majority3):
    """Spot check one row of the two-option rule against a hand count.

    From d = (white,black,black): triples (1,2,3) and (1,3,2) turn agent 1
    black under both branches (1/6 each to a). The copy branch on (2,1,3)
    turns agent 2 white (g, weight 1/6 * 1/3) and on (3,1,2) turns agent 3
    white (f, same weight); every other draw changes nothing.
    """
    chain = build_micro_chain(majority3)
    row = dict(chain.rows[letter_index("d")])
    expect = {
        letter_index("a"): Fraction(1, 3),
        letter_index("g"): Fraction(1, 18),
        letter_index("f"): Fraction(1, 18),
        letter_index("d"): Fraction(5, 9),
    }
    assert row == expect
