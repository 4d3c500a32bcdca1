import io
import re
from fractions import Fraction

import numpy as np
import pytest

from microlump import (ConfigSpace, NotLumpableError, Topology,
                       ValidationError, agent_symmetric_group,
                       build_micro_chain, builtin_voter, check_lumpable,
                       frequency_partition, half_hypercube_partition,
                       induced_partition, lump, moran_partition, orbits,
                       parse_presets, read_partition, singleton_partition,
                       write_partition)
from microlump.lumping import Partition, block_row_sums
import oracle
from oracle import apply, entry, partition, same_blocks
from conftest import letter_index


def test_frequency_partition_binary(voter3_chain):
    part = frequency_partition(voter3_chain.space)
    assert part.n_blocks == 4
    assert [len(b) for b in part.blocks] == [1, 3, 3, 1]
    assert part.labels[0] == "⟨3,0⟩"


@pytest.mark.parametrize("n,delta,expect", [
    (3, 2, 4), (5, 2, 6), (3, 3, 10), (4, 3, 15), (8, 3, 45), (2, 4, 10),
])
def test_frequency_block_counts(n, delta, expect):
    space = ConfigSpace(n, delta)
    assert frequency_partition(space).n_blocks == expect


@pytest.mark.parametrize("n,delta", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (4, 3)])
def test_frequency_equals_agent_orbits(n, delta):
    space = ConfigSpace(n, delta)
    part = frequency_partition(space)
    orb = orbits(space, agent_symmetric_group(n, delta))
    assert same_blocks(part, orb)


def test_moran_binary_equals_frequency():
    space = ConfigSpace(4, 2)
    assert same_blocks(moran_partition(space, 0), frequency_partition(space))


def test_moran_three_attrs_block_sizes():
    space = ConfigSpace(2, 3)
    part = moran_partition(space, 1)
    assert [len(b) for b in part.blocks] == [4, 4, 1]
    assert part.labels == ("X_0", "X_1", "X_2")


def test_moran_refuses_a_code_past_the_alphabet():
    with pytest.raises(ValidationError, match="^attribute code 2 out of range$"):
        moran_partition(ConfigSpace(3, 2), 2)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_moran_is_coarsening_of_mixed_orbits(n):
    """The mixed agent/attribute orbit partition refines the line states:
    orbits cannot join states whose non-distinguished counts differ as
    multisets, so each X_k is a union of several orbits."""
    space = ConfigSpace(n, 3)
    part = moran_partition(space, 1)
    orb = orbits(space, parse_presets("SN,Sdelta-1:1", n, 3))
    for block in orb.blocks:
        assert len({part.block_of[x] for x in block}) == 1
    # and joining orbits by their distinguished count recovers the line
    joined = {}
    for block in orb.blocks:
        joined.setdefault(part.block_of[block[0]], set()).update(block)
    assert {frozenset(v) for v in joined.values()} == {
        frozenset(b) for b in part.blocks}


def test_half_hypercube_blocks():
    space = ConfigSpace(3, 2)
    part = half_hypercube_partition(space)
    assert part.n_blocks == 2
    assert set(part.blocks[0]) == {letter_index("a"), letter_index("h")}
    assert len(part.blocks[1]) == 6
    space4 = ConfigSpace(4, 2)
    assert half_hypercube_partition(space4).n_blocks == 3
    with pytest.raises(ValidationError):
        half_hypercube_partition(ConfigSpace(2, 3))


def test_half_hypercube_equals_full_group_orbits():
    space = ConfigSpace(4, 2)
    part = half_hypercube_partition(space)
    orb = orbits(space, parse_presets("SN,flip", 4, 2))
    assert same_blocks(part, orb)


def test_check_lumpable_complete(voter3_chain):
    part = frequency_partition(voter3_chain.space)
    verdict = check_lumpable(voter3_chain, part)
    assert verdict
    # every mixed state with one white agent sends 1/3 to the all-black block
    for letter in "bcd":
        sums = block_row_sums(voter3_chain, part, [letter_index(letter)])
        assert entry(sums, 0, 0) == Fraction(1, 3)


def test_check_lumpable_path_witness(path3_chain):
    part = frequency_partition(path3_chain.space)
    verdict = check_lumpable(path3_chain, part, exhaustive=True)
    assert not verdict
    sums = {(v.ref_sum, v.state_sum) for v in verdict.violations}
    assert (Fraction(1, 6), Fraction(2, 3)) in sums
    # the documented mismatch: b and c disagree on the two-white block
    b, c = letter_index("b"), letter_index("c")
    two_white = part.block_of[letter_index("e")]
    assert entry(block_row_sums(path3_chain, part, [b]), 0, two_white) == Fraction(1, 6)
    assert entry(block_row_sums(path3_chain, part, [c]), 0, two_white) == Fraction(2, 3)


def test_one_block_is_exactly_lumpable(path3_chain):
    """No entry leaves the block, so the exact test has no block sums."""
    part = partition((tuple(range(path3_chain.n_states)),), ("all",))
    assert check_lumpable(path3_chain, part, exhaustive=True)
    assert entry(lump(path3_chain, part), 0, 0) == 1


def test_singleton_partition_always_lumpable(path3_chain):
    part = singleton_partition(path3_chain.n_states)
    assert check_lumpable(path3_chain, part)
    macro = lump(path3_chain, part)
    assert macro.rows == path3_chain.rows


def test_lump_macro_values(voter3_chain):
    part = frequency_partition(voter3_chain.space)
    macro = lump(voter3_chain, part)
    one_white = part.labels.index("⟨2,1⟩")
    row = {part.labels[l]: p for l, p in macro.rows[one_white]}
    assert row == {"⟨3,0⟩": Fraction(1, 3),
                   "⟨2,1⟩": Fraction(1, 3),
                   "⟨1,2⟩": Fraction(1, 3)}
    all_black = part.labels.index("⟨3,0⟩")
    assert entry(macro, all_black, all_black) == 1
    for row_ in macro.rows:
        assert sum(p for _, p in row_) == 1


def test_lump_raises_with_witness(path3_chain):
    part = frequency_partition(path3_chain.space)
    with pytest.raises(NotLumpableError) as err:
        lump(path3_chain, part)
    assert err.value.witness is not None
    assert "2/3" in str(err.value)


def test_moran_pairs_lump_further():
    """On the complete imitation chain the line is symmetric under
    k -> N-k, so joining the mirrored states is again lumpable."""
    spec = builtin_voter(Topology.complete(5))
    chain = build_micro_chain(spec)
    mor = moran_partition(chain.space, 0)
    macro = lump(chain, mor)
    n = 5
    for k in range(1, n):
        assert entry(macro, k, k + 1) == entry(macro, n - k, n - k - 1)
    pairs = induced_partition(mor, half_hypercube_partition(chain.space))
    assert check_lumpable(macro, pairs)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_nested_lumping_consistency(n):
    spec = builtin_voter(Topology.complete(n))
    chain = build_micro_chain(spec)
    fine = moran_partition(chain.space, 0)
    coarse = half_hypercube_partition(chain.space)
    direct = lump(chain, coarse)
    via = lump(lump(chain, fine), induced_partition(fine, coarse))
    assert via.rows == direct.rows


def test_half_hypercube_lumpable_with_stay_two_thirds(voter3_chain):
    part = half_hypercube_partition(voter3_chain.space)
    macro = lump(voter3_chain, part)
    mixed = part.labels.index("Y_1")
    assert entry(macro, mixed, mixed) == Fraction(2, 3)


def test_induced_partition_requires_refinement():
    fine = partition(((0, 1), (2, 3)), ("u", "v"))
    coarse = partition(((0, 2), (1, 3)), ("p", "q"))
    with pytest.raises(ValidationError, match="refinement"):
        induced_partition(fine, coarse)


def test_partition_validation():
    with pytest.raises(ValidationError):
        partition(((0, 1), (1, 2)), ("x", "y"))  # overlap
    with pytest.raises(ValidationError):
        partition(((0, 1), (3,)), ("x", "y"))  # gap
    with pytest.raises(ValidationError):
        partition(((0,), (1,)), ("x", "x"))  # duplicate label
    cover = "blocks must cover exactly the states 0..n-1"
    cases = [
        (((0, -1), (1,)), cover),
        (((0, 1), (10**12,)), cover),  # an index is not an array size
        (((2**63, 0), (1, 2**63)), f"state {2**63} appears in two blocks"),
        (((0, 10**30), (10**30, 1)), f"state {10**30} appears in two blocks"),
        (((0, 10**30), (-10**30, 1)), cover),
        # read block by block: the empty block comes before the repeat
        (((0, 1), (), (1, 2)), "block 'y' is empty"),
        (((0, 1), (1, 2), ()), "state 1 appears in two blocks"),
        # the state repeated first, not the smallest repeated one
        (((3, 2, 0), (3, 2, 1)), "state 3 appears in two blocks"),
        (((0, 1), (1,), (1, 0)), "state 1 appears in two blocks"),
    ]
    for blocks, message in cases:
        labels = ("x", "y", "z")[:len(blocks)]
        for build in (partition, oracle.TuplePartition):
            with pytest.raises(ValidationError) as err:
                build(blocks, labels)
            assert str(err.value) == message


def test_partition_file_roundtrip(voter3_chain):
    part = frequency_partition(voter3_chain.space)
    buf = io.StringIO()
    write_partition(part, buf)
    # written from slices of `members`: nothing is cached on the partition
    assert set(vars(part)) == {"members", "indptr", "labels"}
    again = read_partition(buf.getvalue())
    assert again.blocks == part.blocks
    assert again.labels == part.labels


@pytest.mark.parametrize("labels", [(" a", "b"), ("a:b", "c"), ("x # y", "z"), ("p\nq", "r")])
def test_a_label_that_would_not_read_back_is_refused_unwritten(labels):
    """Outer blanks would be stripped, and `:`, `#` or a line break would
    break the line; the first such label is named and nothing is written."""
    buf = io.StringIO()
    with pytest.raises(ValidationError, match=re.escape(repr(labels[0]))):
        write_partition(Partition(np.arange(4), [0, 2, 4], labels), buf)
    assert buf.getvalue() == ""


def test_the_empty_label_round_trips():
    buf = io.StringIO()
    write_partition(Partition(np.arange(4), [0, 2, 4], ("", "b")), buf)
    assert buf.getvalue() == ": 0 1\nb: 2 3\n"
    again = read_partition(buf.getvalue())
    assert again.labels == ("", "b") and again.blocks == ((0, 1), (2, 3))


def test_partition_chain_size_mismatch(voter3_chain):
    small = singleton_partition(4)
    with pytest.raises(ValidationError, match="covers 4 states"):
        check_lumpable(voter3_chain, small)


def test_tolerance_mode_for_float_chains():
    from microlump import read_sparse
    text = ("states=4 nnz=8\n"
            "0 1 0.5\n0 2 0.5\n"
            "1 0 0.30000000001\n1 3 0.69999999999\n"
            "2 0 0.3\n2 3 0.7\n"
            "3 1 0.5\n3 2 0.5\n")
    chain = read_sparse(text)
    assert not chain.exact
    part = partition(((0,), (3,), (1, 2)), ("lo", "hi", "mids"))
    assert not check_lumpable(chain, part)          # exact mode sees the jitter
    assert check_lumpable(chain, part, tol=1e-9)    # tolerance mode accepts it


def _reference_blocks(keys, by_first_member):
    """Loop grouping of states 0..n-1 by key: blocks ordered by smallest
    member or by key, members ascending."""
    groups = {}
    for x, key in enumerate(keys):
        groups.setdefault(key, []).append(x)
    order = groups if by_first_member else sorted(groups)
    return tuple(tuple(groups[key]) for key in order)


def _count_label(counts):
    return "⟨" + ",".join(map(str, counts)) + "⟩"


@pytest.mark.parametrize("n,delta", [(3, 2), (6, 2), (3, 3), (4, 3), (2, 4)])
def test_partitions_match_the_loop_reference(n, delta):
    space = ConfigSpace(n, delta)
    counts = [oracle.counts(space, space.config_of(x)) for x in range(space.size)]
    freq = frequency_partition(space)
    assert freq.blocks == _reference_blocks(counts, by_first_member=True)
    assert freq.labels == tuple(_count_label(counts[b[0]]) for b in freq.blocks)
    for code in range(delta):
        moran = moran_partition(space, code)
        assert moran.blocks == _reference_blocks([c[code] for c in counts], False)
    if delta == 2:
        half = half_hypercube_partition(space)
        assert half.blocks == _reference_blocks([min(c[0], n - c[0]) for c in counts], False)
    for preset in ("SN", "Sdelta", "full") + (("flip",) if delta == 2 else ()):
        gens = parse_presets(preset, n, delta)
        # orbit of x by closing {x} under the generators
        orbit_of = {}
        for x in range(space.size):
            if x in orbit_of:
                continue
            orbit, todo = {x}, [x]
            while todo:
                cfg = space.config_of(todo.pop())
                for g in gens.perms:
                    y = space.index_of(apply(g, cfg))
                    if y not in orbit:
                        orbit.add(y)
                        todo.append(y)
            for y in orbit:
                orbit_of[y] = min(orbit)
        part = orbits(space, gens)
        assert part.blocks == _reference_blocks([orbit_of[x] for x in range(space.size)], True)
        for bid, block in enumerate(part.blocks):
            whole = set(block) == {x for x in range(space.size)
                                   if counts[x] == counts[block[0]]}
            assert part.labels[bid] == (_count_label(counts[block[0]]) if whole
                                        else f"O{bid}")


def test_partition_shapes_are_checked():
    with pytest.raises(ValidationError, match="^need exactly one label per block$"):
        Partition([0, 1], [0, 2], ("a", "b"))


@pytest.mark.parametrize("members, indptr, labels, end", [
    ([0, 1], [1, 2], ("a",), 2),               # not from 0: state 0 in no block
    ([0, 1, 2], [0, 1], ("a",), 3),            # short of the members
    ([0, 1], [0, 2, 1, 2], ("a", "b", "c"), 2),  # decreasing
    ([0, 1], [0, 2 ** 70, 2], ("a", "b"), 2),    # past int64, then decreasing
    ([0, 1], [0, -2 ** 70, 2], ("a", "b"), 2),   # below int64: decreasing
])
def test_partition_bounds_are_checked(members, indptr, labels, end):
    with pytest.raises(ValidationError) as err:
        Partition(members, indptr, labels)
    assert str(err.value) == f"indptr must start at 0, end at {end} and never decrease"
    with pytest.raises(ValidationError, match="^partitions cover different state counts$"):
        induced_partition(singleton_partition(2), singleton_partition(3))


@pytest.mark.parametrize("indptr, bad", [([0, 1.5, 2], "1.5"), ([0.0, 1.0, 2.5], "2.5"),
                                         ([0, None, 2], "None")])
def test_partition_bounds_must_be_integers(indptr, bad):
    """As members are: integral floats are taken, anything else refused."""
    with pytest.raises(ValidationError, match=f"^indptr {bad} is not an integer$"):
        Partition([0, 1], indptr, ("a", "b"))
    assert Partition([0, 1], [0.0, 1.0, 2.0], ("a", "b")).indptr.dtype == np.int64
