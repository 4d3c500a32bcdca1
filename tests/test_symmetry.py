import dataclasses
import io
import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from microlump import (Alphabet, ChoiceDistribution, ConfigSpace, GeneratorSet, ModelSpec,
                       SpacePermutation, Topology, UpdateRule,
                       ValidationError, agent_symmetric_group,
                       build_micro_chain, builtin_voter, certify,
                       is_chain_symmetric, lump, orbits, parse_generator_file,
                       parse_model, parse_presets, read_sparse, write_sparse)
from microlump.errors import DocumentParseError
from oracle import apply, compose, entry, inverse, partition
from conftest import LETTERS, PATH4_FLIP, letter_index, shift_rule


def test_agent_swap_two_agents():
    swap = SpacePermutation((1, 0), (0, 1, 2))
    assert apply(swap, (0, 2)) == (2, 0)
    assert apply(swap, (1, 1)) == (1, 1)


def test_attr_swap_reverses_labels():
    # swap the first and third attribute codes: abc -> cba pattern-wise
    perm = SpacePermutation((0, 1, 2), (2, 1, 0))
    assert apply(perm, (0, 1, 2)) == (2, 1, 0)


def test_identity_fixes_everything():
    ident = SpacePermutation.identity(3, 2)
    for cfg in LETTERS.values():
        assert apply(ident, cfg) == cfg


def rand_perm(rng, n):
    p = list(range(n))
    rng.shuffle(p)
    return tuple(p)


def test_compose_matches_sequential_application():
    rng = random.Random(11)
    for _ in range(50):
        g = SpacePermutation(rand_perm(rng, 4), rand_perm(rng, 3))
        h = SpacePermutation(rand_perm(rng, 4), rand_perm(rng, 3))
        cfg = tuple(rng.randrange(3) for _ in range(4))
        assert apply(compose(g, h), cfg) == apply(g, apply(h, cfg))


def test_inverse_roundtrip():
    rng = random.Random(13)
    for _ in range(50):
        g = SpacePermutation(rand_perm(rng, 5), rand_perm(rng, 2))
        cfg = tuple(rng.randrange(2) for _ in range(5))
        assert apply(inverse(g), apply(g, cfg)) == cfg


def test_index_map_matches_apply():
    space = ConfigSpace(3, 3)
    rng = random.Random(17)
    for _ in range(20):
        g = SpacePermutation(rand_perm(rng, 3), rand_perm(rng, 3))
        image = g.index_map(space)
        for idx in range(space.size):
            assert int(image[idx]) == space.index_of(apply(g, space.config_of(idx)))


def test_orbits_agent_group_binary():
    space = ConfigSpace(3, 2)
    part = orbits(space, agent_symmetric_group(3, 2))
    blocks = {frozenset(b) for b in part.blocks}
    expect = {
        frozenset({letter_index("a")}),
        frozenset({letter_index(l) for l in "bcd"}),
        frozenset({letter_index(l) for l in "efg"}),
        frozenset({letter_index("h")}),
    }
    assert blocks == expect
    assert part.labels == ("⟨3,0⟩", "⟨2,1⟩",
                           "⟨1,2⟩", "⟨0,3⟩")


def test_orbits_full_group_binary():
    space = ConfigSpace(3, 2)
    part = orbits(space, parse_presets("SN,flip", 3, 2))
    blocks = {frozenset(b) for b in part.blocks}
    assert blocks == {
        frozenset({letter_index("a"), letter_index("h")}),
        frozenset({letter_index(l) for l in "bcdefg"}),
    }


@pytest.mark.parametrize("n", range(2, 7))
def test_orbit_counts_three_attrs(n):
    space = ConfigSpace(n, 3)
    part = orbits(space, agent_symmetric_group(n, 3))
    assert part.n_blocks == (n + 1) * (n + 2) // 2


def test_orbits_identity_generators_are_singletons():
    from microlump import GeneratorSet
    space = ConfigSpace(3, 2)
    ident = GeneratorSet("id", (SpacePermutation.identity(3, 2),))
    part = orbits(space, ident)
    assert part.n_blocks == space.size
    assert len(set(part.labels)) == space.size
    # whole-class singletons keep the count label, the rest are numbered
    assert part.labels[letter_index("a")] == "⟨3,0⟩"
    assert part.labels[letter_index("c")].startswith("O")


def test_the_trivial_group_has_singleton_orbits_and_passes_both_tests(path3, path3_chain):
    """No generators: every state is its own orbit, labeled as under the
    identity, and neither symmetry test has anything to refuse."""
    trivial = GeneratorSet("trivial", ())
    part = orbits(path3_chain.space, trivial)
    ident = orbits(path3_chain.space, GeneratorSet("id", (SpacePermutation.identity(3, 2),)))
    assert (part.blocks, part.labels) == (ident.blocks, ident.labels)
    assert part.n_blocks == path3_chain.n_states
    assert certify(path3, trivial)
    assert is_chain_symmetric(path3_chain, trivial)


def test_agent_orbits_build_no_index_map_per_generator():
    """SN's 15 transpositions at delta=2, N=16 collapse to count classes:
    the peak stays below half of what their index maps alone would hold."""
    space = ConfigSpace(16, 2)
    space.codes_matrix  # cached before the measurement
    gens = agent_symmetric_group(16, 2)
    tracemalloc.start()
    try:
        part = orbits(space, gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert part.n_blocks == 17
    assert peak < len(gens.perms) * space.size * 8 // 2


def test_orbit_blocks_closed_under_generators():
    space = ConfigSpace(4, 2)
    gens = parse_presets("SN,flip", 4, 2)
    part = orbits(space, gens)
    for perm in gens.perms:
        image = perm.index_map(space)
        for block in part.blocks:
            assert {int(image[x]) for x in block} == set(block)


def test_chain_symmetric_complete_voter(voter3_chain):
    assert is_chain_symmetric(voter3_chain, agent_symmetric_group(3, 2))


def test_chain_not_symmetric_path(path3_chain):
    verdict = is_chain_symmetric(path3_chain, agent_symmetric_group(3, 2))
    assert not verdict
    w = verdict.witness
    # the witness must name a genuinely differing entry
    assert entry(path3_chain, w.x, w.y) == w.p_xy
    assert entry(path3_chain, w.image_x, w.image_y) == w.p_image
    assert w.p_xy != w.p_image
    # the known mismatch pair: swapping agents 1,2 fixes b but moves e to f
    b, e, f = (letter_index(l) for l in "bef")
    assert entry(path3_chain, b, e) == Fraction(1, 6)
    assert entry(path3_chain, b, f) == 0


def test_chains_without_a_space_are_refused_before_any_work(voter3_chain):
    """A chain read from a file or lumped carries no configuration space."""
    buf = io.StringIO()
    write_sparse(voter3_chain, buf)
    part = orbits(voter3_chain.space, agent_symmetric_group(3, 2))
    for chain in (read_sparse(buf.getvalue()), lump(voter3_chain, part)):
        with pytest.raises(ValidationError, match="no configuration space"):
            is_chain_symmetric(chain, agent_symmetric_group(3, 2))


def test_identity_generators_always_symmetric(path3_chain):
    from microlump import GeneratorSet
    ident = GeneratorSet("id", (SpacePermutation.identity(3, 2),))
    assert is_chain_symmetric(path3_chain, ident)


def test_symmetry_extends_to_composed_words(voter3_chain):
    """Generator invariance carries over to arbitrary words of generators."""
    gens = parse_presets("full", 3, 2)
    assert is_chain_symmetric(voter3_chain, gens)
    rng = random.Random(3)
    space = voter3_chain.space
    for _ in range(20):
        word = SpacePermutation.identity(3, 2)
        for _ in range(rng.randrange(1, 6)):
            word = compose(word, rng.choice(gens.perms))
        image = word.index_map(space)
        for x in range(space.size):
            for y, p in voter3_chain.rows[x]:
                assert entry(voter3_chain, int(image[x]), int(image[y])) == p


def test_attr_merge_reduces_three_attrs_to_binary(imitation3x3):
    """Under a rule symmetric in two of three attributes, grouping states
    by the pattern 'distinguished or not' is lumpable and the reduced chain
    is exactly the binary imitation chain."""
    chain = build_micro_chain(imitation3x3)
    space = chain.space
    binary_space = ConfigSpace(3, 2)
    blocks = [[] for _ in range(binary_space.size)]
    for idx in range(space.size):
        cfg = space.config_of(idx)
        image = tuple(1 if c == 1 else 0 for c in cfg)  # code 1 = 'b'
        blocks[binary_space.index_of(image)].append(idx)
    part = partition(tuple(tuple(b) for b in blocks),
                     tuple(str(i) for i in range(8)))
    macro = lump(chain, part)
    binary = build_micro_chain(builtin_voter(imitation3x3.topology))
    assert macro.rows == binary.rows


def test_presets():
    gens = parse_presets("Sdelta", 2, 3)
    assert len(gens.perms) == 2
    gens = parse_presets("Sdelta-1:1", 2, 3)
    assert all(p.attrs[1] == 1 for p in gens.perms)
    with pytest.raises(DocumentParseError):
        parse_presets("bogus", 3, 2)
    with pytest.raises(ValidationError):
        parse_presets("flip", 3, 3)


def test_generator_file_parsing():
    text = """
    # agent cycles are 1-based, attribute cycles 0-based
    agents: (1 2)
    attrs: (0 1)
    agents: (1 2 3); attrs: (0 1)
    """
    gens = parse_generator_file(text, 3, 2)
    assert len(gens.perms) == 3
    assert gens.perms[0].agents == (1, 0, 2)
    assert gens.perms[1].attrs == (1, 0)
    assert gens.perms[2].agents == (1, 2, 0)
    assert gens.perms[2].attrs == (1, 0)
    with pytest.raises(DocumentParseError):
        parse_generator_file("agents: (1 9)\n", 3, 2)
    with pytest.raises(DocumentParseError):
        parse_generator_file("", 3, 2)


def test_permutation_validation():
    with pytest.raises(ValidationError):
        SpacePermutation((0, 0), (0, 1))
    with pytest.raises(ValidationError):
        SpacePermutation((0, 1), (1, 1))


# ---------------------------------------------------------------------------
# the model-level certificate

def test_certificate_passes_on_the_complete_voter(voter3, imitation3x3):
    for spec, names in ((voter3, ("SN", "flip", "full")), (imitation3x3, ("SN", "Sdelta"))):
        for name in names:
            gens = parse_presets(name, spec.n_agents, spec.delta)
            assert certify(spec, gens)
            assert is_chain_symmetric(build_micro_chain(spec), gens)


def test_certificate_fails_where_the_draws_differ(path3, path3_chain):
    gens = agent_symmetric_group(3, 2)
    assert not certify(path3, gens)
    assert not is_chain_symmetric(path3_chain, gens)


def test_certificate_fails_on_a_rule_that_does_not_commute():
    """Copy black, keep white: relabeling the codes changes the rule."""
    table = {(a, b, 0): 0 if b == 0 else a for a in range(2) for b in range(2)}
    rule = UpdateRule(arity=2, options=(("lean", 1),), table=table, delta=2)
    topology = Topology.complete(3)
    spec = ModelSpec(name="lean", alphabet=Alphabet(("a", "b")), topology=topology, rule=rule,
                     choice=ChoiceDistribution.uniform_from_topology(topology, 2))
    assert certify(spec, parse_presets("SN", 3, 2))
    flip = parse_presets("flip", 3, 2)
    assert not certify(spec, flip)
    assert not is_chain_symmetric(build_micro_chain(spec), flip)


def test_certificate_relabels_every_argument_of_majority3(majority3):
    flip = parse_presets("flip", 3, 2)
    assert certify(majority3, flip)
    assert is_chain_symmetric(build_micro_chain(majority3), flip)


@pytest.mark.parametrize("key", list(itertools.product(range(2), repeat=3)))
def test_certificate_fails_on_majority3_with_one_entry_changed(majority3, key):
    """Flip pairs each majority key with another, so one changed output
    breaks the commutation at whichever argument positions differ."""
    rule = majority3.rule
    table = {**rule.table, key + (0,): 1 - rule.table[key + (0,)]}
    spec = dataclasses.replace(majority3, rule=dataclasses.replace(rule, table=table))
    flip = parse_presets("flip", 3, 2)
    assert not certify(spec, flip)
    assert not is_chain_symmetric(build_micro_chain(spec), flip)


@pytest.mark.parametrize("cycles, symmetric", [("(0 1 2)", True), ("(0 1)", False)])
def test_certificate_of_an_arity_one_rule(cycles, symmetric):
    """c -> c + 1 mod 3 commutes with the code rotation, not with a swap."""
    topology = Topology.complete(2)
    spec = ModelSpec(name="shift", alphabet=Alphabet(("a", "b", "c")), topology=topology,
                     rule=shift_rule(),
                     choice=ChoiceDistribution.uniform_from_topology(topology, 1))
    gens = parse_generator_file(f"attrs: {cycles}\n", 2, 3)
    assert certify(spec, gens) == symmetric
    assert bool(is_chain_symmetric(build_micro_chain(spec), gens)) == symmetric


def test_a_failing_certificate_proves_nothing():
    spec = parse_model(PATH4_FLIP)
    gens = agent_symmetric_group(4, 2)
    assert not certify(spec, gens)
    assert is_chain_symmetric(build_micro_chain(spec), gens)


def test_certificate_with_draw_numerators_beyond_int64():
    """An option probability over P1*P2*P3 puts every draw numerator past
    2**63: the certificate compares Python ints."""
    p1, p2, p3 = 2147483647, 2147483629, 2147483587
    rare = Fraction(1, p1 * p2 * p3)
    table = {(a, b, opt): (b if opt == 0 else a) for a in range(2) for b in range(2)
             for opt in range(2)}
    rule = UpdateRule(arity=2, options=(("copy", 1 - rare), ("stay", rare)), table=table,
                      delta=2)
    for topology, symmetric in ((Topology.complete(3), True),
                                (Topology(3, {(0, 1): 1, (0, 2): 2, (1, 0): 1, (1, 2): 1,
                                              (2, 0): 1, (2, 1): 1}), False)):
        spec = ModelSpec(name="rare", alphabet=Alphabet(("a", "b")), topology=topology,
                         rule=rule, choice=ChoiceDistribution.uniform_from_topology(topology, 2))
        assert spec.draws.nums.dtype == object
        gens = parse_presets("full", 3, 2)
        assert certify(spec, gens) == symmetric
        assert bool(is_chain_symmetric(build_micro_chain(spec), gens)) == symmetric


def test_certificate_rejects_mismatched_dimensions(voter3):
    for perm in (SpacePermutation.identity(4, 2), SpacePermutation.identity(3, 3)):
        with pytest.raises(ValidationError, match="dimensions"):
            certify(voter3, GeneratorSet("bad", (perm,)))
