import re
from fractions import Fraction

import pytest

from microlump import (ChoiceDistribution, DocumentParseError, ModelSpec, Topology,
                       ValidationError, builtin_voter, model_fingerprint,
                       parse_model, serialize_model)
from microlump.model import UpdateRule, voter_rule
from oracle import draw_choices, result
from conftest import assert_outcome_holds_the_table, shift_rule, star_topology

VOTER3_DOC = """
[model]
name = voter3
attributes = black, white

[topology]
complete 3

[rule]
builtin voter

[choice]
from-topology uniform
"""


def test_parse_complete_voter():
    spec = parse_model(VOTER3_DOC)
    assert spec.name == "voter3"
    assert spec.delta == 2
    assert spec.n_agents == 3
    pairs = {(i + 1, j + 1): p for (i, j), p in spec.choice.entries.items()}
    assert len(pairs) == 6
    assert all(p == Fraction(1, 6) for p in pairs.values())


def test_a_fraction_map_shows_as_its_dict():
    edges = Topology.complete(2).edges
    assert repr(edges) == repr(dict(edges)) == "{(0, 1): Fraction(1, 1), (1, 0): Fraction(1, 1)}"


def test_choice_sum_validation_message():
    doc = VOTER3_DOC.replace(
        "from-topology uniform",
        "1 2 1/6\n1 3 1/6\n2 1 1/6\n2 3 1/6\n3 1 1/6")
    with pytest.raises(ValidationError, match=r"choice distribution sums to 5/6"):
        parse_model(doc)


def test_path_document_choice_weights():
    doc = """
    [model]
    name = p
    attributes = black, white
    [topology]
    agents 3
    undirected
    1 2 1/1
    2 3 1/1
    [rule]
    builtin voter
    [choice]
    from-topology uniform
    """
    spec = parse_model(doc)
    ent = spec.choice.entries
    # uniform focal agent (1/3 each), then uniform over that agent's neighbors
    assert ent[(0, 1)] == Fraction(1, 3)
    assert ent[(2, 1)] == Fraction(1, 3)
    assert ent[(1, 0)] == Fraction(1, 6)
    assert ent[(1, 2)] == Fraction(1, 6)


def test_voter_rule_is_imitation(voter3):
    rule = voter3.rule
    for a in range(2):
        for b in range(2):
            assert result(rule, (a, b), 0) == b


def test_builtin_voter_star_weights():
    spec = builtin_voter(star_topology(3))
    ent = spec.choice.entries
    assert ent[(0, 1)] == ent[(0, 2)] == Fraction(1, 6)
    assert ent[(1, 0)] == ent[(2, 0)] == Fraction(1, 3)


def test_builtin_voter_complete_choice_is_permutation_invariant(voter3):
    ent = voter3.choice.entries
    import itertools
    for perm in itertools.permutations(range(3)):
        permuted = {tuple(perm[a] for a in tup): p for tup, p in ent.items()}
        assert permuted == dict(ent)


def test_builtin_voter_needs_out_neighbors():
    topo = Topology(2, {(0, 1): Fraction(1)})  # agent 2 has no out-edge
    with pytest.raises(ValidationError, match="no out-neighbors"):
        builtin_voter(topo)


def test_joint_choice_mass_is_one(voter3, path3, majority3):
    for spec in (voter3, path3, majority3):
        assert sum(p for _, _, p in draw_choices(spec)) == 1


def test_roundtrip_serialize_parse(voter3, path3, star3, imitation3x3, majority3):
    for spec in (voter3, path3, star3, imitation3x3, majority3):
        again = parse_model(serialize_model(spec))
        assert again == spec
        assert model_fingerprint(again) == model_fingerprint(spec)


def test_fingerprint_distinguishes_models(voter3, path3):
    assert model_fingerprint(voter3) != model_fingerprint(path3)


def test_choice_tuple_must_follow_topology():
    doc = """
    [model]
    attributes = black, white
    [topology]
    agents 3
    1 2 1/1
    2 3 1/1
    3 1 1/1
    [rule]
    builtin voter
    [choice]
    1 3 1/2
    2 3 1/2
    """
    with pytest.raises(ValidationError, match="not an\\s+out-neighbor"):
        parse_model(doc)


def test_parse_errors_carry_line_numbers():
    bad = VOTER3_DOC.replace("complete 3", "complete three")
    with pytest.raises(DocumentParseError, match="line"):
        parse_model(bad)
    with pytest.raises(DocumentParseError, match="missing section"):
        parse_model("[model]\nattributes = a, b\n")


def test_duplicate_section_rejected():
    with pytest.raises(DocumentParseError, match="duplicate section"):
        parse_model(VOTER3_DOC + "\n[model]\nattributes = x, y\n")


def test_update_table_must_be_total():
    doc = """
    [model]
    attributes = black, white
    [topology]
    complete 2
    [rule]
    arity 2
    lambda go 1/1
    black black go -> black
    [choice]
    from-topology uniform
    """
    with pytest.raises(ValidationError, match="table"):
        parse_model(doc)


def test_outcome_holds_the_table_at_every_key(majority3):
    for rule in (voter_rule(2), voter_rule(3), voter_rule(4), shift_rule(), majority3.rule):
        assert_outcome_holds_the_table(rule)


def test_option_probabilities_must_sum_to_one():
    doc = """
    [model]
    attributes = u, v
    [topology]
    complete 2
    [rule]
    arity 1
    lambda p 1/2
    lambda q 1/3
    u p -> u
    v p -> v
    u q -> v
    v q -> u
    [choice]
    from-topology uniform
    """
    with pytest.raises(ValidationError, match="option probabilities sum"):
        parse_model(doc)


def test_from_topology_uniform_rejects_high_arity():
    with pytest.raises(ValidationError, match="arity"):
        ChoiceDistribution.uniform_from_topology(Topology.complete(3), 3)


def test_arity_one_rule_and_uniform_choice():
    """Spontaneous flip noise: no neighbors involved, never absorbs."""
    doc = """
    [model]
    name = noise
    attributes = black, white
    [topology]
    complete 2
    [rule]
    arity 1
    lambda flip 1/2
    lambda stay 1/2
    black flip -> white
    white flip -> black
    black stay -> black
    white stay -> white
    [choice]
    from-topology uniform
    """
    spec = parse_model(doc)
    assert spec.choice.entries == {(0,): Fraction(1, 2), (1,): Fraction(1, 2)}
    from microlump import build_micro_chain, classify_states
    chain = build_micro_chain(spec)
    assert all(sum(p for _, p in row) == 1 for row in chain.rows)
    cls = classify_states(chain)
    assert cls.absorbing == ()
    assert cls.recurrent_classes == (tuple(range(4)),)


def test_undirected_flag_expands_both_directions():
    spec = parse_model("""
    [model]
    attributes = black, white
    [topology]
    agents 2
    undirected
    1 2 3/2
    [rule]
    builtin voter
    [choice]
    from-topology uniform
    """)
    assert spec.topology.edges == {(0, 1): Fraction(3, 2), (1, 0): Fraction(3, 2)}


@pytest.mark.parametrize("key", [(0, 1, 2), ("a", "b"), 0])
def test_a_malformed_edge_key_is_named(key):
    with pytest.raises(ValidationError, match=f"^malformed edge key {re.escape(repr(key))}$"):
        Topology(3, {key: 1})
    with pytest.raises(ValidationError, match="^edge .+ weight must be an integer"):
        Topology(3, {key: 0.5})


@pytest.mark.parametrize("key", [5, ("a", 1)])
def test_a_malformed_choice_key_is_named(voter3, key):
    entries = dict(voter3.choice.entries)
    entries[key] = entries.pop((0, 1))
    with pytest.raises(ValidationError, match=f"^malformed choice key {re.escape(repr(key))}$"):
        ModelSpec(name="bad", alphabet=voter3.alphabet, topology=voter3.topology,
                  rule=voter3.rule, choice=ChoiceDistribution(entries))
    entries[key] = 0
    with pytest.raises(ValidationError, match=f"^choice {re.escape(repr(key))} has non-positive"):
        ChoiceDistribution(entries)


def test_integer_weights_become_fractions_and_floats_are_rejected():
    from microlump import UpdateRule, build_micro_chain
    from microlump.model import UpdateRule, voter_rule
    ints = Topology(3, {(0, 1): 1, (1, 0): 1, (1, 2): 1, (2, 1): 1})
    assert all(type(w) is Fraction for w in ints.edges.values())
    spec = builtin_voter(ints)
    assert all(type(p) is Fraction for p in spec.choice.entries.values())
    chain = build_micro_chain(spec)
    reference = build_micro_chain(builtin_voter(Topology(3, {
        (0, 1): Fraction(1), (1, 0): Fraction(1), (1, 2): Fraction(1), (2, 1): Fraction(1)})))
    assert chain.rows == reference.rows
    with pytest.raises(ValidationError, match="edge \\(1,2\\) weight"):
        Topology(2, {(0, 1): 1.0, (1, 0): 1})
    assert ChoiceDistribution({(0,): 1}).entries == {(0,): Fraction(1)}
    with pytest.raises(ValidationError, match="choice \\(1\\) probability"):
        ChoiceDistribution({(0,): 0.5, (1,): Fraction(1, 2)})
    with pytest.raises(ValidationError, match="option 'copy' probability"):
        UpdateRule(arity=2, options=(("copy", 1.0),), table=voter_rule(2).table, delta=2)


def test_the_parse_to_simulate_path_never_builds_the_fraction_mappings():
    """The model's integer tables carry parse, draws, maps, build,
    simulation and fingerprint; `edges` and `entries` are built on first
    read only."""
    from microlump import build_micro_chain, enumerate_maps, simulate
    spec = parse_model(VOTER3_DOC.replace("complete 3", "complete 200"))
    enumerate_maps(spec)
    small = parse_model(VOTER3_DOC.replace("complete 3", "complete 6"))
    build_micro_chain(small)
    simulate(small, [0, 1] * 3, 50, 1)
    model_fingerprint(small)
    for model in (spec, small):
        assert "dict" not in vars(model.topology.edges)
        assert "dict" not in vars(model.choice.entries)
    assert len(spec.choice.entries) == 200 * 199 and "dict" not in vars(spec.choice.entries)
    assert spec.choice.entries[(0, 1)] == Fraction(1, 200 * 199)
    assert "dict" in vars(spec.choice.entries)


ONE = Fraction(1)
BAD_RULES = {
    "no option": (dict(options=(), table={}), "rule needs at least one option"),
    "repeated option": (dict(options=(("a", ONE / 2), ("a", ONE / 2))),
                        "option labels must be distinct"),
    "short key": (dict(table={(0, 0): 0, (1,): 1}), "malformed table key (1,)"),
    "code out of range": (dict(table={(0, 0): 0, (2, 0): 1}),
                          "table key (2, 0) has an out-of-range code"),
    "option out of range": (dict(table={(0, 0): 0, (1, 1): 1}),
                            "table key (1, 1) has an out-of-range option"),
    "output out of range": (dict(table={(0, 0): 0, (1, 0): 2}), "table output 2 out of range"),
}


@pytest.mark.parametrize("change, message", BAD_RULES.values(), ids=BAD_RULES)
def test_a_bad_rule_is_refused_naming_the_fault(change, message):
    args = dict(arity=1, options=(("stay", ONE),), table={(0, 0): 0, (1, 0): 1}, delta=2)
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        UpdateRule(**{**args, **change})


def test_a_rule_over_another_code_count_than_the_alphabet_is_refused(voter3):
    with pytest.raises(ValidationError,
                       match="^rule table and alphabet disagree on the code count$"):
        ModelSpec(name="bad", alphabet=voter3.alphabet, topology=voter3.topology,
                  rule=voter_rule(3), choice=voter3.choice)
