"""Round trips on random small models and chains, as Hypothesis
properties: a model through its canonical document, and a chain through
the sparse format, read in bulk and by the line converter. Also the
symmetry chain: a model-level certificate implies the matrix symmetry,
which implies a lumpable orbit partition and a commutation profile that is
identically 0. And two kernels against their plain forms: narrowed sort
keys against int64 keys, and numerators against property reads."""

import io
from fractions import Fraction
from math import lcm
from unittest import mock

import numpy as np
from hypothesis import Phase, example, given, settings, strategies as st

from microlump import chain as chainmod
from microlump import (Alphabet, ChoiceDistribution, GeneratorSet, ModelSpec, SpacePermutation,
                       Topology, UpdateRule, build_micro_chain, certify, check_lumpable,
                       commutation_profile, is_chain_symmetric, model_fingerprint, orbits,
                       parse_model, parse_presets, point_mass, read_sparse, serialize_model,
                       write_sparse)
from microlump.model import int_dtype, narrow, to_numerators

import oracle

# derandomized and without an example database: the same examples on every
# run, and nothing written to the working tree. No explain phase: it loads
# modules that warn on import, which fails a run with warnings as errors.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                    phases=[Phase.explicit, Phase.generate, Phase.shrink])

ratios = st.builds(Fraction, st.integers(1, 40), st.integers(1, 12))


def _normalized(weights):
    total = sum(weights)
    return [w / total for w in weights]


@st.composite
def models(draw):
    """Two to five agents, two or three codes, an arity 1 or 2 rule with up
    to three options and a random table, and a uniform or an explicit
    choice. Every agent keeps an out-edge."""
    n, delta, arity = draw(st.integers(2, 5)), draw(st.integers(2, 3)), draw(st.integers(1, 2))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    extra = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    chosen = sorted(set(extra) | {(i, (i + 1) % n) for i in range(n)})
    topology = Topology(n, {pair: draw(ratios) for pair in chosen})
    labels = tuple("xyz"[:delta])
    n_opts = draw(st.integers(1, 3))
    probs = _normalized([draw(ratios) for _ in range(n_opts)])
    options = tuple((f"o{k}", p) for k, p in enumerate(probs))
    keys = [(a,) + ((b,) if arity == 2 else ()) + (opt,)
            for a in range(delta) for b in range(delta if arity == 2 else 1)
            for opt in range(n_opts)]
    table = {key: draw(st.integers(0, delta - 1)) for key in keys}
    rule = UpdateRule(arity=arity, options=options, table=table, delta=delta)
    if draw(st.booleans()):
        choice = ChoiceDistribution.uniform_from_topology(topology, arity)
    else:
        tuples = chosen if arity == 2 else [(i,) for i in range(n)]
        choice = ChoiceDistribution(dict(zip(tuples, _normalized(
            [draw(ratios) for _ in tuples]))))
    return ModelSpec(name="prop", alphabet=Alphabet(labels), topology=topology,
                     rule=rule, choice=choice)


def draw_table(spec):
    table = spec.draws
    return (table.agents.tolist(), table.options.tolist(), table.nums.tolist(),
            table.denom)


@PROPERTY
@given(models())
def test_a_model_round_trips_through_its_document(spec):
    again = parse_model(serialize_model(spec))
    assert model_fingerprint(again) == model_fingerprint(spec)
    assert list(again.choice.entries.items()) == list(spec.choice.entries.items())
    assert draw_table(again) == draw_table(spec)
    assert oracle.draw_choices(again) == oracle.joint_choices(spec)


def _text(chain):
    buf = io.StringIO()
    write_sparse(chain, buf)
    return buf.getvalue()


def _arrays(chain):
    return (chain.indptr.tolist(), chain.cols.tolist(), chain.nums.tolist(), chain.denom,
            chain.exact)


@PROPERTY
@given(models())
def test_a_compiled_chain_round_trips_through_the_sparse_format(spec):
    """The file holds every entry in lowest terms, so a chain read back may
    have a smaller common denominator than the draws' one: its entries,
    its bytes and a second round trip are the same."""
    chain = build_micro_chain(spec)
    text = _text(chain)
    again = read_sparse(text)
    assert again.rows == chain.rows
    assert _text(again) == text
    assert _arrays(read_sparse(_text(again))) == _arrays(again)


@st.composite
def rows(draw):
    """Stochastic rows over one to six states, entries over mixed
    denominators."""
    n = draw(st.integers(1, 6))
    out = []
    for _ in range(n):
        support = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
        probs = _normalized([draw(ratios) for _ in support])
        out.append(tuple(sorted(zip(support, probs))))
    return tuple(out)


@PROPERTY
@given(rows())
def test_any_stochastic_chain_round_trips_through_the_sparse_format(matrix):
    buf = io.StringIO()
    oracle.write_sparse(matrix, buf)
    chain = read_sparse(buf.getvalue())
    assert chain.rows == matrix
    again = read_sparse(_text(chain))
    assert _arrays(again) == _arrays(chain)
    assert _text(again) == _text(chain)


@PROPERTY
@given(rows())
def test_the_bulk_and_the_general_reader_give_the_same_arrays(matrix):
    """The writer's lines read in bulk, and read again line by line by
    `_entry`, with the byte gate disabled."""
    buf = io.StringIO()
    oracle.write_sparse(matrix, buf)
    bulk = read_sparse(buf.getvalue())
    with mock.patch.object(chainmod, "_written_fields", lambda piece: None):
        general = read_sparse(buf.getvalue())
    assert _arrays(bulk) == _arrays(general)
    assert bulk.nums.dtype == general.nums.dtype


@PROPERTY
@given(models(), st.data())
def test_a_certified_generator_set_is_a_chain_symmetry(spec, data):
    """Preset sets and one random agent and code permutation: whenever the
    draw and rule tables certify a set, the matrix is invariant under it,
    its orbit partition is lumpable, and aggregating commutes with
    stepping from a random point mass."""
    n, delta = spec.n_agents, spec.delta
    names = ("SN", "Sdelta", "full") + (("flip",) if delta == 2 else ())
    perm = SpacePermutation(tuple(data.draw(st.permutations(range(n)))),
                            tuple(data.draw(st.permutations(range(delta)))))
    sets = [parse_presets(name, n, delta) for name in names]
    sets.append(GeneratorSet("random", (perm,)))
    chain = build_micro_chain(spec)
    mu0 = point_mass(chain.n_states, data.draw(st.integers(0, chain.n_states - 1)))
    for gens in sets:
        if certify(spec, gens):
            assert is_chain_symmetric(chain, gens)
            part = orbits(chain.space, gens)
            assert check_lumpable(chain, part)
            assert commutation_profile(chain, part, mu0, 4) == [0] * 5


@st.composite
def index_keys(draw):
    """Keys below a top on either side of the 8- and 16-bit widths, empty
    at top 0, drawn from a few values so that stability is tested."""
    top = draw(st.sampled_from([0, 1, 256, 257, 65536, 65537]))
    if not top:
        return np.zeros(0, dtype=np.int64), top
    pool = draw(st.lists(st.integers(0, top - 1), min_size=1, max_size=6))
    return np.array(draw(st.lists(st.sampled_from(pool), max_size=600)), dtype=np.int64), top


@PROPERTY
@given(index_keys())
def test_narrowed_keys_sort_as_int64_keys(case):
    keys, top = case
    narrowed = narrow(keys, top)
    assert narrowed.dtype == np.min_scalar_type(top - 1)
    assert narrowed.tolist() == keys.tolist()
    assert np.array_equal(np.argsort(narrowed, kind="stable"), np.argsort(keys, kind="stable"))


def _numerators_by_properties(values):
    """`to_numerators` as three property reads per value."""
    denom = lcm(*{p.denominator for p in values})
    nums = [p.numerator * (denom // p.denominator) for p in values]
    return np.array(nums, dtype=int_dtype(sum(map(abs, nums)))), denom


@PROPERTY
@given(st.lists(st.one_of(st.integers(-2 ** 70, 2 ** 70), st.booleans(),
                          st.fractions(max_denominator=10 ** 20))))
@example([])
@example([True, False, Fraction(1, 3), 2])
def test_numerators_are_those_of_the_numerator_and_denominator(values):
    """Ints, bools and Fractions, past int64 too, and no values at all."""
    (nums, denom), (ref, ref_denom) = to_numerators(iter(values)), _numerators_by_properties(values)
    assert denom == ref_denom and nums.dtype == ref.dtype
    assert [(type(v), v) for v in nums.tolist()] == [(type(v), v) for v in ref.tolist()]
