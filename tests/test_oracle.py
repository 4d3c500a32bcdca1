"""The integer CSR chain core against the plain-loop `Fraction` references in
`oracle.py`: built rows, sparse bytes, parse results and errors, symmetry
verdicts and witnesses, block-sum verdicts (exact, tolerance and
exhaustive), reduced chains, propagation, aggregation, commutation
profiles, state classification and absorption, on seeded random models,
and absorption bits and exhaustive witnesses on two chains of about 2000
states, absorption bits also on a 2401-state line of single-state
components; absorption values and residuals also against the whole-system
dense solve, values against the exact `Fraction` solve on small chains and
the voter's closed form on the path; the start distribution checks against
the per-entry `Fraction` reference; the draws applied through the compiled
rule table (map actions, `maps --table`, trajectories and matrix
estimates) against the rule-dict references; the integer draw table and
model validation against the `Fraction` path they replaced; array-built
topologies, choices and maps against the dict-built ones; orbit partitions
against union-find; the member/indptr partitions against the tuple
reference; and the partition reader's byte pass against the reader that
converts every index with int()."""

import functools
import io
import itertools
import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from math import lcm
from pathlib import Path

import numpy as np
import pytest

from microlump import analysis, cli, lumping, sim, symmetry
from microlump import chain as chainmod
from microlump import absorption_analysis, classify_states, commutation_profile, propagate
from microlump import (AnalysisError, Alphabet, ChoiceDistribution, ConfigSpace,
                       DocumentParseError, GeneratorSet, ModelSpec, NotLumpableError,
                       SpacePermutation, Topology, UpdateRule, ValidationError,
                       build_micro_chain, builtin_voter, certify, check_lumpable,
                       enumerate_maps, estimate_matrix, frequency_partition,
                       half_hypercube_partition, induced_partition, is_chain_symmetric,
                       load_model, lump,
                       model_fingerprint, moran_partition, orbits, parse_model,
                       parse_presets, read_sparse, serialize_model, simulate, write_partition,
                       write_sparse)
from microlump.lumping import block_row_sums, count_label
from conftest import (assert_outcome_holds_the_table, path_topology, random_topology,
                      star_topology)

import oracle

LABELS = ("a", "b", "c")
SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def majority_rule(delta, p_majority):
    """Arity 3: join the triple's majority (keep the own code on a
    three-way tie), or copy the second agent."""
    table = {}
    for a in range(delta):
        for b in range(delta):
            for c in range(delta):
                top, k = Counter((a, b, c)).most_common(1)[0]
                table[(a, b, c, 0)] = top if k >= 2 else a
                table[(a, b, c, 1)] = b
    return UpdateRule(arity=3, options=(("majority", p_majority), ("copy", 1 - p_majority)),
                      table=table, delta=delta)


def random_model(seed):
    """A seeded voter or majority model on a complete, path or random
    topology with two or three codes, small enough for the references."""
    rng = random.Random(seed)
    delta = rng.choice((2, 3))
    rule_name = rng.choice(("voter", "majority"))
    shape = rng.choice(("complete", "path", "random"))
    top_n = {(2, "voter"): 8, (2, "majority"): 6, (3, "voter"): 5, (3, "majority"): 4}
    n = rng.randint(3, top_n[delta, rule_name])
    if shape == "complete":
        topology = Topology.complete(n)
    elif shape == "path":
        topology = path_topology(n)
    else:
        topology = random_topology(n, seed)
    labels = LABELS[:delta]
    if rule_name == "voter":
        return builtin_voter(topology, labels=labels, name=f"voter-{shape}")
    weights = {}
    for i in range(n):
        nbrs = [j for (a, j) in topology.edges if a == i]
        for j in nbrs:
            for k in nbrs:
                if j != k or len(nbrs) == 1:
                    weights[(i, j, k)] = rng.randint(1, 3)
    total = sum(weights.values())
    choice = ChoiceDistribution({t: Fraction(w, total) for t, w in weights.items()})
    rule = majority_rule(delta, Fraction(rng.randint(1, 4), 5))
    return ModelSpec(name=f"majority-{shape}", alphabet=Alphabet(labels),
                     topology=topology, rule=rule, choice=choice)


def generator_sets(spec, rng):
    """Preset, reflection and random generators: some symmetries of the
    model, some not."""
    n, delta = spec.n_agents, spec.delta
    sets = [parse_presets(name, n, delta)
            for name in ("SN", "Sdelta", "full") + (("flip",) if delta == 2 else ())]
    flipped = SpacePermutation(tuple(reversed(range(n))), tuple(range(delta)))
    sets.append(GeneratorSet("reflect", (flipped,)))
    agents, attrs = list(range(n)), list(range(delta))
    rng.shuffle(agents)
    rng.shuffle(attrs)
    sets.append(GeneratorSet("random", (SpacePermutation(tuple(agents), tuple(attrs)),)))
    return sets


def random_partition(n_states, rng, k=None):
    """Random blocks (k of them, or one to six), members listed in random
    order, so that a block's first listed member is often not its
    smallest."""
    if k is None:
        k = rng.randint(1, min(6, n_states))
    groups = [[] for _ in range(k)]
    for x in range(n_states):
        groups[x % k if x < k else rng.randrange(k)].append(x)
    for g in groups:
        rng.shuffle(g)
    return oracle.partition(tuple(tuple(g) for g in groups), tuple(f"R{i}" for i in range(k)))


def sparse_text(write, matrix):
    buf = io.StringIO()
    write(matrix, buf)
    return buf.getvalue()


def check_lumping(chain, rows, part):
    for tol in (None, 1e-12, 0.2):
        for exhaustive in (False, True):
            assert (check_lumpable(chain, part, tol=tol, exhaustive=exhaustive)
                    == oracle.check_lumpable(rows, part, tol=tol, exhaustive=exhaustive,
                                             exact=chain.exact))
        try:
            ref = oracle.lump(rows, part, tol=tol, exact=chain.exact)
        except ValueError as exc:
            with pytest.raises(NotLumpableError) as err:
                lump(chain, part, tol=tol)
            assert err.value.witness == exc.args[0].witness
        else:
            macro = lump(chain, part, tol=tol)
            assert macro.rows == ref
            assert sparse_text(write_sparse, macro) == sparse_text(
                functools.partial(oracle.write_sparse, exact=chain.exact), ref)


@pytest.mark.parametrize("seed", range(24))
def test_core_matches_the_fraction_references(seed):
    spec = random_model(seed)
    rng = random.Random(1000 + seed)
    chain = build_micro_chain(spec)
    rows = oracle.build_rows(spec)
    assert chain.rows == rows

    text = sparse_text(oracle.write_sparse, rows)
    assert sparse_text(write_sparse, chain) == text
    imported = read_sparse(text)
    assert (imported.rows, imported.exact) == oracle.read_sparse(text)
    assert sparse_text(write_sparse, imported) == text

    space = chain.space
    gen_sets = generator_sets(spec, rng)
    for gens in gen_sets:
        assert (is_chain_symmetric(chain, gens)
                == oracle.is_chain_symmetric(rows, space, gens))

    parts = [orbits(space, gens) for gens in gen_sets]
    parts += [frequency_partition(space), moran_partition(space, 0),
              random_partition(space.size, rng)]
    if spec.delta == 2:
        parts.append(half_hypercube_partition(space))
    for part in parts:
        check_lumping(imported, rows, part)


@pytest.mark.parametrize("seed", range(8))
def test_a_decimal_chain_without_tol_compares_its_own_blocks(seed):
    """Stay entries raised by up to 3e-10, in a chain marked inexact: its
    rows sum to one within 1e-9 only, so a sum into a state's own block
    is not implied by the others. The test without `tol` compares it, as
    the reference does, and so fails some partition that the reference
    leaving own blocks out passes."""
    spec = random_model(seed)
    rng = random.Random(5000 + seed)
    rows = oracle.build_rows(spec)
    nudged = tuple(tuple((y, p + Fraction(rng.randint(0, 3), 10 ** 10) if y == x else p)
                         for y, p in row) for x, row in enumerate(rows))
    chain = read_sparse(sparse_text(functools.partial(oracle.write_sparse, exact=False), nudged))
    assert not chain.exact
    space = ConfigSpace(spec.n_agents, spec.delta)
    parts = [orbits(space, gens) for gens in generator_sets(spec, rng)]
    parts += [frequency_partition(space), random_partition(space.size, rng)]
    caught = 0
    for part in parts:
        check_lumping(chain, nudged, part)
        caught += (not check_lumpable(chain, part)
                   and bool(oracle.check_lumpable(nudged, part, exact=True)))
    assert caught


def test_the_seeds_cover_both_verdicts():
    """The random models above include symmetric and non-symmetric
    generator sets, and both lumping verdicts."""
    sym, lumpable = Counter(), Counter()
    for seed in range(24):
        spec = random_model(seed)
        chain = build_micro_chain(spec)
        for gens in generator_sets(spec, random.Random(1000 + seed)):
            sym[bool(is_chain_symmetric(chain, gens))] += 1
        lumpable[bool(check_lumpable(chain, frequency_partition(chain.space)))] += 1
    assert min(sym.values()) >= 10 and min(lumpable.values()) >= 3


def test_a_certificate_implies_the_reference_symmetry():
    """The model-level certificate never passes a generator set the
    Fraction reference finds asymmetric, and it passes often enough on
    these seeds to mean something."""
    passed = 0
    for seed in range(24):
        spec = random_model(seed)
        rows = oracle.build_rows(spec)
        space = ConfigSpace(spec.n_agents, spec.delta)
        for gens in generator_sets(spec, random.Random(1000 + seed)):
            if certify(spec, gens):
                passed += 1
                assert oracle.is_chain_symmetric(rows, space, gens)
    assert passed >= 10


def reach_orders(chain, part):
    """Per row, its block ids in the order the row first reaches them."""
    return [list(dict.fromkeys(part.block_of[y] for y, _ in row)) for row in chain.rows]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("topology", [path_topology(5), star_topology(5), random_topology(5, 3)],
                         ids=["path", "star", "random"])
def test_witness_order_matches_the_reference_over_many_blocks(topology, seed):
    """Nine or more blocks, listed in shuffled order with unsorted members.
    Block ids past 7 share set slots with smaller ones, so the order in
    which `base.keys() | agg.keys()` yields a row's blocks depends on the
    order the row first reaches them, and the witnesses must follow the
    row-by-row reference in that order too."""
    rng = random.Random(seed)
    chain = build_micro_chain(builtin_voter(topology, labels=LABELS))
    rows = chain.rows
    k = rng.randint(9, 20)
    part = random_partition(chain.n_states, rng, k)
    shuffled = rng.sample(range(k), k)
    part = oracle.partition(tuple(part.blocks[i] for i in shuffled), part.labels)
    assert sorted(part.blocks, key=min) != list(part.blocks)
    assert any(list(b) != sorted(b) for b in part.blocks)
    reached = reach_orders(chain, part)
    assert any(order != sorted(order) for order in reached)
    assert any(len({b % 8 for b in order}) < len(order) for order in reached)
    # the same chain imported with a stored 0/1 entry in most rows: a block
    # reached only by a zero still enters the row's block set
    padded = []
    for row in rows:
        y = rng.randrange(len(rows))
        padded.append(row if y in dict(row) else tuple(sorted(row + ((y, Fraction(0)),))))
    padded = tuple(padded)
    assert sum(map(len, padded)) > sum(map(len, rows)) + len(rows) // 2
    imported = read_sparse(sparse_text(oracle.write_sparse, padded))
    for matrix, ref in ((chain, rows), (imported, padded)):
        for tol in (None, 0.01):
            for exhaustive in (False, True):
                verdict = check_lumpable(matrix, part, tol=tol, exhaustive=exhaustive)
                assert verdict == oracle.check_lumpable(ref, part, tol=tol,
                                                        exhaustive=exhaustive)
            assert len(verdict.violations) > k
        check_lumping(matrix, ref, part)


def test_forced_profile_over_an_explicit_zero_entry():
    """An imported chain may store an entry of 0/1. The forced macro rows
    hold nonzero block sums only, as `lump`'s rows do, and the profile and
    the witnesses (whose block sets include the block the zero reaches)
    match the references."""
    text = ("states=4 nnz=9\n0 0 1/2\n0 3 1/2\n1 0 1/3\n1 1 2/3\n1 2 0/1\n"
            "2 1 1/4\n2 3 3/4\n3 0 0/1\n3 3 1/1\n")
    chain = read_sparse(text)
    rows, _ = oracle.read_sparse(text)
    assert 0 in chain.nums.tolist()
    mu = [Fraction(1, 5), Fraction(2, 5), Fraction(0), Fraction(2, 5)]
    parts = (oracle.partition(((1, 0), (3, 2)), ("A", "B")),
             oracle.partition(((1,), (0, 2), (3,)), ("A", "B", "C")))
    for part in parts:
        forced = block_row_sums(chain, part, [block[0] for block in part.blocks])
        assert 0 not in forced.nums.tolist()
        check_lumping(chain, rows, part)
        check_profiles(chain, rows, part, mu, 6)
        # state 2 is flagged, but of its sums only the one into block B
        # (0 against 1/2) lies beyond 0.25; A's and C's are exactly 0.25 off
        for exhaustive in (False, True):
            assert (check_lumpable(chain, part, tol=0.25, exhaustive=exhaustive)
                    == oracle.check_lumpable(rows, part, tol=0.25, exhaustive=exhaustive))
    assert max(commutation_profile(chain, parts[0], mu, 6, force=True)) > 0


@pytest.mark.parametrize("text, absorbing", [
    ("states=2 nnz=3\n0 0 1/1\n0 1 0/1\n1 1 1/1\n", (0, 1)),
    ("states=2 nnz=3\n0 0 1/1\n0 1 0/1\n1 0 1/1\n", (0,)),
    ("states=4 nnz=9\n0 0 1/2\n0 3 1/2\n1 0 1/3\n1 1 2/3\n1 2 0/1\n"
     "2 1 1/4\n2 3 3/4\n3 0 0/1\n3 3 1/1\n", (3,)),
])
def test_zero_entries_are_no_transitions_in_the_analysis(text, absorbing):
    """An entry of 0/1 joins no component, leaves none and keeps no state
    from being absorbing, in the package as in the references."""
    chain = read_sparse(text)
    rows, _ = oracle.read_sparse(text)
    assert classify_states(chain) == oracle.classify_states(rows)
    assert classify_states(chain).absorbing == absorbing
    check_absorption(chain, rows)


def _outcome(parse, text):
    try:
        return parse(text)
    except (DocumentParseError, ValidationError) as exc:
        return type(exc).__name__, str(exc)


def _mutations(text, rng):
    """Malformed and unusual variants of a sparse document."""
    header, *body = text.splitlines()
    out = []

    def doc(lines):
        out.append("\n".join([header] + lines) + "\n")

    i = rng.randrange(1, len(body))
    doc(body[:i - 1] + [body[i], body[i - 1]] + body[i + 1:])          # out of order
    doc(body[:i] + [body[i - 1]] + body[i + 1:])                        # repeated pair
    doc(body[:i] + body[i + 1:])                                        # entry count
    x, y, value = body[i].split()
    for bad in ("1/0", "abc", "1/-2", "-1/6", "0.5", "1e-1", "1E-1", "0", "+1/6", "1/7",
                "٣/6", "1_0/60", "1/99999999999999999999999999"):
        doc(body[:i] + [f"{x} {y} {bad}"] + body[i + 1:])
    for row, col in (("-1", y), (x, "99999"), ("99999999999999999999999", y), ("1.0", y)):
        doc(body[:i] + [f"{row} {col} {value}"] + body[i + 1:])
    n_states = int(header.split()[0].split("=")[1])
    for row, col in ((str(n_states), y), (x, str(n_states)), (x.zfill(19), y)):
        doc(body[:i] + [f"{row} {col} {value}"] + body[i + 1:])
    # the same value with 18 digits (read in bulk) and 19 (read line by line)
    num, den = value.split("/")
    for digits in (18, 19):
        pad = "0" * (digits - len(den))
        doc(body[:i] + [f"{x} {y} {num}{pad}/{den}{pad}"] + body[i + 1:])
    k = -(-2 ** 63 // int(den))                                         # past int64
    doc(body[:i] + [f"{x} {y} {int(num) * k}/{int(den) * k}"] + body[i + 1:])
    for nnz in (len(body) - 1, len(body) + 1):                          # header count
        out.append("\n".join([f"states={n_states} nnz={nnz}"] + body) + "\n")
    out.append("\n".join([f"states={n_states} nnz={len(body) + 1}"] + body[:i]
                         + [f"{x} {y} 1/0"] + body[i:]) + "\n")       # count first
    out.append(f"{header} nnz={len(body)}\n" + "\n".join(body) + "\n")   # repeated key
    out.append("states=2 nnz=0\n")
    out.append("states=10000000000000 nnz=1\n0 0 1/1\n")
    out.append("states=10000000000000 nnz=2\n0 0 1/1\n3 3 1/1\n")
    doc(body[:i] + [f"{x} {y}"] + body[i + 1:])                         # missing token
    doc(body[:i] + [f"{x} {y} {value} 1"] + body[i + 1:])               # extra token
    doc(body[:i] + [f"  {x}\t{y}   {value}  # note", "", "# comment only"] + body[i + 1:])
    doc(body[:i] + ["# comment only", "", "", f"{x} x {value}"] + body[i + 1:])  # line number
    out.append(text.replace("\n", "\r\n"))
    out.append(text.replace("\n", "\r"))
    out.append("# leading comment\n\n" + text)
    out.append("\n\n" + "\n".join(body) + "\n")                        # no header
    decimals = [f"{a} {b} {float(Fraction(p)):.3f}" for a, b, p in map(str.split, body)]
    doc(decimals)
    return out


@pytest.mark.parametrize("chunk", [None, 1, 100])
@pytest.mark.parametrize("seed", range(6))
def test_parse_errors_match_the_reference(seed, chunk, monkeypatch):
    """Also with pieces of text so short that entries, errors and the
    ascending check fall across piece boundaries."""
    if chunk is not None:
        monkeypatch.setattr(chainmod, "_CHUNK_CHARS", chunk)
        monkeypatch.setattr(chainmod, "_CHUNK_LINES", chunk)
    rng = random.Random(seed)
    rows = oracle.build_rows(random_model(seed))
    text = sparse_text(oracle.write_sparse, rows)
    assert sparse_text(write_sparse, read_sparse(text)) == text
    for variant in [text] + _mutations(text, rng):
        got = _outcome(lambda t: (lambda c: (c.rows, c.exact))(read_sparse(t)), variant)
        assert got == _outcome(oracle.read_sparse, variant), variant


P61, P31 = 2 ** 61 - 1, 2 ** 31 - 1  # primes: their product passes int64


@pytest.mark.parametrize("text", [
    "states=2 nnz=4\n0 0 2/4\n0 1 1/2\n1 0 3/9\n1 1 4/6\n",          # unreduced ratios
    "states=2 nnz=4\n0 0 0/7\n0 1 14/14\n1 0 0/3\n1 1 1/1\n",       # zeros over anything
    "states=2 nnz=4\n0 0 0.25\n0 1 0.75\n1 0 0.5\n1 1 0.5\n",       # decimals
    "states=2 nnz=3\n0 0 1/3\n0 1 0.6666666666666666\n1 1 1/1\n",  # both
    "states=2 nnz=3\n0 0 1\n0 1 0\n1 1 1\n",                       # bare integers
    f"states=2 nnz=3\n0 0 {2 ** 64}/{2 ** 65}\n0 1 1/2\n1 1 1/1\n",  # past int64, reduces
    f"states=2 nnz=3\n0 0 1/{P61 * P31}\n0 1 {P61 * P31 - 1}/{P61 * P31}\n1 1 1/1\n",
    f"states=2 nnz=3\n0 0 {P61}/{P61 * P31}\n0 1 {P31 - 1}/{P31}\n1 1 2/2\n",
    "states=2 nnz=4\n0 0 3/2\n0 1 -1/2\n1 0 1/2\n1 1 1/2\n",        # outside [-1, 1]
    "states=2 nnz=4\n0 0 6/4\n0 1 1/1\n1 0 1/2\n1 1 1/2\n",
    f"states=2 nnz=3\n0 0 {3 * P61}/{2 * P61}\n0 1 -1/2\n1 1 1/1\n",
])
def test_the_common_denominator_matches_the_reference_reader(text):
    """`denom` is the lcm of the reduced denominators, numerators are int64
    while denom * (width + 1) fits and every ratio is in [-1, 1], and a
    rejected chain gives the reference's error."""
    got, want = _outcome(read_sparse, text), _outcome(oracle.read_sparse, text)
    if isinstance(want[0], str):
        assert got == want
        return
    rows, exact = want
    assert (got.rows, got.exact) == (rows, exact)
    denom = lcm(*(p.denominator for row in rows for _, p in row))
    width = max(map(len, rows))
    assert got.denom == denom
    assert got.nums.dtype == (np.int64 if denom * (width + 1) < 2 ** 63 else object)


def _entry_spy(monkeypatch):
    """The lines that reach `chain._entry` from now on."""
    lines, convert = [], chainmod._entry

    def spy(line, n_states, prev):
        lines.append(line)
        return convert(line, n_states, prev)

    monkeypatch.setattr(chainmod, "_entry", spy)
    return lines


def test_the_writers_lines_are_read_in_bulk(monkeypatch):
    """The line converter is never reached on the writer's output."""
    chain = build_micro_chain(builtin_voter(Topology.complete(8)))
    text = sparse_text(write_sparse, chain)
    reached = _entry_spy(monkeypatch)
    again = read_sparse(text)
    assert reached == []
    assert again.rows == chain.rows
    assert sparse_text(write_sparse, again) == text


@pytest.mark.parametrize("chunk", [None, 100])
def test_only_text_outside_the_writers_shape_reaches_the_converter(chunk, monkeypatch):
    """Extra blanks, tabs, CRLF and comment lines are normalised back to
    the writer's lines and read as bytes, giving the same chain; decimals,
    signs, non-ASCII digits and 19-digit integers reach `_entry`."""
    if chunk is not None:
        monkeypatch.setattr(chainmod, "_CHUNK_CHARS", chunk)
    chain = build_micro_chain(builtin_voter(Topology.complete(4)))
    header, *body = sparse_text(write_sparse, chain).splitlines()
    reached = _entry_spy(monkeypatch)
    spaced = [f"  {x}\t{y}   {p}  # entry" for x, y, p in map(str.split, body)]
    for lines in (spaced, [ln + "\r" for ln in body],
                  [part for ln in body for part in ("# note", "", ln)]):
        again = read_sparse("\n".join([header] + lines) + "\n")
        assert reached == []
        assert again.rows == chain.rows and again.exact
    x, y, value = body[1].split()
    num, den = value.split("/")
    pad = "0" * (19 - len(den))
    for line in (f"{x} {y} {float(Fraction(value))!r}", f"+{x} {y} {value}",
                 f"٣ {y} {value}", f"{x} {y} {num}{pad}/{den}{pad}"):
        reached.clear()
        _outcome(read_sparse, "\n".join([header, body[0], line] + body[2:]) + "\n")
        assert line in reached


def test_the_writers_pieces_skip_the_line_pass(monkeypatch):
    """The header is split off first; then every piece of the writer's
    output reaches the byte gate once, as the text holds it, and is found
    in the writer's shape: rejoined, the pieces are the text past the
    header."""
    monkeypatch.setattr(chainmod, "_CHUNK_CHARS", 100)
    text = sparse_text(write_sparse, build_micro_chain(builtin_voter(Topology.complete(5))))
    pieces, gate = [], chainmod._written_fields

    def spy(piece):
        fields = gate(piece)
        pieces.append((piece, fields is not None))
        return fields

    monkeypatch.setattr(chainmod, "_written_fields", spy)
    read_sparse(text)
    assert len(pieces) > 10
    assert all(written for _, written in pieces)
    header, _, body = text.partition("\n")
    assert chainmod._split_header(text) == (header, len(header) + 1)
    assert "\n".join(piece for piece, _ in pieces) + "\n" == body


# near misses of the writer's shape, each a token or separator
NEAR_WRITER = ("1" * 18, "1" * 19, "0" * 18, "0" * 19, "007", "\r\n", "\n", "\n\n", " ",
               "  ", "\t", "+1", "-1", "٣", "０", "²", "\ud800", "", "/", "//", "1/", "?")


def _near_writer_pieces(body, rng, count):
    """(lo, hi, piece): the named near misses, each in place of the first
    line, then `count` windows body[lo:hi] of the writer's lines with up to
    three tokens or separators swapped for, or joined by, one of them."""
    named = ["", "/", "\ud800", "0 0 1/1", "0 0 1/1\n", "0 0 1/1 ", "0  0 1/1",
             "0\t0 1/1", "0 0 1/1\r\n1 1 1/1", "+1 0 1/1", "-1 0 1/1", "٣ 0 1/1",
             "0 ０ 1/1", "0 0 ²/1", f"{'9' * 18} 0 1/1", f"{'9' * 19} 0 1/1",
             f"0 0 {'0' * 17}1/{'0' * 17}1", f"0 0 {'0' * 18}1/1", "0 0 1/1\n\n1 1 1/1"]
    pieces = [(0, 1, piece) for piece in named]
    for _ in range(count):
        lo = rng.randrange(len(body))
        hi = min(len(body), lo + rng.randint(1, 4))
        parts = "\n".join(body[lo:hi]).split(" ")
        parts = [tok for part in parts for tok in (part, " ")][:-1]
        for _ in range(rng.randint(0, 3)):
            at = rng.randrange(len(parts))
            miss = rng.choice(NEAR_WRITER)
            parts[at] = rng.choice((miss, parts[at] + miss, miss + parts[at]))
        pieces.append((lo, hi, "".join(parts)))
    return pieces


def test_the_byte_gate_accepts_what_the_line_regex_accepted(monkeypatch):
    """`_written_fields` finds the writer's shape exactly where the former
    regex did, with the arrays `np.loadtxt` gave; the document with the
    piece in place of the lines it came from reads the same through either
    gate, or fails with the same error."""
    text = sparse_text(write_sparse, build_micro_chain(random_model(3)))
    header, *body = text.splitlines()

    def read(document):
        return _outcome(lambda t: (lambda c: (c.rows, c.exact))(read_sparse(t)), document)

    pieces = _near_writer_pieces(body, random.Random(14), 300)
    found, outcomes = 0, Counter()
    for lo, hi, piece in pieces:
        got, ref = chainmod._written_fields(piece), oracle.written_fields(piece)
        assert (got is None) == (oracle._WRITTEN.fullmatch(piece) is None), repr(piece)
        if got is not None:
            found += 1
            assert [a.dtype for a in got] == [np.dtype(np.int64)] * 4
            assert all(np.array_equal(a, b) for a, b in zip(got, ref)), repr(piece)
        document = "\n".join([header] + body[:lo] + [piece] + body[hi:]) + "\n"
        new = read(document)
        with monkeypatch.context() as patch:
            patch.setattr(chainmod, "_written_fields", oracle.written_fields)
            assert read(document) == new, repr(piece)
        outcomes[new[0] if isinstance(new[0], str) else "read"] += 1
    # both branches of the gate, and reads that pass and fail either way
    assert 0 < found < len(pieces)
    assert set(outcomes) == {"read", "DocumentParseError", "ValidationError"}


def _writer_cases():
    """Chains of every writer branch: the 24 seeded models; int64 chains
    whose reduced denominators have 19 digits; a negative entry; Python
    ints."""
    chains = [build_micro_chain(random_model(seed)) for seed in range(24)]
    for denom in (2 * 10 ** 18 + 1, 2 ** 63 - 1):
        chains.append(chainmod.Chain(np.array([0, 2, 3]), np.array([0, 1, 1]),
                                     np.array([1, denom - 1, denom]), denom))
    chains.append(chainmod.Chain(np.array([0, 2, 3]), np.array([0, 1, 1]),
                                 np.array([3, -1, 2]), 2))
    chains.append(read_sparse(sparse_text(oracle.write_sparse, beyond_int64_rows())))
    return chains


@pytest.mark.parametrize("chunk", [None, 1, 100])
def test_the_byte_writer_matches_the_reference(chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(chainmod, "_CHUNK_LINES", chunk)
    chains = _writer_cases()
    assert chains[-1].nums.dtype == object and chains[-2].nums.min() < 0
    for chain in chains:
        assert sparse_text(write_sparse, chain) == sparse_text(oracle.write_sparse, chain.rows)


def check_orbits(space, gens):
    got, want = orbits(space, gens), oracle.orbits(space, gens)
    assert got.blocks == want.blocks
    assert got.labels == want.labels


@pytest.mark.parametrize("seed", range(24))
def test_orbits_match_the_union_find_reference(seed):
    """Preset, reflection and random generator sets, each generator alone,
    and the identity."""
    rng = random.Random(seed)
    spec = random_model(seed)
    space = ConfigSpace(spec.n_agents, spec.delta)
    identity = SpacePermutation.identity(spec.n_agents, spec.delta)
    check_orbits(space, GeneratorSet("identity", (identity,)))
    for gens in generator_sets(spec, rng):
        check_orbits(space, gens)
        for perm in gens.perms:
            check_orbits(space, GeneratorSet("one", (perm,)))


def transpositions(n, delta, classes, attrs=None):
    """Adjacent transpositions inside each class of agents, with the code
    part `attrs` (the identity when None)."""
    out = []
    for members in classes:
        for i, j in zip(members, members[1:]):
            agents = list(range(n))
            agents[i], agents[j] = j, i
            out.append(SpacePermutation(tuple(agents), attrs or tuple(range(delta))))
    return out


def orbit_sizes_spied(monkeypatch):
    """The sizes `orbits` hands to min-label propagation, call by call: the
    agents first, then the count classes or every state."""
    sizes, propagate_labels = [], symmetry._min_labels
    monkeypatch.setattr(symmetry, "_min_labels",
                        lambda size, images: sizes.append(size) or propagate_labels(size, images))
    return sizes


def agent_class_sets(n, delta):
    """(name, generators, collapses) over the agent classes of a star
    (hub 0) and of two communities of n // 2 agents (and a last agent
    alone when n is odd)."""
    ident, codes = tuple(range(delta)), tuple(range(1, delta)) + (0,)
    half = n // 2
    leaves = transpositions(n, delta, [list(range(1, n))])
    halves = transpositions(n, delta, [list(range(half)), list(range(half, 2 * half))])
    swap_halves = SpacePermutation(tuple((i + half) % (2 * half) if i < 2 * half else i
                                         for i in range(n)), ident)
    three_cycle = list(range(n))
    three_cycle[0], three_cycle[half], three_cycle[half + 1] = half, half + 1, 0
    swapped = (1, 0) + ident[2:]
    code_swap, hub_swap = (transpositions(n, delta, [pair], swapped) for pair in ([1, 2], [0, 1]))
    return [
        ("star", leaves, True),
        ("star+codes", leaves + [SpacePermutation(tuple(range(n)), codes)], True),
        ("communities", halves, True),
        ("communities+swap", halves + [swap_halves], True),
        ("communities+codes", halves + list(parse_presets("Sdelta", n, delta).perms), True),
        ("communities+3-cycle", halves + [SpacePermutation(tuple(three_cycle), ident)], False),
        ("coded transposition", code_swap, False),
        ("star+coded transposition", leaves + code_swap, True),
        ("star+coded hub transposition", leaves + hub_swap, False),
        ("identity", [SpacePermutation.identity(n, delta)], False),
        ("one transposition+identity",
         transpositions(n, delta, [[1, n - 1]]) + [SpacePermutation.identity(n, delta)], True),
    ]


@pytest.mark.parametrize("n, delta", [(7, 2), (6, 2), (6, 3), (5, 3), (5, 4), (4, 4)])
def test_orbits_over_agent_classes_match_the_union_find_reference(n, delta, monkeypatch):
    """Transpositions that join agents into classes, with generators that
    map each class onto a class (propagation over the count classes) or
    that split one (propagation over every state)."""
    space = ConfigSpace(n, delta)
    sizes = orbit_sizes_spied(monkeypatch)
    for name, perms, collapses in agent_class_sets(n, delta):
        check_orbits(space, GeneratorSet(name, tuple(perms)))
        assert (sizes[-1] < space.size) == collapses, name


def test_the_star_lumps_into_hub_code_by_leaf_count_blocks():
    space = ConfigSpace(7, 2)
    leaves = GeneratorSet("leaves", tuple(transpositions(7, 2, [list(range(1, 7))])))
    check_orbits(space, leaves)
    part = orbits(space, leaves)
    assert part.n_blocks == 14 and part.labels[:3] == ("⟨7,0⟩", "O1", "O2")


@pytest.mark.parametrize("seed", range(12))
def test_smallest_images_match_the_permutation_reference(seed):
    """Random agent-class maps, whose classes need not be runs of agents
    and may hold one agent, then one class and every agent alone; the
    count partition is the orbit partition of SN, labels included."""
    rng = random.Random(300 + seed)
    n, delta = rng.randint(1, 7), rng.randint(2, 4)
    space = ConfigSpace(n, delta)
    k = rng.randint(1, n)
    for classes in ([rng.randrange(k) for _ in range(n)], [0] * n, list(range(n))):
        got = space.smallest_images(classes)
        assert got.dtype == np.int64
        assert np.array_equal(got, oracle.smallest_images(space, classes)), classes
    sn = orbits(space, parse_presets("SN", n, delta))
    freq = frequency_partition(space)
    assert (freq.blocks, freq.labels) == (sn.blocks, sn.labels)


PRESETS = {2: ("SN", "Sdelta", "Sdelta-1:0", "flip", "full"),
           3: ("SN", "Sdelta", "Sdelta-1:0", "Sdelta-1:2", "full"),
           4: ("SN", "Sdelta", "Sdelta-1:1", "full")}


@pytest.mark.parametrize("n, delta", [(6, 2), (1, 2), (5, 3), (4, 4)])
def test_orbits_of_every_preset_and_pair_match_the_union_find_reference(n, delta):
    space = ConfigSpace(n, delta)
    for pair in itertools.combinations_with_replacement(PRESETS[delta], 2):
        for text in (pair[0], ",".join(pair)):
            check_orbits(space, parse_presets(text, n, delta))


def listed(blocks, labels, rng=None):
    """The package's partition and the tuple reference over the same
    blocks, listed in random order with shuffled members when `rng` is
    given."""
    blocks, labels = [list(b) for b in blocks], list(labels)
    if rng is not None:
        order = rng.sample(range(len(blocks)), len(blocks))
        blocks = [rng.sample(blocks[i], len(blocks[i])) for i in order]
        labels = [labels[i] for i in order]
    return (oracle.partition(blocks, labels),
            oracle.TuplePartition(tuple(map(tuple, blocks)), tuple(labels)))


def jittered(rows, rng):
    """Each row with up to 0.004 of its largest entry moved to another
    entry: a partition lumpable before still passes at tolerance 0.01, and
    the reduced rows depend on the member `lump` reads."""
    out = []
    for row in rows:
        row = list(row)
        if len(row) > 1:
            a = max(range(len(row)), key=lambda i: row[i][1])
            b = rng.choice([i for i in range(len(row)) if i != a])
            move = row[a][1] * Fraction(rng.randint(1, 4), 1000)
            row[a], row[b] = (row[a][0], row[a][1] - move), (row[b][0], row[b][1] + move)
        out.append(tuple(row))
    return tuple(out)


def _induced(induce, fine, coarse):
    try:
        got = induce(fine, coarse)
    except ValidationError as exc:
        return str(exc)
    return got.blocks, got.labels, list(got.block_of)


@pytest.mark.parametrize("seed", range(24))
def test_partition_arrays_match_the_tuple_reference(seed):
    """Orbit, count, Moran and half-hypercube partitions against the tuple
    reference over the tuple grouping, then the same blocks shuffled and a
    random partition: blocks, labels, `block_of`, induced partitions both
    ways round, and `lump` at tolerance 0.01 on a jittered chain, where
    each block's first listed member decides the reduced row."""
    rng = random.Random(2000 + seed)
    spec = random_model(seed)
    space = ConfigSpace(spec.n_agents, spec.delta)
    n = space.n_agents
    counts = np.array([oracle.counts(space, space.config_of(x)) for x in range(space.size)])
    _, first, inverse = np.unique(counts, axis=0, return_index=True, return_inverse=True)
    freq = oracle.group_blocks(first[inverse.reshape(-1)])
    pairs = [(orbits(space, gens), oracle.orbits(space, gens))
             for gens in generator_sets(spec, rng)]
    pairs.append((frequency_partition(space), oracle.TuplePartition(
        freq, tuple(count_label(counts[b[0]]) for b in freq))))
    for code in range(space.delta):
        pairs.append((moran_partition(space, code), oracle.TuplePartition(
            oracle.group_blocks(counts[:, code]), tuple(f"X_{k}" for k in range(n + 1)))))
    if space.delta == 2:
        pairs.append((half_hypercube_partition(space), oracle.TuplePartition(
            oracle.group_blocks(np.minimum(counts[:, 0], n - counts[:, 0])),
            tuple(f"Y_{k}" for k in range(n // 2 + 1)))))
    pairs += [listed(want.blocks, want.labels, rng) for _, want in pairs]
    drawn = random_partition(space.size, rng)
    pairs.append(listed(drawn.blocks, drawn.labels, rng))
    for got, want in pairs:
        assert got.blocks == want.blocks and got.labels == want.labels
        assert got.block_of.dtype == np.int64 and list(got.block_of) == list(want.block_of)
        assert (got.n_states, got.n_blocks) == (want.n_states, want.n_blocks)
    refinements = 0
    for (fine, fine_ref), (coarse, coarse_ref) in itertools.product(pairs, repeat=2):
        got = _induced(induced_partition, fine, coarse)
        assert got == _induced(oracle.induced_partition, fine_ref, coarse_ref)
        refinements += not isinstance(got, str)
    assert refinements >= 2 * len(pairs)
    rows = jittered(oracle.build_rows(spec), rng)
    chain = read_sparse(sparse_text(oracle.write_sparse, rows))
    for got, want in pairs:
        try:
            ref = oracle.lump(rows, want, tol=0.01)
        except ValueError as exc:
            with pytest.raises(NotLumpableError) as err:
                lump(chain, got, tol=0.01)
            assert err.value.witness == exc.args[0].witness
        else:
            assert sparse_text(write_sparse, lump(chain, got, tol=0.01)) \
                == sparse_text(oracle.write_sparse, ref)


@pytest.mark.parametrize("size", [1, 2, 7, None])
def test_partitions_written_a_slice_at_a_time_match_the_reference(size, monkeypatch):
    """Blocks longer than the slice are written across several slices,
    with the bytes of the writer that formats a block's line at once."""
    if size is not None:
        monkeypatch.setattr(lumping, "_WRITE_SLICE", size)
    rng = random.Random(12)
    space = ConfigSpace(6, 3)
    parts = [frequency_partition(space), moran_partition(space, 1),
             orbits(space, parse_presets("SN", 6, 3)), random_partition(space.size, rng),
             oracle.partition([[2, 0], [1]], ("only", "two"))]
    for part in parts:
        got, want = io.StringIO(), io.StringIO()
        write_partition(part, got)
        oracle.write_partition(part, want)
        assert got.getvalue() == want.getvalue()


def _read_outcome(read, text):
    """Members (with their dtype), block bounds and labels read from a
    partition document, or the error's type, message and line."""
    try:
        part = read(text)
    except (DocumentParseError, ValidationError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)
    return part.members.dtype, part.members.tolist(), part.indptr.tolist(), part.labels


def _spy_byte_pass(monkeypatch):
    """A list that gets, for each piece of partition bodies converted in
    the byte pass, whether it was in the writer's shape."""
    taken, inner = [], lumping.written_ints

    def spy(piece, cycle):
        got = inner(piece, cycle)
        taken.append(got is not None)
        return got

    monkeypatch.setattr(lumping, "written_ints", spy)
    return taken


# near misses of the writer's ` idx` bodies, each an index or separator
NEAR_BODY = ("+5", "-1", "٣", "1_0", "\t", "  ", " ", "", "1" * 19, str(2 ** 63),
             "0" * 18, "007", "x", ":", "\ud800")


def _near_partition_documents(text, rng, count):
    """The written document, short ones, each near miss as a whole body,
    large indices repeated, and `count` copies with up to two indices or spaces of one line swapped
    for, or joined by, a near miss."""
    lines = text.splitlines()
    docs = [text, "", "# none\n", "A:", "A: 0\nB:", "A 0 1", "A: x\nB 1"]
    docs += [f"A:{miss}\nB: 1\n" for miss in NEAR_BODY]
    # one index twice: the message shows it exactly, past int64 too
    docs += [f"A: 0 {big}\nB: {big}\n" for big in ("9" * 18, "1" * 19, str(2 ** 63))]
    for _ in range(count):
        at = rng.randrange(len(lines))
        label, _, body = lines[at].partition(":")
        parts = [tok for part in body.split(" ") for tok in (part, " ")][:-1]
        for _ in range(rng.randint(1, 2)):
            k = rng.randrange(len(parts))
            miss = rng.choice(NEAR_BODY)
            parts[k] = rng.choice((miss, parts[k] + miss, miss + parts[k]))
        docs.append("\n".join(lines[:at] + [f"{label}:{''.join(parts)}"] + lines[at + 1:]))
    return docs


@pytest.mark.parametrize("chunk", [1, 3, None])
def test_partition_bodies_near_the_writers_shape_read_as_before(chunk, monkeypatch):
    """Members, labels and messages (with their line) are those of the
    reader that converts every index with int(), whether the bodies take
    the byte pass or not, at any piece size."""
    if chunk is not None:
        monkeypatch.setattr(chainmod, "_CHUNK_CHARS", chunk)
    part = orbits(ConfigSpace(4, 3), parse_presets("SN", 4, 3))
    buf = io.StringIO()
    write_partition(part, buf)
    taken = _spy_byte_pass(monkeypatch)
    outcomes = Counter()
    for doc in _near_partition_documents(buf.getvalue(), random.Random(15), 300):
        got = _read_outcome(lumping.read_partition, doc)
        assert got == _read_outcome(oracle.read_partition, doc), repr(doc)
        outcomes[got[0] if isinstance(got[0], str) else "read"] += 1
    assert set(outcomes) == {"read", "DocumentParseError", "ValidationError"}
    assert True in taken and False in taken


@pytest.mark.parametrize("n", range(1, 13))
def test_written_partitions_take_the_byte_pass(n, monkeypatch):
    """Moran and orbit partitions up to N=12, as the writer writes them,
    read through the byte pass to the reference's arrays and labels."""
    parts = []
    for delta in (2, 3) if n <= 6 else (2,):
        space = ConfigSpace(n, delta)
        parts += [moran_partition(space, delta - 1)]
        parts += [orbits(space, parse_presets(gens, n, delta)) for gens in ("SN", "Sdelta")]
    taken = _spy_byte_pass(monkeypatch)
    for part in parts:
        buf = io.StringIO()
        write_partition(part, buf)
        got = _read_outcome(lumping.read_partition, buf.getvalue())
        assert got == _read_outcome(oracle.read_partition, buf.getvalue())
        assert got[1:] == (part.members.tolist(), part.indptr.tolist(), part.labels)
    assert len(taken) >= len(parts) and all(taken)


# primes near 2**31: every lcm of two or more of them exceeds 2**63
P1, P2, P3 = 2147483647, 2147483629, 2147483587


def beyond_int64_rows():
    """Four stochastic rows whose common denominator is P1*P2*P3*6."""
    a, b = Fraction(1, P1), Fraction(1, P2)
    return (
        ((0, 1 - a), (2, a / 2), (3, a / 2)),
        ((0, Fraction(1, P3)), (1, 1 - a - Fraction(1, P3)), (2, a / 3), (3, 2 * a / 3)),
        ((0, b), (2, 1 - b)),
        ((1, b), (2, Fraction(1, P3)), (3, 1 - b - Fraction(1, P3))),
    )


def test_denominators_beyond_int64_use_python_ints():
    """A chain whose common denominator P1*P2*P3 exceeds 2**63 stays exact
    through read, lumping test, reduction, write and analysis."""
    a, b = Fraction(1, P1), Fraction(1, P2)
    rows = beyond_int64_rows()
    text = sparse_text(oracle.write_sparse, rows)
    chain = read_sparse(text)
    assert chain.nums.dtype == object and chain.denom == P1 * P2 * P3 * 6
    assert chain.rows == rows
    assert sparse_text(write_sparse, chain) == text
    good = oracle.partition(((1, 0), (2, 3)), ("A", "B"))
    bad = oracle.partition(((0, 2), (1, 3)), ("C", "D"))
    assert check_lumpable(chain, good)
    for part in (good, bad):
        check_lumping(chain, rows, part)
    check_analysis(chain, rows, [Fraction(1, 4)] * 4, [good, bad], 5)
    macro = lump(chain, good)
    assert macro.rows == (((0, 1 - a), (1, a)), ((0, b), (1, 1 - b)))
    assert sparse_text(write_sparse, macro) == f"states=2 nnz=4\n0 0 {P1 - 1}/{P1}\n" \
        f"0 1 1/{P1}\n1 0 1/{P2}\n1 1 {P2 - 1}/{P2}\n"


def test_build_beyond_int64_uses_python_ints():
    """Edge weights whose sums are large primes give draw probabilities
    with a common denominator above 2**63."""
    edges = {(0, 1): 1, (0, 2): P1 - 1, (1, 0): 1, (1, 2): P2 - 1,
             (2, 0): 1, (2, 1): P3 - 1}
    spec = builtin_voter(Topology(3, edges))
    chain = build_micro_chain(spec)
    assert chain.nums.dtype == object
    rows = oracle.build_rows(spec)
    assert chain.rows == rows
    assert sparse_text(write_sparse, chain) == sparse_text(oracle.write_sparse, rows)
    gens = parse_presets("Sdelta", 3, 2)
    assert is_chain_symmetric(chain, gens) == oracle.is_chain_symmetric(rows, chain.space, gens)


# ---------------------------------------------------------------------------
# analysis over the integer arrays


def random_distribution(n_states, rng):
    """Mass on a few states, with mixed denominators."""
    support = rng.sample(range(n_states), min(n_states, rng.randint(1, 5)))
    weights = [Fraction(rng.randint(1, 9), rng.choice((1, 2, 3, 5, 7, 11))) for _ in support]
    mu = [Fraction(0)] * n_states
    for x, w in zip(support, weights):
        mu[x] = w / sum(weights)
    return mu


def absorption_outcome(analyze, matrix):
    """Everything a report holds, float arrays as their bytes."""
    try:
        r = analyze(matrix)
    except AnalysisError as exc:
        return str(exc)
    return (r.absorbing, r.transient, r.recurrent_classes, r.probs.shape,
            r.probs.tobytes(), r.expected_steps.tobytes(), r.residual_probs, r.residual_steps)


def check_profiles(chain, rows, part, mu, t_max):
    assert (commutation_profile(chain, part, mu, t_max, force=True)
            == oracle.commutation_profile(rows, part, mu, t_max, force=True))
    try:
        ref = oracle.commutation_profile(rows, part, mu, t_max)
    except ValueError as exc:
        with pytest.raises(NotLumpableError) as err:
            commutation_profile(chain, part, mu, t_max)
        assert err.value.witness == exc.args[0].witness
    else:
        assert commutation_profile(chain, part, mu, t_max) == ref


def within(values, ref, bound):
    """|values - ref| <= bound, relative where |ref| exceeds 1."""
    ref = np.asarray(ref, dtype=np.float64)
    return bool(np.all(np.abs(values - ref) <= bound * np.maximum(1.0, np.abs(ref))))


def check_absorption(chain, rows):
    """The report's bits are the component-wise reference's; its values
    are within 1e-12 of the whole-system solve, and, on at most 40
    transient states, within 1e-13 of the exact ones."""
    assert (absorption_outcome(absorption_analysis, chain)
            == absorption_outcome(oracle.absorption_analysis, rows))
    try:
        report = absorption_analysis(chain)
    except AnalysisError:
        return
    dense = oracle.dense_absorption_analysis(rows)
    assert within(report.probs, dense.probs, 1e-12)
    assert within(report.expected_steps, dense.expected_steps, 1e-12)
    if len(report.transient) <= 40:
        probs, steps = oracle.exact_absorption(rows)
        probs = np.array(probs, dtype=float).reshape(report.probs.shape)  # nt may be 0
        assert np.abs(report.probs - probs).max(initial=0) <= 1e-13
        assert np.abs(report.expected_steps - np.array(steps, dtype=float)).max(initial=0) <= 1e-13


def check_analysis(chain, rows, mu, parts, horizon):
    for t in (0, 1, horizon):
        assert propagate(chain, mu, t) == oracle.propagate(rows, mu, t)
    assert classify_states(chain) == oracle.classify_states(rows)
    check_absorption(chain, rows)
    for part in parts:
        check_profiles(chain, rows, part, mu, horizon)


@pytest.mark.parametrize("seed", range(24))
def test_analysis_matches_the_fraction_references(seed):
    spec = random_model(seed)
    rng = random.Random(2000 + seed)
    chain = build_micro_chain(spec)
    rows = oracle.build_rows(spec)
    space = chain.space
    parts = [orbits(space, gens) for gens in generator_sets(spec, rng)]
    parts += [frequency_partition(space), random_partition(space.size, rng)]
    check_analysis(chain, rows, random_distribution(space.size, rng), parts, 6)


def dtypes_along(chain, mu, t):
    """Numerator dtype at each of the first t + 1 steps."""
    steps = analysis._trajectory(chain, *analysis.to_numerators(mu))
    return [nums.dtype for nums, _ in itertools.islice(steps, t + 1)]


def test_long_horizon_crosses_into_python_ints(voter3, voter3_chain):
    """Step denominators grow past 2**63 within 40 steps: int64 first,
    Python ints after, equal to the references throughout."""
    chain, rows = voter3_chain, oracle.build_rows(voter3)
    mu = [Fraction(1, 3), Fraction(0), Fraction(1, 7), Fraction(0),
          Fraction(0), Fraction(11, 21), Fraction(0), Fraction(0)]
    kinds = dtypes_along(chain, mu, 40)
    assert kinds[0] == np.int64 and kinds[-1] == object
    parts = [frequency_partition(chain.space), moran_partition(chain.space, 0),
             oracle.partition(((0, 1, 2), (3, 4, 5, 6, 7)), ("L", "H"))]
    check_analysis(chain, rows, mu, parts, 40)


def absorbing_rows(a, b, c):
    """Two absorbing ends joined by two transient states."""
    return (((0, Fraction(1)),),
            ((0, a), (1, 1 - a - c), (2, c)),
            ((1, b), (2, 1 - b - a), (3, a)),
            ((3, Fraction(1)),))


# lies between 2**53 and 2**63: int64 numerators that a double division
# would round twice
D55 = P1 * 3 ** 15


@pytest.mark.parametrize("dtype, rows", [
    (np.int64, absorbing_rows(Fraction(D55 // 3 + 1, D55), Fraction(1, 4),
                              Fraction(D55 // 5 + 7, D55))),
    (object, absorbing_rows(Fraction(P1 // 3, P1), Fraction(P2 // 4, P2),
                            Fraction(P3 // 5, P3))),
], ids=["int64-above-2**53", "python-ints"])
def test_large_denominators_match_the_references(dtype, rows):
    chain = read_sparse(sparse_text(oracle.write_sparse, rows))
    assert chain.nums.dtype == dtype and chain.denom > 2 ** 53
    parts = [oracle.partition(((0,), (1, 2), (3,)), ("A", "T", "B")),
             oracle.partition(((0, 3), (1, 2)), ("E", "T"))]
    check_analysis(chain, rows, [Fraction(0), Fraction(2, 5), Fraction(3, 5), Fraction(0)],
                   parts, 9)


def digraph_chain(succ):
    """The chain that moves uniformly to one of each state's successors,
    read back from the references' text, and its Fraction rows."""
    rows = tuple(tuple((y, Fraction(1, len(out))) for y in sorted(out)) for out in succ)
    return read_sparse(sparse_text(oracle.write_sparse, rows)), rows


def random_digraph(rng, n, loops):
    """Uniform successor picks, one per state eight times in ten, else two
    or three, so that several closed classes form. Without `loops` a pick
    of the state itself moves on to the next state; with them a state gains
    a self-loop one time in four, and keeps only that one time in 50."""
    succ = [{(y + (y == x and not loops)) % n
             for y in rng.choices(range(n), k=rng.choice((1,) * 8 + (2, 3)))} for x in range(n)]
    for x, out in enumerate(succ):
        if loops and rng.random() < 0.25:
            out.add(x)
        if loops and rng.random() < 0.02:
            succ[x] = {x}
    return succ


@pytest.mark.parametrize("loops", [False, True], ids=["no-loops", "loops"])
@pytest.mark.parametrize("seed", range(8))
def test_classes_of_random_sparse_digraphs(seed, loops):
    rng = random.Random(7100 + seed)
    chain, rows = digraph_chain(random_digraph(rng, rng.randint(2, 300), loops))
    assert classify_states(chain) == oracle.classify_states(rows)


# successor sets, then the absorbing states, the transient states and the
# recurrent classes they have
DIGRAPHS = {
    "closed-classes": ([{1, 2}, {4}, {5}, {0, 3}, {7}, {2, 8}, {3, 6}, {1, 4}, {5}],
                       (), (0, 3, 6), ((1, 4, 7), (2, 5, 8))),
    "transient-cycle-feeds-two": ([{1}, {2, 5}, {0, 3}, {4}, {3}, {6}, {5, 6}],
                                  (), (0, 1, 2), ((3, 4), (5, 6))),
    "reached-by-a-long-path": ([{x + 1} for x in range(58)] + [{59}, {58}],
                               (), tuple(range(58)), ((58, 59),)),
    "isolated-absorbing": ([{0}, {2}, {1, 3}, {3}, {4}, {1, 5}],
                           (0, 3, 4), (1, 2, 5), ((0,), (3,), (4,))),
}


@pytest.mark.parametrize("name", DIGRAPHS)
def test_classes_of_shaped_digraphs(name):
    succ, absorbing, transient, recurrent = DIGRAPHS[name]
    chain, rows = digraph_chain(succ)
    cls = classify_states(chain)
    assert cls == oracle.classify_states(rows)
    assert (cls.absorbing, cls.transient, cls.recurrent_classes) == (absorbing, transient, recurrent)


@pytest.mark.parametrize("last", ["1", "0.99999999999"])
def test_decimal_chain_matches_the_references(last):
    """Decimal entries whose rows sum to one only within the tolerance:
    mass is not conserved, and the references see the same rationals. A
    lone self-loop short of one is not absorbing."""
    text = ("states=5 nnz=11\n0 0 1.0\n"
            "1 0 0.333333333333\n1 1 0.333333333333\n1 2 0.333333333333\n"
            "2 1 0.25\n2 2 0.5\n2 3 0.25\n"
            f"3 2 0.1\n3 3 0.2\n3 4 0.7000000001\n4 4 {last}\n")
    chain = read_sparse(text)
    assert not chain.exact
    rows, exact = oracle.read_sparse(text)
    assert chain.rows == rows and not exact
    parts = [oracle.partition(((0,), (1, 2, 3), (4,)), ("A", "T", "B")),
             oracle.partition(((0, 4), (1, 3), (2,)), ("E", "O", "M"))]
    mu = [Fraction(0), Fraction(1, 6), Fraction(1, 2), Fraction(1, 3), Fraction(0)]
    check_analysis(chain, rows, mu, parts, 12)
    assert sum(propagate(chain, mu, 12)) != 1


def test_mu0_file_with_mixed_denominators(tmp_path):
    """`propagate --mu0` through the command line writes the reference
    distribution."""
    rows = oracle.build_rows(random_model(5))
    chain_path, mu_path, out = tmp_path / "c.sparse", tmp_path / "mu0", tmp_path / "out"
    chain_path.write_text(sparse_text(oracle.write_sparse, rows), encoding="utf-8")
    mu = [Fraction(0)] * len(rows)
    mu[0], mu[3], mu[5], mu[-1] = Fraction(1, 3), Fraction(1, 4), Fraction(1, 6), Fraction(1, 4)
    mu_path.write_text("0 1/3\n3 1/4\n5 2/12\n# last state\n"
                       f"{len(rows) - 1} 0.25\n", encoding="utf-8")
    code = cli.main(["propagate", str(chain_path), "--mu0", str(mu_path), "-t", "9",
                     "-o", str(out)])
    assert code == 0
    ref = oracle.propagate(rows, mu, 9)
    buf = io.StringIO()
    analysis.write_distribution(ref, buf)
    assert out.read_text(encoding="utf-8") == buf.getvalue()


Z6 = [Fraction(0)] * 6
# start distributions over voter3's 8 states: each entry type the checks
# take, valid and broken
DISTRIBUTIONS = {
    "fractions": [Fraction(1, 3), Fraction(2, 3)] + Z6,
    "short": [Fraction(1)] + Z6,
    "long": [Fraction(1)] + Z6 * 2,
    "negative": [Fraction(3, 2), Fraction(-1, 2)] + Z6,
    "negative, sum zero": [Fraction(1, 2), Fraction(-1, 2)] + Z6,
    "sum 5/6": [Fraction(1, 2), Fraction(1, 3)] + Z6,
    "ints": [0, 1] + [0] * 6,
    "ints summing to 2": [1, 1] + [0] * 6,
    "bools": [False, True] + [False] * 6,
    "two trues": [True, True] + [False] * 6,
    "floats": [0.5, 0.25, 0.125, 0.125] + [0.0] * 4,
    "float tenths": [0.1, 0.9] + [0.0] * 6,
    "negative float": [1.5, -0.5] + [0.0] * 6,
    "decimals": [Decimal("0.1"), Decimal("0.9")] + [Decimal(0)] * 6,
    "decimals short of one": [Decimal("0.3")] * 3 + [Decimal(0)] * 5,
    "strings": ["1/2", "1/4", "1/4"] + ["0"] * 5,
    "strings summing to 5/6": ["1/2", "1/3"] + ["0"] * 6,
    "mixed": [Fraction(1, 6), "1/3", Decimal("0.25"), 0.25, 0, False, 0, Fraction(0)],
    "past int64": [Fraction(1, 3**50), 1 - Fraction(1, 3**50)] + Z6,
    "sum past int64": [Fraction(2**70, 3), Fraction(1, 3**45)] + Z6,
    "bad string": ["1/2", "half"] + ["0"] * 6,
    "nan": [float("nan"), 1.0] + [0.0] * 6,
    "infinity": [float("inf")] + [0.0] * 7,
    "none": [None, 1] + [0] * 6,
}


def outcome(check, *args):
    """What `check` returns, or the type and message of what it raises."""
    try:
        return check(*args)
    except (ArithmeticError, TypeError, ValueError, ValidationError) as exc:
        return type(exc), str(exc)


def reference_numerators(mu, n_states):
    """The reference's Fractions over the lcm of their denominators."""
    mu = oracle.validate_distribution(mu, n_states)
    denom = lcm(*(p.denominator for p in mu))
    return [p.numerator * (denom // p.denominator) for p in mu], denom


def package_numerators(mu, n_states):
    nums, denom = analysis.start_numerators(mu, n_states)
    return nums.tolist(), denom


@pytest.mark.parametrize("name", DISTRIBUTIONS)
def test_start_distributions_check_as_the_reference_does(name, voter3, voter3_chain):
    """The integer checks give the reference's numerators, or its error
    type and message, from propagate and commutation_profile too."""
    mu = DISTRIBUTIONS[name]
    rows, part = oracle.build_rows(voter3), frequency_partition(voter3_chain.space)
    expected = outcome(reference_numerators, mu, 8)
    assert outcome(package_numerators, mu, 8) == expected
    for t in (0, 3):
        assert (outcome(propagate, voter3_chain, mu, t)
                == outcome(oracle.propagate, rows, mu, t))
        assert (outcome(commutation_profile, voter3_chain, part, mu, t, True)
                == outcome(oracle.commutation_profile, rows, part, mu, t, True))
    assert (outcome(analysis.validate_distribution, mu, 8)
            == outcome(oracle.validate_distribution, mu, 8))


@pytest.mark.parametrize("text", ["0 1/2\n1 1/3\n", "0 1/2\n1 0.25\n", "0 1e400\n",
                                  "0 0.1\n1 0.9\n", "3 1/2\n5 2/4\n", "0 -1/2\n1 3/2\n",
                                  "0 -0.5\n1 1.5\n", "7 0.3\n"])
def test_distribution_files_check_as_the_reference_does(text):
    """Ratios show a bad sum exactly and decimals as a float, as the
    reference shows them."""
    mu, exact = [Fraction(0)] * 8, True
    for line in text.splitlines():
        x, p = line.split()
        mu[int(x)], exact = Fraction(p), exact and "/" in p
    assert (outcome(analysis.read_distribution, text, 8)
            == outcome(oracle.validate_distribution, mu, 8, exact))


# ---------------------------------------------------------------------------
# absorption and witnesses at the benchmark's scale

LAPACK_MODELS = {
    # the benchmark's path-analyze chain: 2187 states, 2184 transient
    "path7-three-codes": lambda: builtin_voter(path_topology(7),
                                               labels=("red", "green", "blue")),
    "complete11": lambda: builtin_voter(Topology.complete(11)),
}


def line_rows(n):
    """x -> x, x + 1, x + 2 with weights 1/4, 1/2, 1/4, the steps past the
    last state landing on it, which absorbs: n - 1 single-state transient
    components, each of its own height."""
    rows = []
    for x in range(n - 1):
        row = {}
        for y, p in ((x, Fraction(1, 4)), (x + 1, Fraction(1, 2)), (x + 2, Fraction(1, 4))):
            row[min(y, n - 1)] = row.get(min(y, n - 1), 0) + p
        rows.append(tuple(sorted(row.items())))
    return tuple(rows) + (((n - 1, Fraction(1)),),)


@functools.lru_cache(maxsize=None)
def scale_chain(name):
    """(name, chain, Fraction rows) of a LAPACK_MODELS model or the 2401-state line."""
    if name == "line2401":
        rows = line_rows(2401)
        return name, read_sparse(sparse_text(oracle.write_sparse, rows)), rows
    spec = LAPACK_MODELS[name]()
    return name, build_micro_chain(spec), oracle.build_rows(spec)


@functools.lru_cache(maxsize=None)
def dense_report(name):
    return oracle.dense_absorption_analysis(scale_chain(name)[2])


@pytest.fixture(params=list(LAPACK_MODELS))
def lapack_chain(request):
    return scale_chain(request.param)


@pytest.fixture(params=[*LAPACK_MODELS, "line2401"])
def absorbing_chain(request):
    return scale_chain(request.param)


def test_absorption_at_lapack_scale_matches_the_reference_bits(absorbing_chain):
    """The batched component solves at thousands of states give the
    component-wise reference's bits: the report's arrays, its residuals and
    the `--format kv` text."""
    _, chain, rows = absorbing_chain
    report, ref = absorption_analysis(chain), oracle.absorption_analysis(rows)
    assert len(report.transient) >= 2000
    assert (absorption_outcome(lambda _: report, chain)
            == absorption_outcome(lambda _: ref, rows))
    assert analysis.absorption_kv(report) == analysis.absorption_kv(ref)


# transient components: path7's are many and small, complete11's one, the
# line's all single states
TRANSIENT_COMPONENTS = {"path7-three-codes": (378, 20, 192), "complete11": (1, 2046, 0),
                        "line2401": (2400, 1, 2400)}


def test_absorption_at_lapack_scale_agrees_with_the_whole_system_solve(absorbing_chain):
    """Within 1e-12 of the dense solve of all of I - Q, and its very bits,
    residuals included, where the transient states are one component."""
    name, chain, rows = absorbing_chain
    report, dense = absorption_analysis(chain), dense_report(name)
    comp, _ = analysis._components(chain)
    sizes = np.unique(comp[list(report.transient)], return_counts=True)[1]
    assert (len(sizes), sizes.max(), np.sum(sizes == 1)) == TRANSIENT_COMPONENTS[name]
    assert within(report.probs, dense.probs, 1e-12)
    assert within(report.expected_steps, dense.expected_steps, 1e-12)
    assert (absorption_outcome(lambda _: report, chain)
            == absorption_outcome(lambda _: dense, rows)) == (len(sizes) == 1)


def residual_gap_ulps(report, dense):
    """How far the package's per-component residuals lie from the whole
    system's, in units of eps times the solution's scale (1 for the
    probabilities, the largest expected step count, at least 1, for the
    steps)."""
    eps = np.finfo(np.float64).eps
    scale = max(1.0, float(np.max(dense.expected_steps, initial=0.0)))
    return (abs(report.residual_probs - dense.residual_probs) / eps,
            abs(report.residual_steps - dense.residual_steps) / (eps * scale))


# each residual, per component or whole-system, is rounding noise of a few
# ulps of the solution's scale (at most 6.4, complete11's), and the two
# differ by at most this many
RESIDUAL_GAP_ULPS = 8


def test_component_residuals_lie_near_the_whole_system_residuals_at_scale(lapack_chain):
    name, chain, _ = lapack_chain
    gaps = residual_gap_ulps(absorption_analysis(chain), dense_report(name))
    assert max(gaps) <= RESIDUAL_GAP_ULPS


@pytest.mark.parametrize("seed", range(24))
def test_component_residuals_lie_near_the_whole_system_residuals(seed):
    spec = random_model(seed)
    try:
        report = absorption_analysis(build_micro_chain(spec))
    except AnalysisError:
        return
    dense = oracle.dense_absorption_analysis(oracle.build_rows(spec))
    assert max(residual_gap_ulps(report, dense)) <= RESIDUAL_GAP_ULPS


def test_path_fixation_is_the_degree_weighted_share():
    """Voter fixation of code c on an undirected graph is the martingale
    share sum_i deg(i) [x_i = c] / 2(N - 1), from every transient state."""
    spec = LAPACK_MODELS["path7-three-codes"]()
    chain = build_micro_chain(spec)
    report = absorption_analysis(chain)
    n = spec.n_agents
    deg = np.array([sum(i == a for i, _ in spec.topology.edges) for a in range(n)])
    codes = chain.space.codes_matrix[list(report.transient)]
    share = np.stack([(codes == c) @ deg for c in range(3)], axis=1) / (2 * (n - 1))
    assert report.absorbing == tuple(chain.space.index_of((c,) * n) for c in range(3))
    assert np.abs(report.probs - share).max() <= 1e-12


# (height, size) batches: path7's 378 components in six, the line's one a
# height
BATCHES = {"path7-three-codes": 6, "complete11": 1, "line2401": 2400}


def test_absorption_solves_column_major_and_takes_residuals_row_major(absorbing_chain,
                                                                       monkeypatch):
    """One pair of solves per batch of components of one height and size:
    one stack of their I - Q_CC, each matrix column-major,
    against the probabilities' and the steps' right-hand sides. The two
    residual products take the same stack, rewritten row-major in place.
    Kosaraju runs once, and where the transient states are several
    components no nt x nt array is made."""
    name, chain, _ = absorbing_chain
    calls, solves, products, zeroed = [], [], [], []
    components, solve, matmul, zeros = analysis._components, np.linalg.solve, np.matmul, np.zeros

    def spy_components(c):
        calls.append(c)
        return components(c)

    def spy_solve(a, b):
        solves.append((a, a.shape, b.shape, all(m.flags.f_contiguous for m in a)))
        return solve(a, b)

    def spy_matmul(a, b):
        products.append(a)
        return matmul(a, b)

    def spy_zeros(shape, *args, **kwargs):
        zeroed.append(int(np.prod(shape)))
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(analysis, "_components", spy_components)
    monkeypatch.setattr(np.linalg, "solve", spy_solve)
    monkeypatch.setattr(np, "matmul", spy_matmul)
    monkeypatch.setattr(np, "zeros", spy_zeros)
    report = absorption_analysis(chain)
    nt, na = len(report.transient), len(report.absorbing)
    assert calls == [chain]
    assert len(solves) == len(products) == 2 * BATCHES[name]
    for (a, shape, b_probs, f_order), (a2, shape2, b_steps, f_order2), p, p2 in zip(
            solves[::2], solves[1::2], products[::2], products[1::2]):
        m, k, _ = shape
        assert a2 is a and shape == shape2 == (m, k, k) and f_order and f_order2
        assert (b_probs, b_steps) == ((m, k, na), (m, k, 1))
        assert p2 is p and p.shape == shape and p.flags.c_contiguous
        assert np.shares_memory(p, a)
    assert sum(m * k for _, (m, k, _), _, _ in solves[::2]) == nt
    if name == "complete11":  # the one stack holds the one component
        assert zeroed.count(nt * nt) == 1
    else:
        assert max(zeroed) < nt * nt


@pytest.mark.parametrize("seed", range(24))
def test_component_ids_never_decrease_along_an_entry(seed):
    """Kosaraju's second search numbers components in a topological order
    of the entries, which the absorption solves take backwards."""
    chain = build_micro_chain(random_model(seed))
    comp, _ = analysis._components(chain)
    assert (comp[chain.sources] <= comp[chain.cols]).all()
    chain, _ = digraph_chain(random_digraph(random.Random(7300 + seed), 300, seed % 2))
    comp, _ = analysis._components(chain)
    assert (comp[chain.sources] <= comp[chain.cols]).all()


def test_exhaustive_witnesses_at_scale_match_the_reference(lapack_chain):
    """The count partition's every violation, in the reference's order;
    equal sums are one shared Fraction. The first alone is the
    reference's too."""
    name, chain, rows = lapack_chain
    part = frequency_partition(chain.space)
    assert check_lumpable(chain, part) == oracle.check_lumpable(rows, part)
    verdict = check_lumpable(chain, part, exhaustive=True)
    assert verdict == oracle.check_lumpable(rows, part, exhaustive=True)
    assert len(verdict.violations) == {"path7-three-codes": 8484, "complete11": 0}[name]
    sums = [p for w in verdict.violations for p in (w.state_sum, w.ref_sum)]
    assert len({id(p) for p in sums}) == len(set(sums))


# ---------------------------------------------------------------------------
# draws through the rule's outcome array

@pytest.mark.parametrize("seed", range(24))
def test_outcome_of_random_rules(seed):
    assert_outcome_holds_the_table(random_model(seed).rule)


def table_actions(tmp_path, capsys, spec):
    """The action lists `maps --table` prints, one per draw."""
    path = tmp_path / "model.txt"
    path.write_text(serialize_model(spec), encoding="utf-8")
    assert cli.main(["maps", str(path), "--table"]) == 0
    lines = capsys.readouterr().out.splitlines()
    return [[int(t) for t in line.split("action: ")[1].split()] for line in lines]


def check_draws(spec, seed, tmp_path, capsys, steps=(0, 1, sim._DRAW_BLOCK + 37)):
    rng = random.Random(3000 + seed)
    chain = build_micro_chain(spec)
    space = chain.space
    assert chain.rows == oracle.build_rows(spec)
    actions = [list(oracle.materialize(spec, m, space)) for m in enumerate_maps(spec)]
    assert [t.tolist() for t in chainmod.draw_targets(spec, space)] == actions
    assert table_actions(tmp_path, capsys, spec) == actions

    start = space.config_of(rng.randrange(space.size))
    for n_steps in steps:
        run = simulate(spec, start, n_steps, seed)
        ref, tally = oracle.simulate(spec, start, n_steps, seed)
        assert "counts" not in vars(run)
        assert run == ref == oracle.simulate_packed(spec, start, n_steps, seed)
        assert run.counts == tally
    for samples in (3, 200):
        report, _ = estimate_matrix(spec, samples, seed)
        assert report == oracle.estimate_matrix(spec, samples, seed)


@pytest.mark.parametrize("seed", range(24))
def test_draws_match_the_rule_dict_references(seed, tmp_path, capsys):
    check_draws(random_model(seed), seed, tmp_path, capsys)


def arity_one_model():
    """Spontaneous moves to the next code or the one after, with unequal
    option weights: no second agent in the packed arguments."""
    table = {(a, opt): (a + 1 + opt) % 3 for a in range(3) for opt in range(2)}
    rule = UpdateRule(arity=1, options=(("next", Fraction(2, 3)), ("skip", Fraction(1, 3))),
                      table=table, delta=3)
    choice = ChoiceDistribution.uniform_from_topology(path_topology(4), 1)
    return ModelSpec(name="cycle", alphabet=Alphabet(LABELS), topology=path_topology(4),
                     rule=rule, choice=choice)


def test_arity_one_draws_match_the_rule_dict_references(tmp_path, capsys):
    check_draws(arity_one_model(), 7, tmp_path, capsys)


def four_code_models():
    """Past the three codes of `LABELS`: a voter on the 5-agent path, and
    spontaneous moves to the next code (mod 4) or to three times the code
    (mod 4), with unequal weights. The second option fixes codes 0 and 2,
    moves 1 up and 3 down, so one draw fills slots on both sides of the
    focal agent's own code."""
    labels = ("a", "b", "c", "d")
    table = {(a, opt): (a + 1) % 4 if opt == 0 else 3 * a % 4
             for a in range(4) for opt in range(2)}
    rule = UpdateRule(arity=1, options=(("next", Fraction(1, 4)), ("triple", Fraction(3, 4))),
                      table=table, delta=4)
    choice = ChoiceDistribution.uniform_from_topology(path_topology(5), 1)
    return [builtin_voter(path_topology(5), labels=labels),
            ModelSpec(name="triple", alphabet=Alphabet(labels), topology=path_topology(5),
                      rule=rule, choice=choice)]


@pytest.mark.parametrize("model", range(2), ids=["voter", "arity-one"])
def test_four_code_draws_match_the_rule_dict_references(model, tmp_path, capsys):
    check_draws(four_code_models()[model], 11 + model, tmp_path, capsys)


def arity_four_model(delta, seed):
    """A seeded random table over two options at arity 4, and an explicit
    choice with seeded weights over the ordered 4-tuples of distinct agents
    on `complete 5`: the walk's second level is keyed by 3-tuples of codes."""
    rng = random.Random(seed)
    table = {codes + (opt,): rng.randrange(delta)
             for codes in itertools.product(range(delta), repeat=4) for opt in range(2)}
    p = Fraction(rng.randint(1, 4), 5)
    rule = UpdateRule(arity=4, options=(("p", p), ("q", 1 - p)), table=table, delta=delta)
    weights = {tup: rng.randint(1, 3) for tup in itertools.permutations(range(5), 4)}
    total = sum(weights.values())
    choice = ChoiceDistribution({tup: Fraction(w, total) for tup, w in weights.items()})
    return ModelSpec(name="arity4", alphabet=Alphabet(LABELS[:delta]),
                     topology=Topology.complete(5), rule=rule, choice=choice)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("delta", [2, 3])
def test_arity_four_walks_match_the_rule_dict_references(delta, seed):
    spec = arity_four_model(delta, seed)
    rng = random.Random(seed)
    start = [rng.randrange(delta) for _ in range(5)]
    for n_steps in (0, 1, sim._DRAW_BLOCK + 37):
        run = simulate(spec, start, n_steps, seed)
        ref, tally = oracle.simulate(spec, start, n_steps, seed)
        assert run == ref == oracle.simulate_packed(spec, start, n_steps, seed)
        assert run.counts == tally
    assert len(run.counts) > 1


def skewed_model():
    """Many draws with skewed weights: a noisy voter on the complete graph
    of 8 agents (112 draws), one pair weighted 10**6 times the least and a
    noise option of 1/1000, so most uniforms land in one draw and many
    draws share a bucket of the guide table."""
    table = {(a, b, opt): (b if opt == 0 else 1 - a) for a in range(2) for b in range(2)
             for opt in range(2)}
    rule = UpdateRule(arity=2, options=(("copy", Fraction(999, 1000)),
                                        ("noise", Fraction(1, 1000))), table=table, delta=2)
    topology = Topology.complete(8)
    weights = {pair: 10**6 if k == 17 else k % 5 + 1 for k, pair in enumerate(topology.edges)}
    total = sum(weights.values())
    choice = ChoiceDistribution({pair: Fraction(w, total) for pair, w in weights.items()})
    return ModelSpec(name="skewed", alphabet=Alphabet(LABELS[:2]), topology=topology,
                     rule=rule, choice=choice)


def test_skewed_many_draws_match_the_rule_dict_references(tmp_path, capsys):
    """Either side of a block of uniforms, too."""
    steps = (0, 1, sim._DRAW_BLOCK - 1, sim._DRAW_BLOCK + 1)
    check_draws(skewed_model(), 11, tmp_path, capsys, steps=steps)


@pytest.mark.parametrize("model", [0, 5, 11, 17, 23, "arity one"])
@pytest.mark.parametrize("seed", [2**32, 2**128 + 1])
def test_estimates_under_wide_seeds_match_the_spawned_streams(model, seed):
    """Seeds of two and five words: the derived keys follow SeedSequence
    past one word and past its four-word pool."""
    spec = arity_one_model() if model == "arity one" else random_model(model)
    for samples in (3, 200):
        report, _ = estimate_matrix(spec, samples, seed)
        assert report == oracle.estimate_matrix(spec, samples, seed)


def test_the_estimates_above_include_violations():
    """So that the comparison above covers the order of the violations."""
    flagged = [len(estimate_matrix(random_model(seed), 3, seed)[0].violations)
               for seed in range(24)]
    assert sum(n > 1 for n in flagged) >= 10


def keep_option_model():
    """Copy a neighbour, or keep the own code: every "keep" draw is a
    self-loop from every state."""
    table = {(a, b, opt): (b if opt == 0 else a) for a in range(3) for b in range(3)
             for opt in range(2)}
    rule = UpdateRule(arity=2, options=(("copy", Fraction(3, 4)), ("keep", Fraction(1, 4))),
                      table=table, delta=3)
    topology = path_topology(4)
    return ModelSpec(name="keep", alphabet=Alphabet(LABELS), topology=topology, rule=rule,
                     choice=ChoiceDistribution.uniform_from_topology(topology, 2))


@pytest.mark.parametrize("model", list(range(24)) + ["arity one", "skewed", "keep"])
def test_every_draw_lands_on_an_entry_its_row_stores(model):
    """What `estimate_matrix` tallies on: the target of every draw of
    positive weight, from every state, is a stored entry of that state's
    row (the stay entry included)."""
    spec = {"arity one": arity_one_model, "skewed": skewed_model,
            "keep": keep_option_model}.get(model, lambda: random_model(model))()
    chain = build_micro_chain(spec)
    stored = set(oracle.grammar_arcs(chain))
    states = range(chain.n_states)
    draws = list(zip(spec.draws.nums.tolist(), chainmod.draw_targets(spec, chain.space)))
    assert all(num > 0 for num, _ in draws)
    for _, targets in draws:
        assert set(zip(states, targets.tolist())) <= stored


@pytest.mark.parametrize("name", ["voter3", "path3", "majority3"])
def test_estimates_past_exact_doubles_match_the_reference(name):
    """Samples per state above 2**53, up to the largest int64: the
    estimate divides its counts as Python ints."""
    spec = load_model(SAMPLES / f"{name}.model")
    for samples in (2**53 + 1, 2**60, 2**63 - 1):
        report, _ = estimate_matrix(spec, samples, 6)
        assert report == oracle.estimate_matrix(spec, samples, 6)


def trajectory_text(writer, run, space, part=None):
    out = io.StringIO()
    writer(run, space, out, part)
    return out.getvalue()


@pytest.mark.parametrize("delta", [2, 3])
@pytest.mark.parametrize("n_agents", [1, 5, 20])
def test_the_trajectory_writer_matches_the_line_reference(delta, n_agents):
    """Random indices, the first and the last state included; with a
    partition where the space is small enough to hold one."""
    space = ConfigSpace(n_agents, delta, labels=LABELS[:delta], cap=delta ** n_agents)
    rng = random.Random(delta * 100 + n_agents)
    states = (0, space.size - 1) + tuple(rng.randrange(space.size) for _ in range(300))
    run = sim.SimRun(seed=4, steps=len(states) - 1, start=0, states=states,
                     fingerprint="f" * 16)
    assert (trajectory_text(sim.write_trajectory, run, space)
            == trajectory_text(oracle.write_trajectory, run, space))
    if space.size <= 243:
        for part in (frequency_partition(space), orbits(space, parse_presets("SN", n_agents, delta))):
            assert (trajectory_text(sim.write_trajectory, run, space, part)
                    == trajectory_text(oracle.write_trajectory, run, space, part))


@pytest.mark.parametrize("delta, n_agents", [(2, 64), (2, 70), (3, 41)])
def test_the_trajectory_writer_past_int64(delta, n_agents):
    """Spaces of more than 2**63 states, never enumerated: indices go
    through an object array."""
    space = ConfigSpace(n_agents, delta, cap=delta ** n_agents)
    assert space.size > 2 ** 63
    rng = random.Random(n_agents)
    states = (0, space.size - 1, 2 ** 63, 2 ** 63 - 1) + tuple(
        rng.randrange(space.size) for _ in range(300))
    run = sim.SimRun(seed=1, steps=len(states) - 1, start=0, states=states, fingerprint="f")
    assert (trajectory_text(sim.write_trajectory, run, space)
            == trajectory_text(oracle.write_trajectory, run, space))


# ---------------------------------------------------------------------------
# model validation and the draw table against the Fraction references


def _directed_pairs(shape, n, rng):
    if shape == "star":
        return [(0, j) for j in range(1, n)] + [(j, 0) for j in range(1, n)]
    if shape == "path":
        return [(i, i + 1) for i in range(n - 1)] + [(i + 1, i) for i in range(n - 1)]
    return list(random_topology(n, rng.randrange(1000)).edges)


def document_model(seed):
    """A star, path or random topology document with weights over mixed
    denominators, a two-option rule, and a from-topology or an explicit
    choice section; also the explicit entries written, or None."""
    rng = random.Random(seed)
    n, shape = rng.randint(3, 6), ("star", "path", "random")[seed % 3]
    pairs = _directed_pairs(shape, n, rng)
    rng.shuffle(pairs)
    lines = ["[model]", f"name = doc{seed}", "attributes = a, b", "[topology]", f"agents {n}"]
    for i, j in pairs:
        lines.append(f"{i + 1} {j + 1} {rng.randint(1, 9)}/{rng.choice((1, 2, 3, 4, 5, 7, 9))}")
    lines += ["[rule]", "arity 2", "lambda copy 5/6", "lambda flip 1/6"]
    for a in "ab":
        for b in "ab":
            lines += [f"{a} {b} copy -> {b}", f"{a} {b} flip -> {'b' if a == 'a' else 'a'}"]
    lines.append("[choice]")
    if seed % 2:
        lines.append("from-topology uniform")
        return "\n".join(lines) + "\n", None
    raw = [Fraction(rng.randint(1, 6), rng.choice((1, 2, 3, 5))) for _ in pairs]
    entries = {pair: w / sum(raw) for pair, w in zip(pairs, raw)}
    lines += [f"{i + 1} {j + 1} {p.numerator}/{p.denominator}" for (i, j), p in entries.items()]
    return "\n".join(lines) + "\n", entries


def check_draw_table(spec, entries=None):
    """`entries` are the explicit choice's; None means from-topology."""
    if entries is None:
        entries = oracle.uniform_from_topology(spec.topology, spec.rule.arity)
        values = list(spec.choice.entries.values())
        assert len({id(p) for p in values}) == len(set(values))
    assert list(spec.choice.entries.items()) == list(entries.items())
    assert all(type(p) is Fraction for p in spec.choice.entries.values())
    for values, (nums, denom) in ((spec.topology.edges.values(), spec.topology.weights),
                                  (spec.choice.entries.values(), spec.choice.numerators)):
        assert denom == lcm(*(p.denominator for p in values))
        assert [Fraction(v, denom) for v in nums.tolist()] == list(values)
    ref_spec = ModelSpec(name=spec.name, alphabet=spec.alphabet, topology=spec.topology,
                         rule=spec.rule, choice=ChoiceDistribution(entries))
    assert serialize_model(spec) == serialize_model(ref_spec)
    assert model_fingerprint(spec) == model_fingerprint(ref_spec)

    joint = oracle.joint_choices(spec)
    assert oracle.draw_choices(spec) == joint
    keys = {id(tup) for tup in spec.choice.entries}  # shared, not copied
    assert all(id(tup) in keys for tup, _, _ in oracle.draw_choices(spec))
    assert all(id(m.agents) in keys for m in enumerate_maps(spec))
    table = spec.draws
    assert table is spec.draws
    assert table.denom == lcm(*(p.denominator for _, _, p in joint))
    assert table.nums.dtype == (np.int64 if table.denom <= chainmod.INT64_MAX else object)
    chain = build_micro_chain(spec)
    rows = oracle.build_rows(spec)
    assert chain.denom == table.denom
    assert sparse_text(write_sparse, chain) == sparse_text(oracle.write_sparse, rows)
    assert sim._draw_weights(spec).tobytes() == oracle.draw_weights(spec).tobytes()
    start = [a % spec.delta for a in range(spec.n_agents)]
    ref, tally = oracle.simulate(spec, start, 300, 5)
    run = simulate(spec, start, 300, 5)
    assert run == ref and run.counts == tally


@pytest.mark.parametrize("seed", range(24))
def test_draw_table_matches_the_fraction_references(seed):
    spec = random_model(seed)
    explicit = None if spec.name.startswith("voter") else dict(spec.choice.entries)
    check_draw_table(spec, explicit)


@pytest.mark.parametrize("seed", range(12))
def test_documents_with_mixed_denominators_match_the_references(seed):
    text, entries = document_model(seed)
    spec = parse_model(text)
    check_draw_table(spec, entries)
    assert parse_model(serialize_model(spec)).draws.nums.tolist() == spec.draws.nums.tolist()


def test_draw_table_beyond_int64_matches_the_references():
    edges = {(0, 1): 1, (0, 2): P1 - 1, (1, 0): 1, (1, 2): P2 - 1,
             (2, 0): 1, (2, 1): P3 - 1}
    spec = builtin_voter(Topology(3, edges))
    assert spec.draws.nums.dtype == object
    check_draw_table(spec)


def test_weight_sums_beyond_int64_match_the_references():
    """Every weight fits in int64, their sum for agent 1 does not."""
    edges = {(0, 1): 2 ** 62, (0, 2): 2 ** 62 + 1, (1, 0): 1, (2, 0): 3}
    spec = builtin_voter(Topology(3, edges))
    assert spec.draws.nums.dtype == object
    check_draw_table(spec)


def test_choice_times_options_beyond_int64_match_the_references():
    """Choice and option denominators each fit in int64, their product
    does not: the joint numerators are Python ints."""
    edges = {(0, 1): 1, (0, 2): P1 - 1, (1, 0): 1, (1, 2): 1, (2, 0): 1, (2, 1): 1}
    rare = Fraction(1, P2)
    table = {(a, b, opt): (b if opt == 0 else a) for a in range(2) for b in range(2)
             for opt in range(2)}
    rule = UpdateRule(arity=2, options=(("copy", 1 - rare), ("stay", rare)), table=table,
                      delta=2)
    topology = Topology(3, edges)
    spec = ModelSpec(name="rare", alphabet=Alphabet(("a", "b")), topology=topology, rule=rule,
                     choice=ChoiceDistribution.uniform_from_topology(topology, 2))
    assert 6 * P1 < 2 ** 63 < spec.draws.denom == 6 * P1 * P2 < 2 ** 70
    assert spec.draws.nums.dtype == object
    check_draw_table(spec)


def _error(make):
    try:
        make()
    except ValidationError as exc:
        return str(exc)
    return None


def _bad_edges(edges, n, rng):
    """Two edges made invalid, each in its own way, a malformed key among them."""
    items = list(edges.items())
    for k in rng.sample(range(len(items)), 2):
        (i, j), w = items[k]
        items[k] = rng.choice([((i, i), w), ((i, n + rng.randrange(3)), w), ((-1, j), w),
                               ((i, j), Fraction(0)),
                               ((i, j), Fraction(-rng.randint(1, 5), rng.randint(1, 3))),
                               ((i, j, j), w), ((str(i), j), w), (i, w)])
    return dict(items)


def _bad_probabilities(entries, rng):
    """Two probabilities changed: to zero, negative, or scaled."""
    items = list(entries.items())
    for k in rng.sample(range(len(items)), 2):
        tup, p = items[k]
        items[k] = (tup, rng.choice([Fraction(0), -p, p * rng.choice((2, Fraction(1, 3)))]))
    return dict(items)


def _bad_tuples(entries, n, rng):
    """Two agent tuples replaced: wrong arity, an unknown agent, a
    non-neighbor (every other agent, or only the last), or a malformed key."""
    items = list(entries.items())
    for k in rng.sample(range(len(items)), 2):
        tup, p = items[k]
        items[k] = (rng.choice([tup + tup[-1:], tup[:1], (n + k,) + tup[1:],
                                (tup[0], -1) + tup[2:], (tup[0],) * len(tup),
                                tup[:-1] + tup[:1], n + k, ("a",) + tup[1:]]), p)
    return dict(items)


def _spec_error(spec, entries):
    return _error(lambda: ModelSpec(name=spec.name, alphabet=spec.alphabet,
                                    topology=spec.topology, rule=spec.rule,
                                    choice=ChoiceDistribution(entries)))


def _reference_spec_error(spec, entries):
    return _error(lambda: (oracle.check_choice(entries),
                           oracle.check_model(spec.topology, spec.rule.arity, entries)))


@pytest.mark.parametrize("seed", range(36))
def test_malformed_models_report_the_reference_error(seed):
    """Two bad items each, so that the first offender must match."""
    rng = random.Random(4000 + seed)
    spec = random_model(seed % 24) if seed < 24 else parse_model(document_model(seed)[0])
    n, edges = spec.n_agents, spec.topology.edges
    bad = _bad_edges(edges, n, rng)
    message = _error(lambda: Topology(n, bad))
    assert message is not None and message == _error(lambda: oracle.check_topology(n, bad))

    bad = _bad_probabilities(spec.choice.entries, rng)
    message = _error(lambda: ChoiceDistribution(bad))
    assert message is not None and message == _error(lambda: oracle.check_choice(bad))

    bad = _bad_tuples(spec.choice.entries, n, rng)
    message = _spec_error(spec, bad)
    assert message is not None and message == _reference_spec_error(spec, bad)


@pytest.mark.parametrize("edges, arity", [
    ({(0, 1): 1, (1, 0): 1}, 2),                             # agent 3 and 4 alone
    ({(0, 1): 1, (1, 0): 1, (3, 2): 1}, 2),                  # agent 3 alone
    ({(0, 1): 1, (1, 0): 1, (2, 3): 1, (3, 2): 1}, 3),       # arity above 2
], ids=["two-lonely", "one-lonely", "arity-3"])
def test_uniform_choice_errors_match_the_reference(edges, arity):
    topology = Topology(4, edges)
    message = _error(lambda: ChoiceDistribution.uniform_from_topology(topology, arity))
    assert message is not None
    assert message == _error(lambda: oracle.uniform_from_topology(topology, arity))


def test_ragged_and_empty_choices_match_the_reference(voter3):
    """Tuples of mixed lengths, all of one wrong length, and a float agent."""
    for entries in ({(0, 1): Fraction(1, 2), (1,): Fraction(1, 4), (2, 0, 1): Fraction(1, 4)},
                    {(0, 1, 2): Fraction(1, 2), (1, 2): Fraction(1, 2)},
                    {(0, 1, 2): Fraction(1, 2), (1, 2, 0): Fraction(1, 2)},
                    {(0,): Fraction(1, 2), (1,): Fraction(1, 2)},
                    {(0, 1): Fraction(1, 2), (1, 2.5): Fraction(1, 2)}):
        message = _spec_error(voter3, entries)
        assert message is not None and message == _reference_spec_error(voter3, entries)
    assert _error(lambda: ChoiceDistribution({})) == _error(lambda: oracle.check_choice({}))


def test_integral_float_agents_give_the_integer_draw_table(voter3):
    """Agents written as integral floats pass the scalar checks, as they do
    in the reference; the model keeps them as int64 rows, so its draw
    table and chain are those of the integer keys."""
    entries = {(a, float(b)): p for (a, b), p in voter3.choice.entries.items()}
    assert _spec_error(voter3, entries) is None is _reference_spec_error(voter3, entries)
    spec = ModelSpec(name=voter3.name, alphabet=voter3.alphabet, topology=voter3.topology,
                     rule=voter3.rule, choice=ChoiceDistribution(entries))
    assert all(np.array_equal(got, want) for got, want in zip(spec.draws, voter3.draws))
    assert (sparse_text(write_sparse, build_micro_chain(spec))
            == sparse_text(write_sparse, build_micro_chain(voter3)))


def check_topology_arrays(topology, ref):
    """An array-built topology against its dict-built reference."""
    assert topology.pairs.dtype == ref.pairs.dtype == np.int64
    assert np.array_equal(topology.pairs, ref.pairs)
    (nums, denom), (ref_nums, ref_denom) = topology.weights, ref.weights
    assert (nums.dtype, nums.tolist(), denom) == (ref_nums.dtype, ref_nums.tolist(), ref_denom)
    assert list(topology.edges.items()) == list(ref.edges.items())
    assert topology == ref


def check_array_built(spec, ref):
    """A model whose topology or choice was built from arrays against the
    same model through the dict constructors: the arrays, the mappings'
    contents and order, `==`, the draw table, the maps and the document."""
    check_topology_arrays(spec.topology, ref.topology)
    (nums, denom), (ref_nums, ref_denom) = spec.choice.numerators, ref.choice.numerators
    assert (nums.dtype, nums.tolist(), denom) == (ref_nums.dtype, ref_nums.tolist(), ref_denom)
    assert np.array_equal(spec.choice.agents, ref.choice.agents)
    assert list(spec.choice.entries.items()) == list(ref.choice.entries.items())
    assert spec.choice == ref.choice and spec == ref
    for got, want in zip(spec.draws, ref.draws):
        assert np.asarray(got).dtype == np.asarray(want).dtype
        assert np.array_equal(got, want)
    assert enumerate_maps(spec) == oracle.enumerate_maps(ref)
    assert oracle.draw_choices(spec) == oracle.joint_choices(ref)
    assert serialize_model(spec) == serialize_model(ref)


def dict_built(spec, edges, from_topology=True):
    """`spec` with its topology built from `edges` and its choice from the
    Fraction reference, or from its own entries when it has explicit ones."""
    topology = Topology(spec.n_agents, edges)
    entries = (oracle.uniform_from_topology(topology, spec.rule.arity) if from_topology
               else dict(spec.choice.entries))
    return ModelSpec(name=spec.name, alphabet=spec.alphabet, topology=topology,
                     rule=spec.rule, choice=ChoiceDistribution(entries))


@pytest.mark.parametrize("seed", range(24))
def test_array_built_models_match_the_dict_references(seed):
    spec = random_model(seed)
    edges = (oracle.complete_edges(spec.n_agents) if spec.name.endswith("complete")
             else dict(spec.topology.edges))
    check_array_built(spec, dict_built(spec, edges, spec.name.startswith("voter")))


@pytest.mark.parametrize("seed", range(1, 12, 2))
def test_documents_choosing_from_the_topology_match_the_dict_references(seed):
    spec = parse_model(document_model(seed)[0])
    check_array_built(spec, dict_built(spec, dict(spec.topology.edges)))


@pytest.mark.parametrize("n", [1, 2, 3, 12, 30, 200])
def test_complete_topologies_match_the_dict_references(n):
    topology, ref = Topology.complete(n), Topology(n, oracle.complete_edges(n))
    check_topology_arrays(topology, ref)
    one = ChoiceDistribution.uniform_from_topology(topology, 1)
    assert list(one.entries.items()) == list(oracle.uniform_from_topology(ref, 1).items())
    if n == 1:
        message = _error(lambda: builtin_voter(topology))
        assert message == _error(lambda: oracle.uniform_from_topology(ref, 2))
        assert message == "agent 1 has no out-neighbors"
        return
    spec = builtin_voter(topology)
    check_array_built(spec, dict_built(spec, oracle.complete_edges(n)))


def test_no_agents_is_the_same_error_either_way():
    assert (_error(lambda: Topology.complete(0)) == _error(lambda: Topology(0, {}))
            == "need at least one agent")
