"""Reference implementations of the exact chain kernels over `Fraction`
rows: a matrix is a tuple of rows, a row a tuple of (column, Fraction)
pairs with columns ascending.

These are the plain-loop versions the integer CSR core replaced, kept as
the oracle `test_oracle.py` compares it against. They return the package's
own verdict, witness and report types, so results compare with `==`.

`TuplePartition` is the partition as tuples of state indices, with the
dict-loop validation, `block_of` fill, tuple `group_blocks` and
`induced_partition` loop that the member/indptr arrays replaced;
`partition` builds the package's `Partition` from that tuple form.
`orbits` is the union-find over generator edges that min-label
propagation replaced, and `smallest_images` the brute force over every
agent permutation that keeps each agent's class, against the closed form
of `ConfigSpace.smallest_images`. `write_partition` is the writer that formats a
block's whole line at once. `read_partition` is the reader that converts
every index with int() into a list, which the byte pass over the writer's
bodies replaced.

`validate_distribution` converts, checks and sums a start distribution
one `Fraction` at a time, the path that the integer checks of
`analysis.start_numerators` replaced. `absorption_analysis` solves the
transient components one at a time, sinks first, each from a row-major
`np.eye - Q_CC`, whose bits the package's stacked column-major solves
must reproduce, residuals included: each component's against the
right-hand side it was solved with; `dense_absorption_analysis` is the
whole-system solve of `np.eye(nt) - Q` that the component solves
replaced, with the whole system's residuals, and
`exact_absorption` the same systems in `Fraction` Gauss-Jordan
elimination.

`written_fields` is the sparse reader's former bulk gate: a regex over the
writer's line shape, then one `np.loadtxt` pass, which the byte tokenizer
`chain._written_fields` replaced.

The first section validates models and derives draw probabilities with
`Fraction` arithmetic, the path the integer draw table replaced, and
builds the edge dict, choice entries and maps that the array-built
topologies, choices and maps replaced. The last
section applies draws to configuration tuples through the rule dict: the
map actions, simulator and matrix estimate that the compiled rule table
replaced. The estimate there spawns one `SeedSequence` child and makes one
Philox generator per state, the streams that `sim._philox_keys` derives
in one pass.

`aggregate` is the `Fraction` block mass of a distribution; the library
keeps only `analysis._block_mass`, the integer projection
`commutation_profile` reads. The helpers at the end were library
functions and methods that only tests called.
"""

import bisect
import io
import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isfinite, lcm
from numbers import Real
from typing import Tuple

import numpy as np

from microlump import (AnalysisError, ConfigSpace, DocumentParseError, RandomMap,
                       SpacePermutation, ValidationError, model_fingerprint)
from microlump.analysis import RESIDUAL_BOUND, AbsorptionReport, Classification
from microlump.chain import decimal_text
from microlump.model import content_lines
from microlump import analysis, lumping
from microlump.lumping import LumpVerdict, LumpWitness, count_label
from microlump.sim import _DRAW_BLOCK, Deviation, EstimateReport, SimRun
from microlump.symmetry import SymmetryVerdict, SymmetryWitness

ONE = Fraction(1)


def _show(tup):
    return repr(tup) if _malformed(tup) else "(" + ",".join(str(a + 1) for a in tup) + ")"


def _malformed(key, width=None):
    """Anything but a tuple of (`width`) reals with integer values: 2.0
    is the agent 2 is, 2.5 is malformed."""
    return not (isinstance(key, tuple) and width in (None, len(key))
                and all(isinstance(a, Real) and isfinite(a) and a % 1 == 0 for a in key))


def check_topology(n_agents, edges):
    """Topology's checks, edge by edge."""
    for key, w in edges.items():
        if _malformed(key, 2):
            raise ValidationError(f"malformed edge key {key!r}")
        i, j = key
        if i == j:
            raise ValidationError(f"self-edge on agent {i + 1}")
        if not (0 <= i < n_agents and 0 <= j < n_agents):
            raise ValidationError(f"edge ({i + 1},{j + 1}) outside agents 1..{n_agents}")
        if w <= 0:
            raise ValidationError(f"edge ({i + 1},{j + 1}) has non-positive weight {w}")


def check_choice(entries):
    """ChoiceDistribution's checks over the Fraction values."""
    if not entries:
        raise ValidationError("choice distribution is empty")
    total = sum(entries.values())
    for tup, p in entries.items():
        if p <= 0:
            raise ValidationError(f"choice {_show(tup)} has non-positive probability {p}")
    if total != ONE:
        raise ValidationError(f"choice distribution sums to {total} ≠ 1")


def check_model(topology, arity, entries):
    """ModelSpec's checks of the choice's agent tuples, tuple by tuple."""
    n = topology.n_agents
    for tup in entries:
        if _malformed(tup):
            raise ValidationError(f"malformed choice key {tup!r}")
        if len(tup) != arity:
            raise ValidationError(
                f"choice {_show(tup)} has {len(tup)} agents, rule arity is {arity}")
        if not all(0 <= a < n for a in tup):
            raise ValidationError(f"choice {_show(tup)} names an unknown agent")
        focal = tup[0]
        for other in tup[1:]:
            if (focal, other) not in topology.edges:
                raise ValidationError(
                    f"choice {_show(tup)}: agent {other + 1} is not an "
                    f"out-neighbor of agent {focal + 1}")


def uniform_from_topology(topology, arity):
    """The entries of the uniform choice, two Fraction operations per
    edge."""
    n = topology.n_agents
    if arity == 1:
        return {(i,): Fraction(1, n) for i in range(n)}
    if arity != 2:
        raise ValidationError(
            f"from-topology uniform supports arity 1 or 2; rule has arity {arity}")
    out_edges = {}
    for (i, j), w in topology.edges.items():
        out_edges.setdefault(i, []).append((j, w))
    entries = {}
    for i in range(n):
        nbrs = sorted(out_edges.get(i, ()))
        if not nbrs:
            raise ValidationError(f"agent {i + 1} has no out-neighbors")
        wsum = sum(w for _, w in nbrs)
        for j, w in nbrs:
            entries[(i, j)] = Fraction(1, n) * (w / wsum)
    check_choice(entries)
    return entries


def joint_choices(spec):
    """(agent tuple, option, probability) in (tuple, option) order, one
    Fraction product per draw."""
    out = []
    for tup in sorted(spec.choice.entries):
        ptup = spec.choice.entries[tup]
        for opt, (_, popt) in enumerate(spec.rule.options):
            out.append((tup, opt, ptup * popt))
    return out


def complete_edges(n_agents):
    """The edge dict of the complete graph: every ordered pair of distinct
    agents, source-major, weight 1."""
    return {(i, j): ONE for i in range(n_agents) for j in range(n_agents) if i != j}


def enumerate_maps(spec):
    """One keyword-built RandomMap per reference joint choice."""
    labels = [label for label, _ in spec.rule.options]
    return [RandomMap(agents=tup, option=opt, option_label=labels[opt], probability=p)
            for tup, opt, p in joint_choices(spec)]


def draw_weights(spec):
    return np.array([float(p) for _, _, p in joint_choices(spec)])


def build_rows(spec, cap=None):
    """Row-by-row assembly over the common denominator of the draws."""
    space = ConfigSpace(spec.n_agents, spec.delta,
                        labels=spec.alphabet.symbols, cap=cap)
    delta = spec.delta
    choices = joint_choices(spec)
    denom = lcm(*(p.denominator for _, _, p in choices)) if choices else 1
    n_opts = len(spec.rule.options)

    arity = spec.rule.arity
    flat = [0] * (delta ** arity * n_opts)
    for key, out in spec.rule.table.items():
        pack = 0
        for c in reversed(key[:-1]):
            pack = pack * delta + c
        flat[pack * n_opts + key[-1]] = out

    weighted = [(tup, opt, int(p * denom)) for tup, opt, p in choices]
    pows = [delta ** i for i in range(spec.n_agents)]

    rows = []
    for idx in range(space.size):
        cfg = space.config_of(idx)
        acc = {}
        for tup, opt, w in weighted:
            pack = 0
            for a in reversed(tup):
                pack = pack * delta + cfg[a]
            new = flat[pack * n_opts + opt]
            focal = tup[0]
            if new != cfg[focal]:
                y = idx + (new - cfg[focal]) * pows[focal]
                acc[y] = acc.get(y, 0) + w
        stay = denom - sum(acc.values())
        if stay:
            acc[idx] = stay
        rows.append(tuple((y, Fraction(w, denom)) for y, w in sorted(acc.items())))
    return tuple(rows)


def validate_stochastic(rows, exact=True, tol=1e-9):
    """Checks rows in order, which may come from any iterable, and returns
    them as a tuple."""
    checked = []
    for x, row in enumerate(rows):
        cols = [c for c, _ in row]
        if cols != sorted(set(cols)):
            raise ValidationError(f"row {x} has unsorted or duplicate columns")
        if any(p < 0 for _, p in row):
            raise ValidationError(f"row {x} has a negative entry")
        total = sum(p for _, p in row)
        if exact:
            if total != ONE:
                raise ValidationError(f"row {x} sums to {total} ≠ 1")
        elif abs(total - ONE) > tol:
            raise ValidationError(f"row {x} sums to {float(total)} outside 1±{tol}")
        checked.append(row)
    return tuple(checked)


def write_sparse(rows, fh, exact=True):
    nnz = sum(len(row) for row in rows)
    fh.write(f"states={len(rows)} nnz={nnz}{'' if exact else ' exact=0'}\n")
    for x, row in enumerate(rows):
        for y, p in row:
            fh.write(f"{x} {y} {p.numerator}/{p.denominator}\n")


# every line as the writer writes it, each value of at most 18 digits, so
# below 2**63
_LINE = r"[0-9]{1,18} [0-9]{1,18} [0-9]{1,18}/[0-9]{1,18}"
_WRITTEN = re.compile(f"(?:{_LINE}\n)*{_LINE}")


def written_fields(piece):
    """Rows, columns, numerators and denominators of a piece of text in the
    writer's line shape, None for any other text."""
    if _WRITTEN.fullmatch(piece) is None:
        return None
    return tuple(np.loadtxt(io.StringIO(piece.replace("/", " ")), dtype=np.int64, ndmin=2).T)


def read_sparse(text):
    """(rows, exact) of a sparse document, line by line; errors name lines
    of the file, numbered as `content_lines` numbers them."""
    lines = list(content_lines(text))
    if not lines:
        raise DocumentParseError("empty sparse file")
    header_line, header = lines[0]
    fields = {}
    for key, value in (part.split("=", 1) for part in header.split() if "=" in part):
        if key in fields:
            raise DocumentParseError(f"repeated key {key!r} in the header", header_line)
        fields[key] = value
    if "states" not in fields or "nnz" not in fields:
        raise DocumentParseError("header must be 'states=<n> nnz=<m>'", header_line)
    try:
        n_states, nnz = int(fields["states"]), int(fields["nnz"])
    except ValueError:
        raise DocumentParseError("header counts must be integers", header_line)
    if len(lines) - 1 != nnz:
        raise DocumentParseError(f"expected {nnz} entry lines, found {len(lines) - 1}")
    entries = {}
    exact = fields.get("exact") != "0"
    prev = (-1, -1)
    for lineno, line in lines[1:]:
        toks = line.split()
        if len(toks) != 3:
            raise DocumentParseError("expected: row col value", lineno)
        try:
            x, y = int(toks[0]), int(toks[1])
        except ValueError:
            raise DocumentParseError("row and col must be integers", lineno)
        if not (0 <= x < n_states and 0 <= y < n_states):
            raise DocumentParseError(f"state pair ({x},{y}) out of range", lineno)
        if (x, y) <= prev:
            raise DocumentParseError("entries must be strictly ascending by (row, col)", lineno)
        prev = (x, y)
        tok = toks[2]
        if any(c in tok for c in ".eE"):  # a decimal; ratios and integers are exact
            exact = False
        try:
            p = Fraction(tok)
        except (ValueError, ZeroDivisionError):
            raise DocumentParseError(f"bad value {tok!r}", lineno)
        entries.setdefault(x, []).append((y, p))
    # row by row: the first failing row ends the read, however many states
    # the header declares
    rows = validate_stochastic((tuple(entries.get(x, ())) for x in range(n_states)),
                               exact=exact)
    return rows, exact


def is_chain_symmetric(rows, space, gens):
    for gi, perm in enumerate(gens.perms):
        image = perm.index_map(space)
        for x in range(space.size):
            row = rows[x]
            ix = int(image[x])
            mapped = sorted((int(image[y]), p) for y, p in row)
            if tuple(mapped) != rows[ix]:
                target = dict(rows[ix])
                for y, p in row:
                    iy = int(image[y])
                    pi = target.get(iy, Fraction(0))
                    if pi != p:
                        witness = SymmetryWitness(gi, x, y, p, ix, iy, pi)
                        return SymmetryVerdict(False, witness)
    return SymmetryVerdict(True)


@dataclass(frozen=True)
class TuplePartition:
    blocks: Tuple[Tuple[int, ...], ...]
    labels: Tuple[str, ...]

    def __post_init__(self):
        if len(self.blocks) != len(self.labels):
            raise ValidationError("need exactly one label per block")
        if len(set(self.labels)) != len(self.labels):
            raise ValidationError("block labels must be distinct")
        seen = {}
        for bid, block in enumerate(self.blocks):
            if not block:
                raise ValidationError(f"block {self.labels[bid]!r} is empty")
            for x in block:
                if x in seen:
                    raise ValidationError(f"state {x} appears in two blocks")
                seen[x] = bid
        n = len(seen)
        if set(seen) != set(range(n)):
            raise ValidationError("blocks must cover exactly the states 0..n-1")

    @property
    def n_states(self):
        return sum(len(b) for b in self.blocks)

    @property
    def n_blocks(self):
        return len(self.blocks)

    @cached_property
    def block_of(self):
        out = [0] * self.n_states
        for bid, block in enumerate(self.blocks):
            for x in block:
                out[x] = bid
        return tuple(out)


def partition(blocks, labels):
    """The package's `Partition` from blocks given as sequences of state
    indices, each in its listed order."""
    blocks = [list(b) for b in blocks]
    return lumping.Partition([x for b in blocks for x in b],
                             np.cumsum([0] + [len(b) for b in blocks]), tuple(labels))


def write_partition(part, fh):
    bounds = part.indptr.tolist()
    for label, a, b in zip(part.labels, bounds, bounds[1:]):
        fh.write(f"{label}: {' '.join(map(str, part.members[a:b].tolist()))}\n")


def read_partition(text):
    members, indptr, labels = [], [0], []
    for lineno, line in content_lines(text):
        label, sep, body = line.partition(":")
        if not sep:
            raise DocumentParseError("expected 'label: idx idx ...'", lineno)
        try:
            members.extend(map(int, body.split()))
        except ValueError:
            raise DocumentParseError("state indices must be integers", lineno)
        labels.append(label.strip())
        indptr.append(len(members))
    if not labels:
        raise DocumentParseError("partition file defines no blocks")
    return lumping.Partition(members, indptr, tuple(labels))


def group_blocks(keys):
    """Blocks in ascending key order, members ascending, as tuples."""
    keys = np.asarray(keys)
    order = np.argsort(keys, kind="stable")
    cuts = np.flatnonzero(np.diff(keys[order])) + 1
    return tuple(tuple(b.tolist()) for b in np.split(order, cuts))


def induced_partition(fine, coarse):
    if fine.n_states != coarse.n_states:
        raise ValidationError("partitions cover different state counts")
    groups = [[] for _ in coarse.blocks]
    for fid, block in enumerate(fine.blocks):
        targets = {coarse.block_of[x] for x in block}
        if len(targets) != 1:
            raise ValidationError(
                f"fine block {fine.labels[fid]!r} straddles coarse blocks; not a refinement")
        groups[targets.pop()].append(fid)
    return TuplePartition(tuple(tuple(g) for g in groups), coarse.labels)


class UnionFind:
    __slots__ = ("parent",)

    def __init__(self, size):
        self.parent = list(range(size))

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            if rx > ry:
                rx, ry = ry, rx
            self.parent[ry] = rx


def orbits(space, gens):
    """Union-find on the edges x ~ g(x), state by state; the roots are
    block minima."""
    uf = UnionFind(space.size)
    for perm in gens.perms:
        image = perm.index_map(space)
        moved = np.nonzero(image != np.arange(space.size, dtype=np.int64))[0]
        for x in moved.tolist():
            uf.union(x, int(image[x]))
    blocks = group_blocks([uf.find(x) for x in range(space.size)])
    tallies = np.array([counts(space, space.config_of(x)) for x in range(space.size)])
    _, cls, class_size = np.unique(tallies, axis=0, return_inverse=True,
                                   return_counts=True)
    cls = cls.reshape(-1)
    labels = []
    for bid, members in enumerate(blocks):
        first = cls[members[0]]
        if len(members) == class_size[first] and bool((cls[list(members)] == first).all()):
            labels.append(count_label(tallies[members[0]]))
        else:
            labels.append(f"O{bid}")
    return TuplePartition(blocks, tuple(labels))


def smallest_images(space, agent_classes):
    """Each state's least index under every agent permutation that keeps
    each agent in its class, the permutations taken one at a time."""
    n = space.n_agents
    codes = np.array(list(itertools.product(range(space.delta), repeat=n)))[:, ::-1]
    radix = space.delta ** np.arange(n)
    classes = [[i for i in range(n) if agent_classes[i] == c] for c in set(agent_classes)]
    low = codes @ radix
    for images in itertools.product(*map(itertools.permutations, classes)):
        source = list(range(n))  # position j takes the code of agent source[j]
        for members, image in zip(classes, images):
            for i, j in zip(members, image):
                source[j] = i
        low = np.minimum(low, codes[:, source] @ radix)
    return low


def block_row_sums(rows, part, state):
    agg = {}
    for y, p in rows[state]:
        b = part.block_of[y]
        agg[b] = agg.get(b, Fraction(0)) + p
    return agg


def check_lumpable(rows, part, tol=None, exhaustive=False, exact=True):
    """The block-sum test row by row; an exact chain's own block is left
    out of its exact test, as its sum is one minus the rest."""
    if part.n_states != len(rows):
        raise ValidationError(
            f"partition covers {part.n_states} states, chain has {len(rows)}")
    tol_frac = None if tol is None else Fraction(tol)
    ref = [None] * part.n_blocks
    ref_state = [0] * part.n_blocks
    violations = []
    for x in range(len(rows)):
        agg = block_row_sums(rows, part, x)
        k = part.block_of[x]
        if tol_frac is None and exact:
            agg.pop(k, None)
        if ref[k] is None:
            ref[k] = agg
            ref_state[k] = x
            continue
        base = ref[k]
        for l in base.keys() | agg.keys():
            a = base.get(l, Fraction(0))
            b = agg.get(l, Fraction(0))
            bad = abs(a - b) > tol_frac if tol_frac is not None else a != b
            if bad:
                witness = LumpWitness(part.labels[k], part.labels[l],
                                      x, b, ref_state[k], a)
                if not exhaustive:
                    return LumpVerdict(False, witness, (witness,))
                violations.append(witness)
    if violations:
        return LumpVerdict(False, violations[0], tuple(violations))
    return LumpVerdict(True)


def lump(rows, part, tol=None, exact=True):
    """Reduced rows; raises ValueError carrying the verdict when the
    partition fails the test."""
    verdict = check_lumpable(rows, part, tol=tol, exact=exact)
    if not verdict:
        raise ValueError(verdict)
    out = []
    for block in part.blocks:
        agg = block_row_sums(rows, part, min(block))
        out.append(tuple((l, p) for l, p in sorted(agg.items()) if p != 0))
    return tuple(out)


def validate_distribution(mu, n_states, exact=True):
    """`mu` as Fractions, each entry converted, checked and summed one at a
    time; a bad sum is shown in decimal unless `exact`."""
    if len(mu) != n_states:
        raise ValidationError(f"distribution has {len(mu)} entries, chain has {n_states}")
    mu = [Fraction(p) for p in mu]
    if any(p < 0 for p in mu):
        raise ValidationError("distribution has a negative entry")
    total = sum(mu)
    if total != ONE:
        shown = total if exact else decimal_text(total)
        raise ValidationError(f"distribution sums to {shown} ≠ 1")
    return mu


def _step(rows, mu):
    nxt = [Fraction(0)] * len(mu)
    for x, px in enumerate(mu):
        if px == 0:
            continue
        for y, p in rows[x]:
            nxt[y] += px * p
    return nxt


def propagate(rows, mu, t):
    mu = validate_distribution(mu, len(rows))
    for _ in range(t):
        mu = _step(rows, mu)
    return mu


def aggregate(mu, part):
    """Block-wise mass of a micro distribution."""
    part.check_covers(len(mu))
    out = [Fraction(0)] * part.n_blocks
    for x, px in enumerate(mu):
        out[part.block_of[x]] += px
    return out


def commutation_profile(rows, part, mu0, t_max, force=False):
    """Raises ValueError carrying the verdict, as `lump` does, when the
    partition fails the test and `force` is not set."""
    mu = validate_distribution(mu0, len(rows))
    if force:
        macro = tuple(tuple(sorted(block_row_sums(rows, part, min(block)).items()))
                      for block in part.blocks)
    else:
        macro = lump(rows, part)
    nu = aggregate(mu, part)
    out = []
    for step in range(t_max + 1):
        projected = aggregate(mu, part)
        out.append(max(abs(a - b) for a, b in zip(projected, nu)))
        if step == t_max:
            break
        mu = _step(rows, mu)
        nu = _step(macro, nu)
    return out


def _reach(rows):
    """The states each state reaches, itself included, by a search from it
    along its nonzero entries: an entry of zero is no transition."""
    reach = []
    for x in range(len(rows)):
        seen, todo = {x}, [x]
        while todo:
            for y, p in rows[todo.pop()]:
                if p and y not in seen:
                    seen.add(y)
                    todo.append(y)
        reach.append(seen)
    return reach


def _class_of(reach, x):
    return tuple(sorted(y for y in reach[x] if x in reach[y]))


def classify_states(rows):
    """Components as the classes of mutual reachability, found by a
    search from every state; recurrent when no edge leaves the class."""
    return _classify(rows, _reach(rows))


def _classify(rows, reach):
    classes = {_class_of(reach, x) for x in range(len(rows))}
    recurrent = sorted(c for c in classes if all(reach[x] <= set(c) for x in c))
    transient = sorted(x for c in classes if c not in recurrent for x in c)
    absorbing = tuple(x for x in range(len(rows))
                      if tuple(e for e in rows[x] if e[1]) == ((x, Fraction(1)),))
    return Classification(absorbing, tuple(transient), tuple(recurrent))


def _absorbing_system(rows):
    """The classification, checked as the package checks it, and the
    transient-block matrices Q and R filled entry by entry with
    float(Fraction)."""
    reach = _reach(rows)
    cls = _classify(rows, reach)
    for comp in cls.recurrent_classes:
        if len(comp) > 1 or comp[0] not in cls.absorbing:
            raise AnalysisError(f"state {comp[0]} cannot reach any absorbing state")
    if not cls.absorbing:
        raise AnalysisError("chain has no absorbing state")
    t_pos = {x: i for i, x in enumerate(cls.transient)}
    a_pos = {x: i for i, x in enumerate(cls.absorbing)}
    Q = np.zeros((len(t_pos), len(t_pos)))
    R = np.zeros((len(t_pos), len(a_pos)))
    for x in cls.transient:
        for y, p in rows[x]:
            if y in t_pos:
                Q[t_pos[x], t_pos[y]] = float(p)
            else:
                R[t_pos[x], a_pos[y]] = float(p)
    return cls, reach, Q, R


def _absorption_report(cls, probs, steps, residual_probs, residual_steps):
    """The package's report of these solutions and residuals, and its bounds."""
    if residual_probs > RESIDUAL_BOUND or residual_steps > RESIDUAL_BOUND:
        raise AnalysisError(
            f"solve residuals {residual_probs:.2e}/{residual_steps:.2e} "
            f"exceed {RESIDUAL_BOUND:.0e}")
    if np.max(np.abs(probs.sum(axis=1) - 1.0), initial=0.0) > RESIDUAL_BOUND:
        raise AnalysisError("absorption probabilities do not sum to one")
    return AbsorptionReport(cls.absorbing, cls.transient, cls.recurrent_classes, probs,
                            steps, residual_probs, residual_steps)


def absorption_analysis(rows):
    """The transient components solved sinks first: a component reaches
    more states than any it has an entry into, so ascending reach is one
    such order. Each solves np.eye - Q_CC against R_C and ones, to which
    every entry into a solved state adds its value times that state's
    solution, row by row in column order. The residuals are each
    component's (np.eye - Q_CC) @ x_C - b_C against the right-hand side
    b_C it was solved with, largest over the components."""
    cls, reach, Q, R = _absorbing_system(rows)
    t_pos = {x: i for i, x in enumerate(cls.transient)}
    comps = sorted({_class_of(reach, x) for x in cls.transient}, key=lambda c: len(reach[c[0]]))
    probs, steps = np.zeros(R.shape), np.zeros(len(t_pos))
    residual_probs = residual_steps = 0.0
    for comp in comps:
        at, inside = [t_pos[x] for x in comp], set(comp)
        b_probs, b_steps = R[at], np.ones(len(comp))
        for i, x in enumerate(comp):
            for y, p in rows[x]:
                if y in t_pos and y not in inside:
                    b_probs[i] += float(p) * probs[t_pos[y]]
                    b_steps[i] += float(p) * steps[t_pos[y]]
        A = np.eye(len(comp)) - Q[np.ix_(at, at)]
        probs[at] = np.linalg.solve(A, b_probs)
        steps[at] = np.linalg.solve(A, b_steps)
        residual_probs = max(residual_probs, float(np.max(np.abs(A @ probs[at] - b_probs))))
        residual_steps = max(residual_steps, float(np.max(np.abs(A @ steps[at] - b_steps))))
    return _absorption_report(cls, probs, steps, residual_probs, residual_steps)


def dense_absorption_analysis(rows):
    """The whole transient block solved at once, two solves of np.eye(nt) - Q,
    with the whole system's residuals."""
    cls, _, Q, R = _absorbing_system(rows)
    A = np.eye(len(Q)) - Q
    probs, steps = np.linalg.solve(A, R), np.linalg.solve(A, np.ones(len(Q)))
    return _absorption_report(cls, probs, steps,
                              float(np.max(np.abs(A @ probs - R), initial=0.0)),
                              float(np.max(np.abs(A @ steps - 1.0), initial=0.0)))


def exact_absorption(rows):
    """Absorption probabilities and expected steps in exact rationals, by
    Gauss-Jordan elimination of (I - Q) [P | s] = [R | 1] over Fractions;
    rows in transient order. For chains of a few dozen transient states."""
    cls = classify_states(rows)
    t_pos = {x: i for i, x in enumerate(cls.transient)}
    a_pos = {x: i for i, x in enumerate(cls.absorbing)}
    nt, na = len(t_pos), len(a_pos)
    M = [[Fraction(int(i == j)) for j in range(nt)] + [Fraction(0)] * na + [Fraction(1)]
         for i in range(nt)]
    for x in cls.transient:
        for y, p in rows[x]:
            if y in t_pos:
                M[t_pos[x]][t_pos[y]] -= p
            else:
                M[t_pos[x]][nt + a_pos[y]] += p
    for k in range(nt):
        piv = next(i for i in range(k, nt) if M[i][k])
        M[k], M[piv] = M[piv], M[k]
        pivot = M[k][k]
        M[k] = [v / pivot for v in M[k]]
        for i in range(nt):
            f = M[i][k]
            if i != k and f:
                M[i] = [v - f * w for v, w in zip(M[i], M[k])]
    return [row[nt:nt + na] for row in M], [row[-1] for row in M]


# ---------------------------------------------------------------------------
# draws applied to configurations through the rule dict


def apply_map(spec, m, config):
    """The configuration the draw `m` turns `config` into."""
    args = tuple(config[a] for a in m.agents) + (m.option,)
    new = spec.rule.table[args]
    focal = m.agents[0]
    if new == config[focal]:
        return tuple(config)
    return config[:focal] + (new,) + config[focal + 1:]


def materialize(spec, m, space):
    """The full action of the draw `m` as an index table."""
    return tuple(space.index_of(apply_map(spec, m, space.config_of(i)))
                 for i in range(space.size))


class Sampler:
    """One bisection over the float draw weights per step."""

    def __init__(self, spec):
        self.spec = spec
        self.maps = [RandomMap(tup, opt, spec.rule.option_label(opt), p)
                     for tup, opt, p in joint_choices(spec)]
        self.weights = draw_weights(spec)
        self.cum = list(np.cumsum(self.weights))
        self.cum[-1] = 1.0

    def step(self, config, rng):
        return apply_map(self.spec, self.maps[bisect.bisect_right(self.cum, rng.random())],
                         config)


def simulate(spec, start, steps, seed, cap=None):
    """The run, built without a tally, and its (from, to) tally."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    sampler = Sampler(spec)
    space = ConfigSpace(spec.n_agents, spec.delta, labels=spec.alphabet.symbols, cap=cap)
    config = space.check_config(start)
    visited = [space.index_of(config)]
    counts = {}
    for _ in range(steps):
        nxt = sampler.step(config, rng)
        pair = (visited[-1], space.index_of(nxt))
        counts[pair] = counts.get(pair, 0) + 1
        visited.append(pair[1])
        config = nxt
    return (SimRun(seed=seed, steps=steps, start=visited[0], states=tuple(visited),
                   fingerprint=model_fingerprint(spec)), counts)


def simulate_packed(spec, start, steps, seed, cap=None):
    """The walk that packs the draw's argument codes, in argument order,
    into an index of the raveled outcome array at every step, with
    uniforms drawn in blocks."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    space = ConfigSpace(spec.n_agents, spec.delta, labels=spec.alphabet.symbols, cap=cap)
    config = list(space.check_config(start))
    x = space.index_of(config)
    cum = np.cumsum(draw_weights(spec))
    cum[-1] = 1.0
    flat, delta, n_opts = spec.rule.outcome.ravel().tolist(), spec.delta, len(spec.rule.options)
    table = spec.draws
    draws = list(zip(table.agents.tolist(), table.options.tolist(),
                     table.agents[:, 0].tolist()))
    visited = [x]
    for lo in range(0, steps, _DRAW_BLOCK):
        u = rng.random(min(_DRAW_BLOCK, steps - lo))
        for k in np.searchsorted(cum, u, side="right").tolist():
            agents, opt, focal = draws[k]
            pack = 0
            for a in agents:
                pack = pack * delta + config[a]
            new = flat[pack * n_opts + opt]
            if new != config[focal]:
                x += (new - config[focal]) * delta ** focal
                config[focal] = new
            visited.append(x)
    return SimRun(seed=seed, steps=steps, start=visited[0], states=tuple(visited),
                  fingerprint=model_fingerprint(spec))


def write_trajectory(run, space, fh, part=None):
    """One `format_index` or block label call per line."""
    fh.write(f"# seed={run.seed} steps={run.steps} start={run.start} "
             f"model={run.fingerprint}\n")
    for x in run.states:
        fh.write((space.format_index(x) if part is None else part.labels[part.block_of[x]]) + "\n")


def estimate_matrix(spec, steps_per_state, seed, cap=None):
    """The report alone, checked against `build_rows`."""
    rows = build_rows(spec, cap=cap)
    space = ConfigSpace(spec.n_agents, spec.delta, labels=spec.alphabet.symbols, cap=cap)
    sampler = Sampler(spec)
    pvals = sampler.weights / sampler.weights.sum()
    streams = np.random.SeedSequence(seed).spawn(space.size)
    counts, max_dev, violations = [], 0.0, []
    for x in range(space.size):
        config = space.config_of(x)
        targets = [space.index_of(apply_map(spec, m, config)) for m in sampler.maps]
        rng = np.random.Generator(np.random.Philox(streams[x]))
        drawn = rng.multinomial(steps_per_state, pvals)
        tally = {}
        for tgt, cnt in zip(targets, drawn):
            if cnt:
                tally[tgt] = tally.get(tgt, 0) + int(cnt)
        counts.append(tally)
        exact_row = dict(rows[x])
        for y in tally.keys() | exact_row.keys():
            p = float(exact_row.get(y, 0))
            emp = tally.get(y, 0) / steps_per_state
            dev = abs(emp - p)
            max_dev = max(max_dev, dev)
            bound = 3.0 * (p * (1.0 - p) / steps_per_state) ** 0.5
            if dev > bound:
                violations.append(Deviation(x, y, emp, p, bound))
    return EstimateReport(samples_per_state=steps_per_state, seed=seed, counts=tuple(counts),
                          max_abs_dev=max_dev, violations=tuple(violations))


# ---------------------------------------------------------------------------
# helpers the library no longer exports


def entry(chain, x, y):
    """Exact probability of the step from state x to state y."""
    a, b = chain.indptr[x], chain.indptr[x + 1]
    k = a + int(np.searchsorted(chain.cols[a:b], y))
    if k < b and chain.cols[k] == y:
        return Fraction(int(chain.nums[k]), chain.denom)
    return Fraction(0)


def transition_prob(chain, x, y):
    """Probability of a one-step transition between two configurations."""
    return entry(chain, chain.space.index_of(x), chain.space.index_of(y))


def grammar_arcs(chain):
    """All ordered state pairs the dynamics can realize in one step.

    Because every draw has positive probability this is exactly the nonzero
    pattern of the matrix, loops included.
    """
    return list(zip(chain.sources.tolist(), chain.cols.tolist()))


def commutation_check(chain, part, mu0, t, force=False):
    """Discrepancy at time t only; zero exactly for lumpable partitions."""
    return analysis.commutation_profile(chain, part, mu0, t, force=force)[-1]


def draw_choices(spec):
    """The package's (agent tuple, option index, joint probability) triples,
    in draw table order, read from `spec.draws` one draw at a time: the
    choice's own key tuples in sorted order, each with every option, and
    one `Fraction` per draw."""
    tuples, table = list(spec.choice.entries), spec.draws
    at = [i for i in spec.tuple_order.tolist() for _ in spec.rule.options]
    return [(tuples[i], opt, Fraction(num, table.denom))
            for i, opt, num in zip(at, table.options.tolist(), table.nums.tolist())]


def neighbors(space, config):
    """All (agent, configuration) pairs reachable by changing one agent.

    Exactly (delta-1)*n_agents pairs, ordered by agent then by new code.
    """
    config = space.check_config(config)
    return [(i, config[:i] + (code,) + config[i + 1:])
            for i, current in enumerate(config) for code in range(space.delta)
            if code != current]


def counts(space, config):
    """Number of agents holding each attribute code, indexed by code."""
    config = space.check_config(config)
    return tuple(config.count(code) for code in range(space.delta))


def compose(g, h):
    """g after h: (g * h)(x) = g(h(x))."""
    return SpacePermutation(tuple(g.agents[a] for a in h.agents),
                            tuple(g.attrs[s] for s in h.attrs))


def apply(perm, config):
    """The image of a configuration tuple: agent i's code c lands on
    position perm.agents[i] as perm.attrs[c]."""
    out = [0] * len(perm.agents)
    for i, code in enumerate(config):
        out[perm.agents[i]] = perm.attrs[code]
    return tuple(out)


def inverse(perm):
    """The permutation that undoes `perm`."""
    return SpacePermutation(*(tuple(sorted(range(len(p)), key=p.__getitem__))
                              for p in (perm.agents, perm.attrs)))


def result(rule, args, option):
    """The code the rule gives the focal agent for these argument codes."""
    return rule.table[tuple(args) + (option,)]


def empirical(report, x, y):
    """The estimate's frequency of the step x -> y."""
    return report.counts[x].get(y, 0) / report.samples_per_state


def same_blocks(part, other):
    """Equality as set partitions, ignoring labels and block order."""
    return {frozenset(b) for b in part.blocks} == {frozenset(b) for b in other.blocks}
