"""Permutations acting on configurations, orbit partitions, and the two
tests of a generator set as chain symmetries: a certificate on the model's
draw and rule tables, and the invariance test on the matrix itself.

A space permutation reorders agents and relabels codes at once: position
i of the image holds the relabeled code the source kept at its preimage.
Groups are never enumerated. Orbits come from label propagation over the
generators, over each agent-class orbit's smallest member where agent
transpositions allow it; the invariance check extends to the group by closure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import DocumentParseError, ValidationError
from .lumping import Partition, count_label, group_blocks, rank_minima
from .model import ModelSpec, content_lines
from .space import ConfigSpace, integer


def _check_perm(p: Tuple[int, ...], what: str) -> None:
    if sorted(p) != list(range(len(p))):
        raise ValidationError(f"{what} {p} is not a permutation of 0..{len(p) - 1}")


@dataclass(frozen=True)
class SpacePermutation:
    """agents[i] is the image position of agent i; attrs[s] the image code."""

    agents: Tuple[int, ...]
    attrs: Tuple[int, ...]

    def __post_init__(self):
        _check_perm(self.agents, "agent permutation")
        _check_perm(self.attrs, "attribute permutation")

    @classmethod
    def identity(cls, n_agents: int, delta: int) -> "SpacePermutation":
        return cls(tuple(range(n_agents)), tuple(range(delta)))

    def check_dims(self, n_agents: int, delta: int) -> None:
        if len(self.agents) != n_agents or len(self.attrs) != delta:
            raise ValidationError("permutation dimensions do not match the space")

    def image_index(self, space: ConfigSpace, codes: np.ndarray) -> np.ndarray:
        """Indices of the images of the configurations `codes` holds as
        code rows: all of `space.codes_matrix` or a subset of its rows."""
        self.check_dims(space.n_agents, space.delta)
        # Horner's rule, highest image position first: position agents[i]
        # holds attrs[c] where agent i holds c; one narrow column a step
        attrs, out = np.array(self.attrs, dtype=codes.dtype), np.zeros(len(codes), dtype=np.int64)
        for i in np.argsort(self.agents)[::-1]:
            out *= space.delta
            out += attrs.take(codes[:, i])
        return out

    def index_map(self, space: ConfigSpace) -> np.ndarray:
        """Vector m with m[x] the index of the image of state x, for all x."""
        return self.image_index(space, space.codes_matrix)


@dataclass(frozen=True)
class GeneratorSet:
    """Generators of a group; none is the trivial group."""

    name: str
    perms: Tuple[SpacePermutation, ...]


def _transpositions(n: int, delta: int, part: str, moving: Sequence[int]
                    ) -> Tuple[SpacePermutation, ...]:
    """The swaps of neighbours in `moving`, a list of agents (`part` is
    "agents") or of codes ("attrs"), the other part left as it is."""
    gens = []
    for a, b in zip(moving, moving[1:]):
        perms = {"agents": list(range(n)), "attrs": list(range(delta))}
        perms[part][a], perms[part][b] = b, a
        gens.append(SpacePermutation(*map(tuple, perms.values())))
    return tuple(gens)


def agent_symmetric_group(n: int, delta: int) -> GeneratorSet:
    """Adjacent agent transpositions; they generate every agent reordering."""
    return GeneratorSet("SN", _transpositions(n, delta, "agents", range(n)))


def attr_symmetric_group(n: int, delta: int) -> GeneratorSet:
    """Adjacent attribute-code transpositions."""
    return GeneratorSet("Sdelta", _transpositions(n, delta, "attrs", range(delta)))


def attr_group_fixing(n: int, delta: int, fixed: int) -> GeneratorSet:
    """Transpositions among all codes except `fixed`."""
    fixed = integer(fixed, "attribute code")
    if not 0 <= fixed < delta:
        raise ValidationError(f"attribute code {fixed} out of range")
    moving = [s for s in range(delta) if s != fixed]
    return GeneratorSet(f"Sdelta-1:{fixed}", _transpositions(n, delta, "attrs", moving))


def flip_generator(n: int, delta: int) -> GeneratorSet:
    """Simultaneous binary state flip; only defined for two codes."""
    if delta != 2:
        raise ValidationError("flip is only defined for two attribute codes")
    return GeneratorSet("flip", _transpositions(n, 2, "attrs", range(2)))


def parse_presets(text: str, n: int, delta: int) -> GeneratorSet:
    """Comma-separated presets: SN, Sdelta, Sdelta-1[:k], flip, full."""
    perms: List[SpacePermutation] = []
    names: List[str] = []
    for token in (t.strip() for t in text.split(",")):
        if not token:
            continue
        head, colon, tail = token.partition(":")
        if token == "SN":
            part = agent_symmetric_group(n, delta)
        elif token == "Sdelta":
            part = attr_symmetric_group(n, delta)
        elif token == "flip":
            part = flip_generator(n, delta)
        elif token == "full":
            part = GeneratorSet("full", agent_symmetric_group(n, delta).perms
                                + attr_symmetric_group(n, delta).perms)
        elif head == "Sdelta-1":
            try:
                fixed = int(tail) if colon else 0
            except ValueError:
                raise DocumentParseError(f"bad preset {token!r}")
            part = attr_group_fixing(n, delta, fixed)
        else:
            raise DocumentParseError(f"unknown generator preset {token!r}")
        perms.extend(part.perms)
        names.append(token)
    if not names:
        raise DocumentParseError("no generator presets given")
    return GeneratorSet(",".join(names), tuple(perms))


def _parse_cycles(text: str, size: int, one_based: bool, what: str,
                  lineno: int) -> Tuple[int, ...]:
    perm = list(range(size))
    text = text.strip()
    if text in ("", "()"):
        return tuple(perm)
    if not (text.startswith("(") and text.endswith(")")):
        raise DocumentParseError(f"{what} cycles must look like (a b)(c d)", lineno)
    seen = set()
    for cycle in text[1:-1].split(")("):
        try:
            members = [int(tok) - (1 if one_based else 0) for tok in cycle.split()]
        except ValueError:
            raise DocumentParseError(f"bad cycle entry in {what} cycles {text!r}", lineno)
        if len(members) < 2:
            raise DocumentParseError(f"cycle in {what} needs at least two entries", lineno)
        for m in members:
            if not 0 <= m < size:
                raise DocumentParseError(f"{what} cycle entry out of range in {text!r}", lineno)
            if m in seen:
                raise DocumentParseError(f"{what} cycles reuse an entry in {text!r}", lineno)
            seen.add(m)
        for k, m in enumerate(members):
            perm[m] = members[(k + 1) % len(members)]
    return tuple(perm)


def parse_generator_file(text: str, n: int, delta: int) -> GeneratorSet:
    """One generator per line. `agents: (1 2)(3 4)` uses 1-based agent
    numbers, `attrs: (0 1)` uses 0-based codes; a line may carry both parts,
    each once, and the omitted part is the identity."""
    perms: List[SpacePermutation] = []
    for lineno, line in content_lines(text):
        parts = {}
        for part in filter(None, map(str.strip, line.split(";"))):
            key, _, value = part.partition(":")
            key = key.strip()
            if key not in ("agents", "attrs"):
                raise DocumentParseError(f"expected 'agents:' or 'attrs:', got {key!r}", lineno)
            if key in parts:
                raise DocumentParseError(f"repeated key {key!r}", lineno)
            parts[key] = value
        if not parts:
            raise DocumentParseError("empty generator line", lineno)
        perms.append(SpacePermutation(
            _parse_cycles(parts.get("agents", ""), n, True, "agent", lineno),
            _parse_cycles(parts.get("attrs", ""), delta, False, "attribute", lineno)))
    if not perms:
        raise DocumentParseError("generator file defines no generators")
    return GeneratorSet("file", tuple(perms))


# ---------------------------------------------------------------------------
# orbits

def _min_labels(size: int, images: Sequence[np.ndarray]) -> np.ndarray:
    """Each index's least orbit member under the permutations `images` of
    range(size): labels take the least over each one and its inverse, then
    the label of the label, until nothing changes."""
    label, old = np.arange(size, dtype=np.int64), None
    while old is None or not np.array_equal(label, old):
        old, label = label, label[label]
        for image in images:
            np.minimum(label, label[image], out=label)
            # the inverse image's label, by writing through the permutation
            label[image] = np.minimum(label[image], label)
    return label


def orbits(space: ConfigSpace, gens: GeneratorSet) -> Partition:
    """Orbit partition of the generated group, by min-label propagation.
    Pure agent transpositions generate the symmetric groups on the classes
    of agents they join, whose orbits are named by their smallest members.
    When every other generator maps each class onto a class, propagation
    runs over those members alone; else every agent is a class of its own
    and every generator propagates. Blocks are ordered by smallest member
    and labeled with their count vector when they are one whole count
    class, else `O<i>`."""
    n = space.n_agents
    for perm in gens.perms:
        perm.check_dims(n, space.delta)
    pure = [p for p in gens.perms if p.attrs == tuple(range(space.delta))
            and sum(i != j for i, j in enumerate(p.agents)) == 2]
    others = [p for p in gens.perms if p not in pure]
    agent_cls = _min_labels(n, [np.array(p.agents) for p in pure]).tolist()
    if any(len(set(zip(agent_cls, map(agent_cls.__getitem__, p.agents)))) > len(set(agent_cls))
           for p in others):
        agent_cls, others = list(range(n)), gens.perms
    # reps: each class orbit's smallest state, ascending; key: each state's rep
    reps, key = rank_minima(space.smallest_images(agent_cls))
    codes = space.codes_matrix
    rows = codes if len(reps) == space.size else codes[reps]
    orbit = _min_labels(len(reps), [key[perm.image_index(space, rows)] for perm in others])
    orbit = orbit.astype(key.dtype)[key]
    members, indptr = group_blocks(orbit)
    # count labels only for whole count classes, so labels stay unique and
    # mean what they say; reps[orbit] is each state's block's first member
    cls = key if len(set(agent_cls)) == 1 else rank_minima(space.smallest_images([0] * n))[1]
    firsts, mixed = members[indptr[:-1]], orbit[cls != cls[reps][orbit]]
    whole = np.flatnonzero((np.diff(indptr) == np.bincount(cls)[cls[firsts]])
                           & ~np.isin(orbit[firsts], mixed))
    labels = [f"O{bid}" for bid in range(len(firsts))]
    for bid, row in zip(whole.tolist(), codes[firsts[whole]].tolist()):
        labels[bid] = count_label(map(row.count, range(space.delta)))
    return Partition(members, indptr, tuple(labels))


# ---------------------------------------------------------------------------
# chain invariance

@dataclass(frozen=True)
class SymmetryWitness:
    generator: int
    x: int
    y: int
    p_xy: Fraction
    image_x: int
    image_y: int
    p_image: Fraction

    def __str__(self):
        return (f"generator {self.generator}: P({self.x},{self.y}) = {self.p_xy} "
                f"but P({self.image_x},{self.image_y}) = {self.p_image}")


@dataclass(frozen=True)
class SymmetryVerdict:
    symmetric: bool
    witness: Optional[SymmetryWitness] = None

    def __bool__(self):
        return self.symmetric


def certify(spec: ModelSpec, gens: GeneratorSet) -> bool:
    """Do the model's draw and rule tables prove every generator a chain
    symmetry? A generator with agent part σ and code part π is one when σ
    maps the draws, probabilities included, onto themselves and π commutes
    with the rule: then g after draw d is draw σ(d) after g, so P(gx, gy) =
    P(x, y). The test is sufficient, not necessary: False proves nothing.
    """
    table, outcome = spec.draws, spec.rule.outcome
    for perm in gens.perms:
        perm.check_dims(spec.n_agents, spec.delta)
        agents = np.array(perm.agents, dtype=np.int64)[table.agents]
        order = np.lexsort((table.options, *agents.T[::-1]))
        attrs, relabeled = np.array(perm.attrs, dtype=np.int64), outcome
        for k in range(spec.rule.arity):
            relabeled = relabeled.take(attrs, axis=k)
        if not (np.array_equal(agents[order], table.agents)
                and np.array_equal(table.options[order], table.options)
                and np.array_equal(table.nums[order], table.nums)
                and np.array_equal(relabeled, attrs[outcome])):
            return False
    return True


def is_chain_symmetric(chain, gens: GeneratorSet) -> SymmetryVerdict:
    """Does every generator preserve all transition probabilities?

    Checking generators suffices for the generated group: the invariance
    property survives composition and inversion. Each generator maps the
    key of every stored entry through its index map and compares the
    numerator found there with the entry's own. On failure the witness
    names the generator, the first mismatching entry in row-major order,
    and both probabilities.
    """
    if chain.space is None:
        raise ValidationError("chain has no configuration space for the generators to act on")
    n = chain.space.size
    src, cols, nums = chain.sources, chain.cols, chain.nums
    keys = src * n + cols
    for gi, perm in enumerate(gens.perms):
        image = perm.index_map(chain.space)
        ix, iy = image[src], image[cols]
        # the numerator stored at each image key, 0 where none is
        want = ix * n + iy
        pos = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
        found = np.where(keys[pos] == want, nums[pos], 0)
        bad = np.flatnonzero(found != nums)
        if len(bad):
            j = int(bad[0])
            witness = SymmetryWitness(gi, int(src[j]), int(cols[j]),
                                      Fraction(int(nums[j]), chain.denom),
                                      int(ix[j]), int(iy[j]),
                                      Fraction(int(found[j]), chain.denom))
            return SymmetryVerdict(False, witness)
    return SymmetryVerdict(True)
