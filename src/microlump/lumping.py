"""Partitions of the state space, the block-sum lumpability test, and
construction of the reduced chain.

A partition passes the test when, block by block, every member state sends
the same total probability into each block; those common sums are the
reduced chain's entries. One grouping of every (state, block) sum serves
the test, exact or within a tolerance, and the reduced rows. An exact
chain's rows sum to one, so an own-block sum is implied by the others and
the exact test never reports it as a witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import isfinite
from typing import Dict, List, NamedTuple, Optional, Sequence, TextIO, Tuple

import numpy as np

from .chain import Chain, text_pieces, written_ints
from .errors import DocumentParseError, NotLumpableError, ValidationError
from .model import content_lines, int_array, narrow
from .space import ConfigSpace, integer


@dataclass(frozen=True, eq=False)
class Partition:
    """Disjoint blocks of state indices covering 0..n_states-1, labeled:
    block k is members[indptr[k]:indptr[k+1]] (int64), in its listed
    order. `block_of` holds each state's block id (int64), and `blocks`
    the blocks as tuples, built on first read."""

    members: np.ndarray
    indptr: np.ndarray
    labels: Tuple[str, ...]

    def __post_init__(self):
        if len(self.indptr) - 1 != len(self.labels):
            raise ValidationError("need exactly one label per block")
        if len(set(self.labels)) != len(self.labels):
            raise ValidationError("block labels must be distinct")
        # floats must be integral; an index or bound past int64 is out of
        # range, kept exact for the message
        for what, values in (("state", self.members), ("indptr", self.indptr)):
            if (given := np.asarray(values)).dtype.kind not in "iu":
                for x in given.tolist():
                    integer(x, what)
        members, indptr = int_array(self.members), int_array(self.indptr)
        n = len(members)
        if indptr[0] != 0 or indptr[-1] != n or (np.diff(indptr) < 0).any():
            raise ValidationError(f"indptr must start at 0, end at {n} and never decrease")
        empty = np.flatnonzero(indptr[1:] == indptr[:-1])
        # n members inside 0..n-1 list each state once exactly when every
        # state is seen, which takes one byte per state
        in_range = members.min(initial=0) >= 0 and members.max(initial=-1) < n
        seen = np.zeros(n, dtype=bool)
        seen[members if in_range else []] = True
        if len(empty) or not (in_range and seen.all()):
            # the first fault met reading the blocks in order: an empty
            # block or a state listed again, else one outside 0..n-1
            order = np.argsort(members, kind="stable")
            again = order[1:][members[order[1:]] == members[order[:-1]]]
            at = again.min(initial=n)
            if len(empty) and indptr[empty[0]] <= at:
                raise ValidationError(f"block {self.labels[empty[0]]!r} is empty")
            if len(again):
                raise ValidationError(f"state {members[at]} appears in two blocks")
            raise ValidationError("blocks must cover exactly the states 0..n-1")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "indptr", indptr)

    @property
    def n_states(self) -> int:
        return len(self.members)

    @property
    def n_blocks(self) -> int:
        return len(self.labels)

    @cached_property
    def block_of(self) -> np.ndarray:
        out = np.empty(self.n_states, dtype=np.int64)
        out[self.members] = np.repeat(np.arange(self.n_blocks), np.diff(self.indptr))
        return out

    @cached_property
    def smallest(self) -> np.ndarray:
        """Each block's smallest member: the state that stands for the block
        in the lumpability test, `lump` and the forced profile."""
        return np.minimum.reduceat(self.members, self.indptr[:-1])

    @cached_property
    def blocks(self) -> Tuple[Tuple[int, ...], ...]:
        members, bounds = self.members.tolist(), self.indptr.tolist()
        return tuple(tuple(members[a:b]) for a, b in zip(bounds, bounds[1:]))

    def check_covers(self, n_states: int) -> None:
        """Raise unless the blocks cover exactly `n_states` chain states."""
        if self.n_states != n_states:
            raise ValidationError(
                f"partition covers {self.n_states} states, chain has {n_states}")


def singleton_partition(n_states: int) -> Partition:
    return Partition(np.arange(n_states), np.arange(n_states + 1),
                     tuple(map(str, range(n_states))))


def group_blocks(keys) -> Tuple[np.ndarray, np.ndarray]:
    """States grouped by an integer key per state, as (members, indptr):
    blocks in ascending key order, members ascending."""
    keys = np.asarray(keys)
    members = np.argsort(keys, kind="stable")
    cuts = np.flatnonzero(np.diff(keys[members])) + 1
    return members, np.concatenate(([0], cuts, [len(keys)]))


def count_label(counts: Sequence[int]) -> str:
    return "⟨" + ",".join(str(int(k)) for k in counts) + "⟩"


def rank_minima(low: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The states that `low`, each state's least orbit member, names,
    ascending, and each state's rank among them: that of low[x]. Ranks
    take the narrowest unsigned type, whose keys sort by radix."""
    named = np.zeros(len(low), dtype=bool)
    named[low] = True
    reps = np.flatnonzero(named)
    rank = np.cumsum(named, dtype=np.min_scalar_type(len(reps)))[low]
    rank -= 1
    return reps, rank


def frequency_partition(space: ConfigSpace) -> Partition:
    """States grouped by their attribute-count vector.

    Block count is the number of ways to split N agents over delta codes,
    C(N+delta-1, delta-1); blocks are ordered by smallest member state.
    """
    reps, rank = rank_minima(space.smallest_images([0] * space.n_agents))
    return Partition(*group_blocks(rank), tuple(count_label(map(row.count, range(space.delta)))
                                                for row in space.codes_matrix[reps].tolist()))


def moran_partition(space: ConfigSpace, distinguished: int = 0) -> Partition:
    """N+1 line states X_k, k = number of agents holding the distinguished
    code; coincides with the count partition when there are two codes."""
    distinguished = integer(distinguished, "attribute code")
    if not 0 <= distinguished < space.delta:
        raise ValidationError(f"attribute code {distinguished} out of range")
    # a count fits in a byte: an indexed space has at most 62 agents
    return Partition(*group_blocks((space.codes_matrix == distinguished).sum(1, dtype=np.uint8)),
                     tuple(f"X_{k}" for k in range(space.n_agents + 1)))


def half_hypercube_partition(space: ConfigSpace) -> Partition:
    """Binary only: Y_k joins the count classes with k and N-k agents in
    one state, folding the state flip away."""
    if space.delta != 2:
        raise ValidationError("half-hypercube reduction needs exactly two codes")
    n = space.n_agents
    tallies = (space.codes_matrix == 0).sum(1, dtype=np.uint8)
    return Partition(*group_blocks(np.minimum(tallies, n - tallies)),
                     tuple(f"Y_{k}" for k in range(n // 2 + 1)))


def induced_partition(fine: Partition, coarse: Partition) -> Partition:
    """The coarse partition expressed over the fine partition's blocks.

    Requires coarse to be a union of fine blocks; block b of the result
    collects the fine block ids inside coarse block b.
    """
    if fine.n_states != coarse.n_states:
        raise ValidationError("partitions cover different state counts")
    first = coarse.block_of[fine.members[fine.indptr[:-1]]]
    straddling = fine.block_of[coarse.block_of != first[fine.block_of]]
    if len(straddling):
        raise ValidationError(f"fine block {fine.labels[straddling.min()]!r} "
                              "straddles coarse blocks; not a refinement")
    return Partition(*group_blocks(first), coarse.labels)


# ---------------------------------------------------------------------------
# lumpability test

class LumpWitness(NamedTuple):
    block_from: str
    block_to: str
    state: int
    state_sum: Fraction
    ref_state: int
    ref_sum: Fraction

    def __str__(self):
        return (f"block {self.block_from} → {self.block_to}: state "
                f"{self.ref_state} sums to {self.ref_sum} but state "
                f"{self.state} sums to {self.state_sum}")


@dataclass(frozen=True)
class LumpVerdict:
    lumpable: bool
    witness: Optional[LumpWitness] = None
    violations: Tuple[LumpWitness, ...] = ()

    def __bool__(self):
        return self.lumpable


def _block_sums(chain, block_of: np.ndarray, n_blocks: int):
    """Every (state, block) pair a row reaches, the state's own block
    included, with the summed numerator and the position of the row's first
    entry into the block, ordered by state then block: the keys are grouped
    by a stable sort and summed by `reduceat`, in the chain's exact
    integers. Keys are built in place, and each full-length temporary is
    let go once it has been read."""
    keys = np.repeat(np.arange(chain.n_states, dtype=np.int64) * n_blocks, np.diff(chain.indptr))
    keys += block_of[chain.cols]
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    new = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    del new
    keys = keys[starts]
    sums = np.add.reduceat(chain.nums[order], starts) if len(keys) else chain.nums[:0]
    return keys // n_blocks, keys % n_blocks, sums, order[starts]


def _spans(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated index ranges starts[i] : starts[i] + lengths[i]."""
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(lengths.sum())


def block_row_sums(chain, part: Partition, states: Sequence[int]) -> Chain:
    """The chain over the partition's blocks whose row i holds the nonzero
    block sums of `states[i]`, as integers over `chain.denom`."""
    states = np.asarray(states, dtype=np.int64)
    lengths = np.diff(chain.indptr)[states]
    at = _spans(chain.indptr[states], lengths)
    picked = Chain(np.concatenate(([0], np.cumsum(lengths))), chain.cols[at],
                   chain.nums[at], chain.denom)
    rows, blocks, sums, _ = _block_sums(picked, part.block_of, part.n_blocks)
    keep = sums != 0
    counts = np.bincount(rows[keep], minlength=len(states))
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return Chain(indptr, blocks[keep], sums[keep], chain.denom, exact=chain.exact)


def check_lumpable(chain, part: Partition, tol: Optional[float] = None,
                   exhaustive: bool = False) -> LumpVerdict:
    """Block-sum test against the smallest member of each block.

    Every (state, block) sum is compared: exactly when `tol` is None, else
    within the absolute tolerance `tol`, for chains imported from floats.
    An exact chain's own-block sums are one minus the rest, so its exact
    test reports none of them as a witness; a decimal chain's test does.
    `exhaustive` collects every violating (state, block) pair instead of
    stopping at the first.

    One vector pass over the block sums flags the states that differ from
    their block's smallest member; the flagged states' witnesses are read
    from the same sums. Reported sums become Fractions, one per value.
    """
    if tol is not None and not (isfinite(tol) and tol >= 0):
        raise ValidationError(f"tolerance must be a finite number >= 0, got {tol}")
    part.check_covers(chain.n_states)
    tol_num, tol_den = (0, 1) if tol is None else Fraction(tol).as_integer_ratio()
    # sums are integers over chain.denom, so |a - b| > tol exactly when
    # |a - b| * tol_den > tol_num * denom. The vector pass flags against
    # floor(tol * denom), clamped at denom to keep it small: a lower limit
    # only flags more states, and the exact rule decides each pair
    limit = min(tol_num * chain.denom // tol_den, chain.denom)
    block_of, n_blocks = part.block_of, part.n_blocks
    states, blocks, sums, reach = _block_sums(chain, block_of, n_blocks)
    ref = part.smallest[block_of]
    # each state's row of (block, sum) pairs against its reference's, pair
    # by pair: a state is flagged when the rows differ in length, or an
    # aligned pair in block or by more than `limit` in sum
    ptr = np.searchsorted(states, np.arange(chain.n_states + 1))
    lengths = np.diff(ptr)
    flag = lengths != lengths[ref]
    at = np.arange(len(states))
    at += (ptr[ref] - ptr[:-1])[states]
    np.minimum(at, len(states) - 1, out=at)
    flag[states[(blocks != blocks[at]) | (abs(sums - sums[at]) > limit)]] = True
    flagged = np.flatnonzero(flag)
    if not len(flagged):
        return LumpVerdict(True)

    # within each row, the blocks in the order the row first reaches them,
    # so that the set order of `base.keys() | agg.keys()` below is the one
    # the row-by-row reference gives
    by_reach = np.argsort(narrow(reach, len(chain.cols)), kind="stable")
    if tol is None and chain.exact:  # the own block's sum is one minus the rest
        by_reach = by_reach[blocks[by_reach] != block_of[states[by_reach]]]
        ptr = np.searchsorted(states[by_reach], np.arange(chain.n_states + 1))
    # plain lists from here: the loop reads one Python int at a time
    blocks, sums, ptr = blocks[by_reach].tolist(), sums[by_reach].tolist(), ptr.tolist()

    def row_sums(x: int) -> Dict[int, int]:
        return dict(zip(blocks[ptr[x]:ptr[x + 1]], sums[ptr[x]:ptr[x + 1]]))

    violations: List[LumpWitness] = []
    bases: Dict[int, Dict[int, int]] = {}
    frac = cache(lambda num: Fraction(num, chain.denom))
    labels, bound = part.labels, tol_num * chain.denom
    for x, r, k in zip(flagged.tolist(), ref[flagged].tolist(), block_of[flagged].tolist()):
        if r not in bases:
            bases[r] = row_sums(r)
        base, agg = bases[r], row_sums(x)
        for l in base.keys() | agg.keys():
            a, b = base.get(l, 0), agg.get(l, 0)
            if abs(a - b) * tol_den > bound:
                # the tuple's own constructor: NamedTuple's __new__ is Python
                witness = tuple.__new__(LumpWitness, (labels[k], labels[l], x, frac(b), r, frac(a)))
                if not exhaustive:
                    return LumpVerdict(False, witness, (witness,))
                violations.append(witness)
    if violations:
        return LumpVerdict(False, violations[0], tuple(violations))
    return LumpVerdict(True)


def lump(chain, part: Partition, tol: Optional[float] = None) -> Chain:
    """Reduce the chain; raises NotLumpableError (with the witness) if the
    partition fails the test. Row k holds the nonzero block sums of the
    smallest member of block k."""
    verdict = check_lumpable(chain, part, tol=tol)
    if not verdict:
        raise NotLumpableError(verdict.witness)
    return block_row_sums(chain, part, part.smallest)


# ---------------------------------------------------------------------------
# partition file format: one line per block, `label: idx idx ...`

# state indices written at a time: bounds the Python ints and text that a
# large block holds at once
_WRITE_SLICE = 1 << 12
_SPACE = np.frombuffer(b" ", dtype=np.uint8)


def write_partition(part: Partition, fh: TextIO) -> None:
    """One `label: idx idx ...` line per block. A label that would not read
    back, holding `:`, `#` or a line break or with outer blanks, is refused
    before anything is written."""
    bad = next((label for label in part.labels if ":" in label or "#" in label
                or label.strip() != label or len(label.splitlines()) > 1), None)
    if bad is not None:
        raise ValidationError(f"block label {bad!r} cannot be written: it holds ':', '#' "
                              "or a line break, or has outer blanks")
    bounds = part.indptr.tolist()
    for label, a, b in zip(part.labels, bounds, bounds[1:]):
        fh.write(f"{label}:")
        for lo in range(a, b, _WRITE_SLICE):
            fh.write(" " + " ".join(map(str, part.members[lo:min(lo + _WRITE_SLICE, b)].tolist())))
        fh.write("\n")


def _written_partition(text: str) -> Optional[Partition]:
    """The partition of a document whose every line holding more than
    blanks is the writer's `label: idx idx ...`, indices cut by single
    spaces, after a label holding no `#` and no line break but `\\n`; None
    for any other document. Text is read in pieces of whole lines, and
    bodies are converted straight into one array, sized by the spaces of
    the text. Pieces hold a sixteenth of the text or 2048 characters,
    whichever is more (or one line), so their temporaries stay below the
    members' own bytes without a numpy pass per few indices."""
    members, at, labels, counts = np.empty(text.count(" "), dtype=np.int64), 0, [], []
    most = max(len(text) // 16, 1 << 11)
    for piece in text_pieces(text, 0, "\n", most):
        lines = [line.partition(":") for line in piece.split("\n")]
        bodies = [body for _, sep, body in lines if sep]
        joined = "".join(bodies)
        if (any(not sep and label.strip() for label, sep, _ in lines)
                or not all(body.startswith(" ") for body in bodies) or joined.endswith(" ")):
            return None
        labels += [label for label, sep, _ in lines if sep]
        counts += [body.count(" ") for body in bodies]
        del piece, lines, bodies
        for part in text_pieces(joined, 1, " ", most):
            values = written_ints(part, _SPACE)
            if values is None:
                return None
            members[at:at + len(values)] = values
            at += len(values)
    heads = "\x00".join(labels)
    if "#" in heads or heads.splitlines() != [heads]:
        return None
    return Partition(members[:at], np.cumsum([0] + counts),
                     tuple(label.strip() for label in labels))


def read_partition(text: str) -> Partition:
    """Blocks from `label: idx idx ...` lines, in the writer's shape read
    in bulk; any other document line by line, which words every error."""
    written = _written_partition(text)
    if written is not None:
        return written
    lines = [(lineno, *line.partition(":")) for lineno, line in content_lines(text)]
    if not lines:
        raise DocumentParseError("partition file defines no blocks")
    members, indptr = [], [0]
    for lineno, _, sep, body in lines:
        if not sep:
            raise DocumentParseError("expected 'label: idx idx ...'", lineno)
        try:
            members.extend(map(int, body.split()))
        except ValueError:
            raise DocumentParseError("state indices must be integers", lineno)
        indptr.append(len(members))
    return Partition(members, indptr, tuple(label.strip() for _, label, _, _ in lines))


def load_partition(path) -> Partition:
    with open(path, "r", encoding="utf-8") as fh:
        return read_partition(fh.read())
