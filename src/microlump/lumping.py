"""Partitions of the state space, the block-sum lumpability test, and
construction of the reduced chain.

A partition passes the test when, block by block, every member state sends
the same total probability into each other block; those common sums are the
reduced chain's entries. Rows are exactly stochastic, so the sum into a
state's own block is implied by the others and the exact test skips it
(tolerance mode, meant for imported float chains, checks every pair).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isfinite
from typing import Dict, List, Optional, Sequence, TextIO, Tuple

import numpy as np

from .chain import Chain
from .errors import DocumentParseError, NotLumpableError, ValidationError
from .space import ConfigSpace


@dataclass(frozen=True)
class Partition:
    """Disjoint blocks of state indices covering 0..n_states-1, labeled."""

    blocks: Tuple[Tuple[int, ...], ...]
    labels: Tuple[str, ...]

    def __post_init__(self):
        if len(self.blocks) != len(self.labels):
            raise ValidationError("need exactly one label per block")
        if len(set(self.labels)) != len(self.labels):
            raise ValidationError("block labels must be distinct")
        seen: Dict[int, int] = {}
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
    def n_states(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @cached_property
    def block_of(self) -> Tuple[int, ...]:
        out = [0] * self.n_states
        for bid, block in enumerate(self.blocks):
            for x in block:
                out[x] = bid
        return tuple(out)

    def check_covers(self, n_states: int) -> None:
        """Raise unless the blocks cover exactly `n_states` chain states."""
        if self.n_states != n_states:
            raise ValidationError(
                f"partition covers {self.n_states} states, chain has {n_states}")

    def label_of(self, state: int) -> str:
        return self.labels[self.block_of[state]]

    def same_blocks(self, other: "Partition") -> bool:
        """Equality as set partitions, ignoring labels and block order."""
        return ({frozenset(b) for b in self.blocks}
                == {frozenset(b) for b in other.blocks})


def singleton_partition(n_states: int) -> Partition:
    return Partition(tuple((x,) for x in range(n_states)),
                     tuple(str(x) for x in range(n_states)))


def group_blocks(keys) -> Tuple[Tuple[int, ...], ...]:
    """States grouped by an integer key per state: blocks in ascending key
    order, members ascending."""
    keys = np.asarray(keys)
    order = np.argsort(keys, kind="stable")
    cuts = np.flatnonzero(np.diff(keys[order])) + 1
    return tuple(tuple(b.tolist()) for b in np.split(order, cuts))


def count_label(counts: Sequence[int]) -> str:
    return "⟨" + ",".join(str(int(k)) for k in counts) + "⟩"


def count_classes(counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What np.unique(counts, axis=0) returns with return_index,
    return_inverse and return_counts, without its row-wise sort: the rows
    are ranked into one int64 key a column at a time, each fold compressed
    by the 1-D np.unique, so a key stays below len(counts) * (N + 1)."""
    key = np.zeros(len(counts), dtype=np.int64)
    for col in counts.T:
        key = np.unique(key * (int(col.max()) + 1) + col, return_inverse=True)[1]
    _, first, sizes = np.unique(key, return_index=True, return_counts=True)
    return first, key, sizes


def frequency_partition(space: ConfigSpace) -> Partition:
    """States grouped by their attribute-count vector.

    Block count is the number of ways to split N agents over delta codes,
    C(N+delta-1, delta-1); blocks are ordered by smallest member state.
    """
    counts = space.counts_matrix
    first, inverse, _ = count_classes(counts)
    blocks = group_blocks(first[inverse])
    return Partition(blocks, tuple(count_label(counts[b[0]]) for b in blocks))


def moran_partition(space: ConfigSpace, distinguished: int = 0) -> Partition:
    """N+1 line states X_k, k = number of agents holding the distinguished
    code; coincides with the count partition when there are two codes."""
    if not 0 <= distinguished < space.delta:
        raise ValidationError(f"attribute code {distinguished} out of range")
    blocks = group_blocks(space.counts_matrix[:, distinguished])
    return Partition(blocks, tuple(f"X_{k}" for k in range(space.n_agents + 1)))


def half_hypercube_partition(space: ConfigSpace) -> Partition:
    """Binary only: Y_k joins the count classes with k and N-k agents in
    one state, folding the state flip away."""
    if space.delta != 2:
        raise ValidationError("half-hypercube reduction needs exactly two codes")
    n = space.n_agents
    tallies = space.counts_matrix[:, 0]
    blocks = group_blocks(np.minimum(tallies, n - tallies))
    return Partition(blocks, tuple(f"Y_{k}" for k in range(n // 2 + 1)))


def induced_partition(fine: Partition, coarse: Partition) -> Partition:
    """The coarse partition expressed over the fine partition's blocks.

    Requires coarse to be a union of fine blocks; block b of the result
    collects the fine block ids inside coarse block b.
    """
    if fine.n_states != coarse.n_states:
        raise ValidationError("partitions cover different state counts")
    groups: List[List[int]] = [[] for _ in coarse.blocks]
    for fid, block in enumerate(fine.blocks):
        targets = {coarse.block_of[x] for x in block}
        if len(targets) != 1:
            raise ValidationError(
                f"fine block {fine.labels[fid]!r} straddles coarse blocks; not a refinement")
        groups[targets.pop()].append(fid)
    return Partition(tuple(tuple(g) for g in groups), coarse.labels)


# ---------------------------------------------------------------------------
# lumpability test

@dataclass(frozen=True)
class LumpWitness:
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


def _block_sums(chain, block_of: np.ndarray, n_blocks: int, own: bool):
    """Every (state, block) pair a row reaches, with the summed numerator
    and the position of the row's first entry into the block, ordered by
    state then block: the keys are grouped by a stable sort and summed by
    `reduceat`, in the chain's exact integers. `own=False` leaves out each
    state's own block."""
    src = chain.sources
    blk = block_of[chain.cols]
    keys = src * n_blocks + blk
    nums = chain.nums
    if not own:
        other = blk != block_of[src]
        keys, nums = keys[other], nums[other]
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    sums = np.add.reduceat(nums[order], starts) if len(keys) else nums[:0]
    keys = keys[starts]
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
    block_of = np.asarray(part.block_of, dtype=np.int64)
    rows, blocks, sums, _ = _block_sums(picked, block_of, part.n_blocks, own=True)
    keep = sums != 0
    counts = np.bincount(rows[keep], minlength=len(states))
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return Chain(indptr, blocks[keep], sums[keep], chain.denom, exact=chain.exact)


def check_lumpable(chain, part: Partition, tol: Optional[float] = None,
                   exhaustive: bool = False) -> LumpVerdict:
    """Block-sum test against the first member of each block.

    Exact mode compares rationals and skips each state's own block (its sum
    is one minus the rest). `tol` switches to absolute-difference
    comparison including the own block, for chains imported from floats.
    `exhaustive` collects every violating (state, block) pair instead of
    stopping at the first.

    One vector pass over the block sums flags the states that differ from
    their block's first member; the flagged states' witnesses are read
    from the same sums, and only reported ones become Fractions.
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
    block_of = np.asarray(part.block_of, dtype=np.int64)
    n_blocks = part.n_blocks
    states, blocks, sums, reach = _block_sums(chain, block_of, n_blocks, own=tol is not None)
    if not len(states):
        return LumpVerdict(True)
    keys = states * n_blocks + blocks

    def sum_at(x, b):
        """Summed numerator of each (x, b) pair, 0 where the row misses b."""
        want = x * n_blocks + b
        pos = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
        return np.where(keys[pos] == want, sums[pos], 0)

    _, first = np.unique(block_of, return_index=True)
    ref = first[block_of]
    # each state's sums against its reference's, then the reference's
    # sums against every member of its block
    bad_own = abs(sums - sum_at(ref[states], blocks)) > limit
    ptr = np.searchsorted(states, np.arange(chain.n_states + 1))
    lengths = np.diff(ptr)[ref]
    members = np.repeat(np.arange(chain.n_states), lengths)
    at = _spans(ptr[ref], lengths)
    bad_ref = abs(sum_at(members, blocks[at]) - sums[at]) > limit
    flagged = np.unique(np.concatenate((states[bad_own], members[bad_ref])))
    flagged = flagged[ref[flagged] != flagged]
    if not len(flagged):
        return LumpVerdict(True)

    # within each row, the blocks in the order the row first reaches them,
    # so that the set order of `base.keys() | agg.keys()` below is the one
    # the row-by-row reference gives
    by_reach = np.argsort(reach)
    blocks, sums = blocks[by_reach], sums[by_reach]

    def row_sums(x: int) -> Dict[int, int]:
        return dict(zip(blocks[ptr[x]:ptr[x + 1]].tolist(),
                        sums[ptr[x]:ptr[x + 1]].tolist()))

    violations: List[LumpWitness] = []
    bases: Dict[int, Dict[int, int]] = {}
    for x in flagged.tolist():
        r = int(ref[x])
        k = part.block_of[x]
        if r not in bases:
            bases[r] = row_sums(r)
        base, agg = bases[r], row_sums(x)
        for l in base.keys() | agg.keys():
            a, b = base.get(l, 0), agg.get(l, 0)
            if abs(a - b) * tol_den > tol_num * chain.denom:
                witness = LumpWitness(part.labels[k], part.labels[l], x,
                                      Fraction(b, chain.denom), r, Fraction(a, chain.denom))
                if not exhaustive:
                    return LumpVerdict(False, witness, (witness,))
                violations.append(witness)
    if violations:
        return LumpVerdict(False, violations[0], tuple(violations))
    return LumpVerdict(True)


def lump(chain, part: Partition, tol: Optional[float] = None) -> Chain:
    """Reduce the chain; raises NotLumpableError (with the witness) if the
    partition fails the test. Row k holds the nonzero block sums of the
    first listed member of block k."""
    verdict = check_lumpable(chain, part, tol=tol)
    if not verdict:
        raise NotLumpableError(verdict.witness)
    return block_row_sums(chain, part, [block[0] for block in part.blocks])


# ---------------------------------------------------------------------------
# partition file format: one line per block, `label: idx idx ...`

def write_partition(part: Partition, fh: TextIO) -> None:
    for label, block in zip(part.labels, part.blocks):
        fh.write(f"{label}: {' '.join(str(x) for x in block)}\n")


def read_partition(text: str) -> Partition:
    blocks: List[Tuple[int, ...]] = []
    labels: List[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#")[0].strip()
        if not line:
            continue
        label, sep, body = line.partition(":")
        if not sep:
            raise DocumentParseError("expected 'label: idx idx ...'", lineno)
        try:
            members = tuple(int(tok) for tok in body.split())
        except ValueError:
            raise DocumentParseError("state indices must be integers", lineno)
        labels.append(label.strip())
        blocks.append(members)
    if not blocks:
        raise DocumentParseError("partition file defines no blocks")
    return Partition(tuple(blocks), tuple(labels))


def load_partition(path) -> Partition:
    with open(path, "r", encoding="utf-8") as fh:
        return read_partition(fh.read())
