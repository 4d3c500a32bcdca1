"""Exact transition matrices for sequential single-change dynamics.

A model step draws an agent tuple and an option jointly, then applies the
deterministic update table to the focal agent. Summing the draw
probabilities over all draws that send configuration x to configuration y
gives the transition probability; the stay probability is one minus the
row's off-diagonal mass. Rows are exactly stochastic rationals and every
off-diagonal entry connects configurations differing in a single agent,
so each row holds at most (delta-1)*N + 1 nonzeros, each an integer over
the common denominator of the draw probabilities.
"""

from __future__ import annotations

import gc
import itertools
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from math import floor, gcd, lcm
from typing import Iterator, List, NamedTuple, Optional, Sequence, TextIO, Tuple

import numpy as np

from .errors import DocumentParseError, ValidationError
from .model import INT64_MAX, ModelSpec, content_lines, int_array, int_dtype, to_fractions
from .space import ConfigSpace

Row = Tuple[Tuple[int, Fraction], ...]

# largest integer a double holds exactly
FLOAT_EXACT = 2 ** 53


class RandomMap(NamedTuple):
    """One deterministic action of the dynamics: the map the system applies
    when a particular (agent tuple, option) draw comes up."""

    agents: Tuple[int, ...]
    option: int
    option_label: str
    probability: Fraction


def enumerate_maps(spec: ModelSpec) -> List[RandomMap]:
    """All positive-probability (agent tuple, option) draws as maps, in
    draw table order, with the choice's own key tuples and one Fraction
    per distinct probability. Probabilities sum to one; each map changes
    at most the focal agent. The maps hold no cycles, so the collector,
    which would pass over them to free nothing, is paused meanwhile."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        table, tuples = spec.draws, spec.choice.entries.tuples
        labels = [label for label, _ in spec.rule.options]
        at, options = np.repeat(spec.tuple_order, len(labels)).tolist(), table.options.tolist()
        # tuple.__new__ fills the named tuple positionally, without a Python call per map
        return list(map(tuple.__new__, itertools.repeat(RandomMap),
                        zip(map(tuples.__getitem__, at), options,
                            map(labels.__getitem__, options),
                            to_fractions(table.nums, table.denom))))
    finally:
        if enabled:
            gc.enable()


def apply_draws(spec: ModelSpec, space: ConfigSpace
                ) -> Iterator[Tuple[List[int], int, np.ndarray, np.ndarray]]:
    """Every draw of `spec.draws`, in order, applied to every state of
    `space` at once: its agents and numerator over `spec.draws.denom`,
    then the focal agent's current and new code, one per state."""
    outcome, delta, n_opts = spec.rule.outcome.ravel(), spec.delta, len(spec.rule.options)
    codes = np.ascontiguousarray(space.codes_matrix.T, dtype=np.int64)  # [agent, state]
    table = spec.draws
    for tup, opt, num in zip(table.agents.tolist(), table.options.tolist(),
                             table.nums.tolist()):
        pack = codes[tup[0]]
        for a in tup[1:]:
            pack = pack * delta + codes[a]
        yield tup, num, codes[tup[0]], outcome[pack * n_opts + opt]


def draw_targets(spec: ModelSpec, space: ConfigSpace) -> Iterator[np.ndarray]:
    """Per draw, in `enumerate_maps` order: the index of the state each
    state of `space` moves to."""
    states = np.arange(len(space.codes_matrix), dtype=np.int64)  # refuses indices past int64
    for tup, _, cur, new in apply_draws(spec, space):
        yield states + (new - cur) * space.radix[tup[0]]


def _over_common_denominator(num: np.ndarray, den: np.ndarray,
                             indptr: np.ndarray) -> Tuple[np.ndarray, int]:
    """Numerators of the ratios num/den over the lcm of their reduced
    denominators, and that lcm: num * (L / den) over the lcm L of the
    written ones, found by a sort, then both over their gcd g (L / g is
    that lcm). With every ratio in [-1, 1], numerators, row sums and their
    distance from one stay below denom * (width + 1) for rows of up to
    `width` entries; a ratio outside fails validation, which reports exact
    sums, so takes Python ints. Both arrays are overwritten: `num` is
    rescaled in place unless its dtype changes, and `den` holds L / den."""
    dens, width = np.sort(den), int(np.diff(indptr).max(initial=0))
    big = lcm(*np.append(dens[:1], dens[1:][dens[1:] != dens[:-1]]).tolist())
    del dens
    small = bool(np.all(abs(num) <= den))
    work = int_dtype(big * (width + 1)) if small else object
    num, den = num.astype(work, copy=False), den.astype(work, copy=False)
    num *= np.floor_divide(big, den, out=den)
    g = gcd(big, int(np.gcd.reduce(num, initial=0)))
    num //= g
    return num.astype(int_dtype(big // g * (width + 1)) if small else object, copy=False), big // g


def to_floats(nums: np.ndarray, denom: int) -> np.ndarray:
    """nums / denom rounded as float(Fraction(num, denom)) rounds it, to
    the nearest double: a double division of exact operands while `denom`
    (and so every |num|) is exact in a double, Python's correctly rounded
    int division above that."""
    if denom <= FLOAT_EXACT:
        return nums.astype(np.float64) / float(denom)
    return np.array([num / denom for num in nums.tolist()], dtype=np.float64)


def is_decimal(token: str) -> bool:
    """Is a value token a decimal, holding a point or an exponent? Those
    make a chain or distribution inexact; a ratio or a bare integer not."""
    return not {".", "e", "E"}.isdisjoint(token)


def decimal_text(p: Fraction) -> str:
    """A sum of values read as decimals, shown as a float, or in 17
    significant digits when it is beyond the largest double."""
    try:
        return str(float(p))
    except OverflowError:
        return f"{Decimal(p.numerator) / p.denominator:.17g}"


@dataclass(frozen=True, eq=False)
class Chain:
    """Exact sparse transition matrix in CSR form over one common
    denominator.

    Row x keeps its entries at positions indptr[x]:indptr[x+1] of `cols`
    (ascending) and `nums`; entry k is the probability nums[k] / denom.
    `nums` is int64 when every numerator and row sum fits in it, an object
    array of Python ints otherwise, and every kernel but the sparse
    writer's byte formatter runs the same numpy code on both. Compiled
    chains carry their configuration space; chains read from a file or
    reduced over a partition have none. `exact` is False when an imported
    entry was written as a decimal rather than a ratio.
    """

    indptr: np.ndarray
    cols: np.ndarray
    nums: np.ndarray
    denom: int
    space: Optional[ConfigSpace] = None
    exact: bool = True

    @property
    def n_states(self) -> int:
        return len(self.indptr) - 1

    def nnz(self) -> int:
        return len(self.cols)

    @cached_property
    def sources(self) -> np.ndarray:
        """Row index of every stored entry."""
        return np.repeat(np.arange(self.n_states, dtype=np.int64), np.diff(self.indptr))

    @cached_property
    def rows(self) -> Tuple[Row, ...]:
        """The matrix as `((col, Fraction), ...)` per row, built on first
        use."""
        entries = list(zip(self.cols.tolist(), to_fractions(self.nums, self.denom)))
        bounds = self.indptr.tolist()
        return tuple(tuple(entries[a:b]) for a, b in zip(bounds, bounds[1:]))


def build_micro_chain(spec: ModelSpec, cap: Optional[int] = None) -> Chain:
    """Assemble the exact transition matrix, one masked add per draw and slot.

    An off-diagonal entry is fixed by its (focal agent, new code) pair: slot
    (i, k), where agent i takes the k-th code other than its own, is the
    contiguous row i * (delta-1) + k of one (slots + 1, states) array. Each
    draw adds its integer weight over the common denominator of all draw
    probabilities to its focal agent's rows where its new code is the row's;
    the last row, the stay, takes the rest of each column, which comes out
    exactly stochastic. The array's transpose holds the rows' entries.
    """
    space = spec.space(cap)
    codes = space.codes_matrix  # before any array over the states: refuses indices past int64
    n, delta, size = spec.n_agents, spec.delta, space.size
    denom = spec.draws.denom
    other = delta - 1
    # rows of n * other + 1 entries in [0, 1]: as in `_over_common_denominator`
    dtype = int_dtype(denom * (n * other + 2))
    values = np.zeros((n * other + 1, size), dtype=dtype)
    k = np.arange(other)
    # slot row j's code per state, int64 as `new` is: no cast buffer per compare
    to = (k[:, None] + (k[:, None] >= codes.T[:, None])).reshape(-1, size)
    for tup, num, _, new in apply_draws(spec, space):
        for j in range(tup[0] * other, tup[0] * other + other):
            np.add(values[j], num, out=values[j], where=new == to[j])
    del to  # as large as the slot rows: freed before the sort's arrays
    np.subtract(denom, values[:-1].sum(axis=0), out=values[-1])

    states = np.arange(size, dtype=np.int64)
    cur = codes[:, :, None]
    targets = states[:, None, None] + (k + (k >= cur) - cur) * space.radix[:, None]
    targets = np.concatenate([targets.reshape(size, -1), states[:, None]], axis=1)
    order = np.argsort(targets, axis=1)
    targets = np.take_along_axis(targets, order, axis=1)
    values = np.take_along_axis(values.T, order, axis=1)
    keep = values != 0
    indptr = np.concatenate(([0], np.cumsum(keep.sum(axis=1))))
    return Chain(indptr, targets[keep], values[keep], denom, space=space)


# ---------------------------------------------------------------------------
# sparse matrix file format

# lines written, and characters read, at a time: bounds the temporary
# strings and token lists held at once
_CHUNK_LINES = 1 << 12
_CHUNK_CHARS = 1 << 16
# how far a row of an imported decimal chain may sum from one
SUM_TOL = 1e-9


def validate_stochastic(chain: Chain) -> None:
    """No negative entry, and every row summing to one: exactly, or within
    `SUM_TOL` when `chain.exact` is False. Reports the first failing row.
    Column order is the reader's to check, line by line."""
    n, nums, denom = chain.n_states, chain.nums, chain.denom
    negative, sums = np.zeros(n, dtype=bool), np.zeros(n, dtype=nums.dtype)
    filled = np.flatnonzero(np.diff(chain.indptr))
    if len(filled):
        negative[filled] = np.minimum.reduceat(nums, chain.indptr[filled]) < 0
        sums[filled] = np.add.reduceat(nums, chain.indptr[filled])
    # |sum - denom| is an integer, so comparing it with 0, or floor(SUM_TOL *
    # denom) when inexact, is exact; the clamp keeps the bound inside int64
    limit = 0 if chain.exact else min(floor(Fraction(SUM_TOL) * denom), INT64_MAX)
    bad = np.flatnonzero(negative | (abs(sums - denom) > limit))
    if not len(bad):
        return
    x = int(bad[0])
    if negative[x]:
        raise ValidationError(f"row {x} has a negative entry")
    total = Fraction(int(sums[x]), denom)
    if chain.exact:
        raise ValidationError(f"row {x} sums to {total} ≠ 1")
    raise ValidationError(f"row {x} sums to {decimal_text(total)} outside 1±{SUM_TOL}")


# the writer's line shape `row col num/den`: the byte that follows each of
# a line's four integers, and the powers of ten below 2**63
_SEPARATORS = np.frombuffer(b"  /\n", dtype=np.uint8)
_POW10 = 10 ** np.arange(19, dtype=np.int64)
_ZERO = ord("0")


def _written_text(values: np.ndarray) -> str:
    """Non-negative int64 values in decimal, four to a line, each followed
    by its byte of `_SEPARATORS`: token lengths from the powers of ten,
    then the digits placed one position at a time, in the smallest unsigned
    type holding every value (Python-int divisors keep that width)."""
    lengths = 1 + np.searchsorted(_POW10[1:], values, side="right")
    ends = np.cumsum(lengths + 1)
    out = np.empty(int(ends[-1]), dtype=np.uint8)
    out[ends.reshape(-1, 4) - 1] = _SEPARATORS
    last = ends - 2
    values = values.astype(np.min_scalar_type(values.max()))
    out[last] = values % 10 + _ZERO
    for j in range(1, int(lengths.max())):
        live = np.flatnonzero(lengths > j)
        out[last[live] - j] = values[live] // 10 ** j % 10 + _ZERO
    return out.tobytes().decode("ascii")


def write_sparse(chain: Chain, fh: TextIO) -> None:
    """`states=<n> nnz=<m>` header, ending in ` exact=0` when the chain is
    not exact, then `row col num/den` lines in lowest terms, rows and
    columns ascending. int64 chunks are formatted as bytes; Python-int
    chunks, and chunks with a negative entry (only library-built chains
    that fail validation have one), take a `%` template."""
    fh.write(f"states={chain.n_states} nnz={chain.nnz()}{'' if chain.exact else ' exact=0'}\n")
    for lo in range(0, chain.nnz(), _CHUNK_LINES):
        at = slice(lo, lo + _CHUNK_LINES)
        nums = chain.nums[at]
        g = np.gcd(nums, chain.denom)
        fields = np.column_stack((chain.sources[at], chain.cols[at], nums // g,
                                  chain.denom // g))
        if fields.dtype == np.int64 and nums.min() >= 0:
            fh.write(_written_text(fields.ravel()))
        else:
            fh.write("%d %d %d/%d\n" * len(nums) % tuple(fields.ravel().tolist()))


def _written_fields(piece: str) -> Optional[Tuple[np.ndarray, ...]]:
    """Rows, columns, numerators and denominators (int64) of `piece` when
    every line of it is in the writer's shape, `row col num/den` with single
    ASCII spaces and lines joined by `\\n`; None for any other text."""
    values = written_ints(piece, _SEPARATORS)
    return None if values is None else tuple(values.reshape(-1, 4).T)


def written_ints(piece: str, cycle: np.ndarray) -> Optional[np.ndarray]:
    """The int64 values of `piece` when it is tokens of 1 to 18 ASCII digits,
    so below 2**63, each but the last followed by the next byte of `cycle`
    in turn, the last where `cycle` ends; None for any other text, the empty
    piece included. Values are summed one digit position at a time, with
    the positions walked in place, the lengths held as uint8, and the sums
    in int32 while no token has more than 9 digits."""
    # one byte per character, never raising: "?" for anything not ASCII;
    # the cycle's last byte ends the last token. Digits become 0..9, and
    # every other byte more (uint8 wraps below "0").
    digit = np.frombuffer(piece.encode("ascii", "replace") + cycle[-1:].tobytes(),
                          dtype=np.uint8) - _ZERO
    ends = np.flatnonzero(digit > 9)  # each token's end
    if len(ends) % len(cycle) or not (digit[ends].reshape(-1, len(cycle)) == cycle - _ZERO).all():
        return None
    lengths = ends.copy()
    lengths[1:] -= ends[:-1] + 1
    top = int(lengths.max())
    if lengths.min() < 1 or top > 18:
        return None
    # widened before any multiply, by Python ints, which numpy keeps at the
    # sums' width. A token no longer than j reads an earlier byte (the first
    # token may wrap to the end), which the mask drops.
    at, wide, lengths = ends, np.int32 if top <= 9 else np.int64, lengths.astype(np.uint8)
    at -= 1
    values, digits = digit[at].astype(wide), np.empty(len(at), dtype=wide)
    for j in range(1, top):
        at -= 1
        digits[:] = digit[at]
        digits *= 10 ** j
        digits *= lengths > j
        values += digits
    return values.astype(np.int64, copy=False)


def _split_header(text: str) -> Tuple[str, int]:
    """The first line of `text` holding more than blanks and a comment,
    stripped of both, and the offset just past it; "" when there is none."""
    start = 0
    while start < len(text):
        end = text.find("\n", start)
        end = len(text) if end < 0 else end + 1
        for line in text[start:end].splitlines(keepends=True):
            start += len(line)
            if header := line.split("#")[0].strip():
                return header, start
    return "", start


def text_pieces(text: str, start: int, sep: str = "\n",
                most: Optional[int] = None) -> Iterator[str]:
    """Bounded pieces of `text` from `start` on, without their last `sep`:
    each ends just before the first `sep` past `_CHUNK_CHARS` characters,
    or past `most` if that is fewer. No line, \\r\\n pair or index is cut."""
    size = max(1, _CHUNK_CHARS if most is None else min(_CHUNK_CHARS, most))
    while start < len(text):
        end = text.find(sep, start + size)
        if end < 0:
            end = len(text) - text.endswith(sep)
        yield text[start:end]
        start = end + 1


def _entry(line: str, n_states: int, prev: Tuple[int, int]) -> Tuple[int, int, Fraction]:
    """Row, column and value of one entry line that follows the entry
    `prev`, or a DocumentParseError naming the first rule the line breaks,
    in the order they apply: three tokens, integer row and col, both in
    range and below 2**63, strictly ascending, a ratio or decimal value."""
    toks = line.split()
    if len(toks) != 3:
        raise DocumentParseError("expected: row col value")
    try:
        x, y = int(toks[0]), int(toks[1])
    except ValueError:
        raise DocumentParseError("row and col must be integers") from None
    if not (0 <= x < n_states and 0 <= y < n_states) or max(x, y) > INT64_MAX:
        raise DocumentParseError(f"state pair ({x},{y}) out of range")
    if (x, y) <= prev:
        raise DocumentParseError("entries must be strictly ascending by (row, col)")
    try:
        return x, y, Fraction(toks[2])
    except (ValueError, ZeroDivisionError):
        raise DocumentParseError(f"bad value {toks[2]!r}") from None


def _parse_entries(body: str, fields: Optional[Tuple[np.ndarray, ...]], numbers: Sequence[int],
                   n_states: int, prev: Tuple[int, int]):
    """Rows, columns, numerators and denominators of the entry lines of
    `body`, joined by `\\n`, that follow the entry `prev`, and whether no
    value is a decimal; or the error of the first line failing a check,
    named by its file line in `numbers`.

    The byte gate's arrays (`fields`) are checked as arrays. Text the gate
    rejected, or in which a check flags a line, is converted by `_entry`
    up to its first bad line, so `_entry` words every message.
    """
    if fields is not None:
        xs, ys, _, den = fields
        px, py = np.append(prev[0], xs[:-1]), np.append(prev[1], ys[:-1])
        if np.all((den != 0) & (xs >= 0) & (xs < n_states) & (ys >= 0) & (ys < n_states)
                  & ((xs > px) | ((xs == px) & (ys > py)))):
            return fields, True, None
    entries, exact = [], True
    for line in body.split("\n"):
        try:
            entries.append(_entry(line, n_states, prev))
        except DocumentParseError as exc:
            return None, None, DocumentParseError(str(exc), numbers[len(entries)])
        prev = entries[-1][:2]
        exact = exact and not is_decimal(line.split()[-1])
    xs, ys, values = zip(*entries)
    return (int_array(xs), int_array(ys), int_array([p.numerator for p in values]),
            int_array([p.denominator for p in values])), exact, None


def read_sparse(text: str) -> Chain:
    """Parse the sparse format; entries may be ratios, integers or decimals.
    The chain is inexact when one entry is a decimal (`is_decimal`) or the
    header holds `exact=0`; a header key may appear once.

    After the header, a piece of text the byte gate rejects loses comments,
    blank lines (`content_lines`) and runs of blanks, and meets the gate
    once more; `_entry` converts what it still rejects, line by line.
    Errors name file lines, once the entry count has been checked."""
    header, start = _split_header(text)
    if not header:
        raise DocumentParseError("empty sparse file")
    lineno = len(text[:start].splitlines())
    fields = {}
    for key, value in (part.split("=", 1) for part in header.split() if "=" in part):
        if key in fields:
            raise DocumentParseError(f"repeated key {key!r} in the header", lineno)
        fields[key] = value
    if "states" not in fields or "nnz" not in fields:
        raise DocumentParseError("header must be 'states=<n> nnz=<m>'", lineno)
    try:
        n_states, nnz = int(fields["states"]), int(fields["nnz"])
    except ValueError:
        raise DocumentParseError("header counts must be integers", lineno)
    if n_states < 1 or nnz < 0:
        raise DocumentParseError(
            f"header needs states >= 1 and nnz >= 0, got states={n_states} nnz={nnz}", lineno)
    # rows, columns, numerators and denominators, filled piece by piece. An
    # entry line holds three tokens and two blanks, and a line break parts
    # it from the next, so a header that lies sizes nothing past the text
    size = min(nnz, (len(text) - start + 1) // 6)
    columns = [np.empty(size, dtype=np.int64) for _ in range(4)]
    exact, error, found, prev = fields.get("exact") != "0", None, 0, (-1, -1)
    for body in text_pieces(text, start):
        # numbers: the file line of each entry line of `body`, which lost
        # the "\n" ending its last line
        fields = _written_fields(body)
        if fields is None:
            numbered = list(content_lines(body))
            numbers = [lineno + k for k, _ in numbered]
            lineno += len((body + "\n").splitlines())
            body = "\n".join(" ".join(ln.split()) for _, ln in numbered)
            fields = _written_fields(body)
        else:
            numbers = range(lineno + 1, lineno + 1 + len(fields[0]))
            lineno += len(numbers)
        lo, found = found, found + len(numbers)
        # past `nnz` the entry count is wrong, which is reported first
        if error is not None or not numbers or found > nnz:
            continue
        arrays, chunk_exact, error = _parse_entries(body, fields, numbers, n_states, prev)
        if error is None:  # so `found` entry lines fit in `size`
            for k, array in enumerate(arrays):
                if array.dtype == object:  # Python ints from this piece on
                    columns[k] = columns[k].astype(object, copy=False)
                columns[k][lo:found] = array
            exact = exact and chunk_exact
            prev = (int(arrays[0][-1]), int(arrays[1][-1]))
    if found != nnz:
        raise DocumentParseError(f"expected {nnz} entry lines, found {found}")
    if error is not None:
        raise error
    xs, ys, num, den = columns
    del columns
    # the first row holding no entry fails validation before any later row,
    # so the chain ends there: its arrays need not reach `n_states`
    held = np.append(xs[:1], xs[1:][xs[1:] != xs[:-1]])
    rows = min(n_states, int((held == np.arange(len(held))).sum()) + 1)
    cut = np.searchsorted(xs, rows)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(xs[:cut], minlength=rows))))
    del xs, held
    nums, denom = _over_common_denominator(num, den, indptr)
    del num, den
    chain = Chain(indptr, ys[:cut], nums[:cut], denom, exact=exact)
    validate_stochastic(chain)
    return chain


def load_chain(path) -> Chain:
    with open(path, "r", encoding="utf-8") as fh:
        return read_sparse(fh.read())
