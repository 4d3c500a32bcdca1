"""Chain analysis: state classification, absorption solves, exact
distribution propagation, and the micro/macro commutation check.

Everything reads the chain's integer CSR arrays. Verdict-style
computations (propagation, commutation) stay exact: a distribution is held
as integer numerators over one common denominator and pushed one numpy
pass per step. Absorption probabilities and expected step counts come
from float solves of the transient-block systems, strongly connected
components batched by height and size, with each component's residual
against its own right-hand side reported and bounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice
from math import gcd
from typing import Dict, Iterator, List, Sequence, TextIO, Tuple

import numpy as np

from .chain import Chain, decimal_text, is_decimal, to_floats, to_fractions
from .errors import AnalysisError, DocumentParseError, ValidationError
from .lumping import Partition, block_row_sums, group_blocks, lump
from .model import INT64_MAX, content_lines, int_dtype, narrow, to_numerators
from .space import integer

RESIDUAL_BOUND = 1e-9


@dataclass(frozen=True)
class Classification:
    absorbing: Tuple[int, ...]
    transient: Tuple[int, ...]
    recurrent_classes: Tuple[Tuple[int, ...], ...]


def _components(chain: Chain) -> Tuple[np.ndarray, int]:
    """Kosaraju: each state's strongly connected component id, and the
    number of ids. The first search lists states as they finish along the
    entries; the second, in reverse finishing order, gives each unlabelled
    state and the unlabelled states it reaches against the entries one id."""
    n, cols, bounds = chain.n_states, chain.cols.tolist(), chain.indptr.tolist()
    seen, finished = [False] * n, []
    for root in range(n):
        if not seen[root]:
            seen[root] = True
            work = [(root, iter(cols[bounds[root]:bounds[root + 1]]))]
            while work:
                for w in work[-1][1]:
                    if not seen[w]:
                        seen[w] = True
                        work.append((w, iter(cols[bounds[w]:bounds[w + 1]])))
                        break
                else:  # no unseen successor left: the state finishes
                    finished.append(work.pop()[0])
    order = np.argsort(narrow(chain.cols, n), kind="stable")
    preds = chain.sources[order].tolist()
    pred_bounds = np.searchsorted(chain.cols[order], np.arange(n + 1)).tolist()
    comp, count = [-1] * n, 0
    for root in reversed(finished):
        if comp[root] < 0:
            comp[root], todo = count, [root]
            while todo:
                v = todo.pop()
                for w in preds[pred_bounds[v]:pred_bounds[v + 1]]:
                    if comp[w] < 0:
                        comp[w] = count
                        todo.append(w)
            count += 1
    return np.array(comp, dtype=np.int64), count


def _classify(chain: Chain) -> Tuple[Classification, Chain, np.ndarray, np.ndarray]:
    """`classify_states`, the chain's nonzero entries (a zero entry is no
    transition), each state's Kosaraju component id, and the height of each
    state's component: 0 when no entry leaves it, else one more than the
    highest component it has an entry into."""
    if not (keep := chain.nums != 0).all():
        counts = np.bincount(chain.sources[keep], minlength=chain.n_states)
        chain = Chain(np.concatenate(([0], np.cumsum(counts))), chain.cols[keep],
                      chain.nums[keep], chain.denom)
    comp, count = _components(chain)
    # Kosaraju's ids ascend along every entry, so sources in descending id
    # meet each target's height final
    src, dst = comp[chain.sources], comp[chain.cols]
    edges = np.unique(src[src != dst] * count + dst[src != dst])[::-1]
    heights = [0] * count
    for s, d in zip((edges // count).tolist(), (edges % count).tolist()):
        heights[s] = max(heights[s], heights[d] + 1)
    height = np.array(heights, dtype=np.int64)[comp]
    closed = np.flatnonzero(height == 0)
    # closed states grouped by component, each group ascending; a chain of
    # no states has one empty group, which is no class
    members, cuts = group_blocks(comp[closed])
    members, cuts = closed[members].tolist(), cuts.tolist()
    recurrent = sorted(tuple(members[a:b]) for a, b in zip(cuts, cuts[1:]) if a < b)
    single = np.flatnonzero(np.diff(chain.indptr) == 1)
    first = chain.indptr[single]
    absorbing = single[(chain.cols[first] == single) & (chain.nums[first] == chain.denom)]
    return Classification(absorbing=tuple(absorbing.tolist()),
                          transient=tuple(np.flatnonzero(height).tolist()),
                          recurrent_classes=tuple(recurrent)), chain, comp, height


def classify_states(chain: Chain) -> Classification:
    """Absorbing states, transient states, and the recurrent classes.

    Entries of zero are no transitions. A state is absorbing when its one
    nonzero entry is on the diagonal and equals `denom`; a strongly
    connected component is recurrent when no entry leaves it.
    """
    return _classify(chain)[0]


@dataclass(frozen=True)
class AbsorptionReport(Classification):
    """Float absorption probabilities and expected steps for the transient
    block. Values are floats by construction; everything exact lives in the
    chain itself."""

    probs: np.ndarray          # (len(transient), len(absorbing))
    expected_steps: np.ndarray  # (len(transient),)
    residual_probs: float
    residual_steps: float

    @cached_property
    def _places(self) -> Tuple[Dict[int, int], Dict[int, int]]:
        """Each transient state's row and each absorbing state's column of
        `probs`, built on the first lookup."""
        return ({x: i for i, x in enumerate(self.transient)},
                {x: j for j, x in enumerate(self.absorbing)})

    def _row(self, state: int) -> int:
        if state not in (rows := self._places[0]):
            raise AnalysisError(f"state {state} is neither transient nor absorbing")
        return rows[state]

    def fixation_prob(self, state: int, target: int) -> float:
        cols = self._places[1]
        if target not in cols:
            raise AnalysisError(f"state {target} is not absorbing")
        if state in cols:
            return 1.0 if state == target else 0.0
        return float(self.probs[self._row(state), cols[target]])

    def steps_from(self, state: int) -> float:
        return 0.0 if state in self._places[1] else float(self.expected_steps[self._row(state)])


def absorption_analysis(chain: Chain) -> AbsorptionReport:
    """Solve the transient-block systems for absorption probabilities and
    expected absorption times, components of one height and size as one
    stack, lowest height first. The residuals are the largest entries of
    (I - Q_CC) x_C - b_C over the components C, b_C being the right-hand
    side C was solved with.

    Requires every state to reach an absorbing state; a recurrent class
    that is not a unit self-loop is reported with one of its states, and a
    batch whose matrix is singular in floats with its first state.
    """
    cls, chain, comp, height = _classify(chain)
    # the least state of the first recurrent class that is no absorbing state
    stuck = np.setdiff1d(np.flatnonzero(height == 0), cls.absorbing)
    if len(stuck):
        raise AnalysisError(f"state {stuck[0]} cannot reach any absorbing state")
    if not cls.absorbing:
        raise AnalysisError("chain has no absorbing state")
    transient, absorbing = np.array(cls.transient, dtype=np.int64), cls.absorbing
    nt, na = len(transient), len(absorbing)
    # batches of the components of one height and size, lowest height first,
    # each component's members ascending: q is a transient state's place in
    # batch order (an absorbing state's column), off its place in its batch
    tc = comp[transient]
    size = np.bincount(tc)[tc]
    order = np.lexsort((tc, size, height[transient]))
    q = np.zeros(chain.n_states, dtype=np.int64)
    q[transient[order]], q[list(absorbing)] = np.arange(nt), np.arange(na)
    k, place = size[order], np.arange(nt)
    new = np.diff(height[transient[order]] * (nt + 1) + k, prepend=-1) != 0
    off = place - np.maximum.accumulate(np.where(new, place, 0))
    # the entries of transient rows, rows in batch order, each in column order
    at = np.flatnonzero(height[chain.sources])
    at = at[np.argsort(narrow(q[chain.sources[at]], nt), kind="stable")]
    sa, ca = chain.sources[at], chain.cols[at]
    rows, qc, values = q[sa], q[ca], to_floats(chain.nums[at], chain.denom)
    to_r, inner = height[ca] == 0, comp[sa] == comp[ca]
    loop, out, inner = inner & (rows == qc), ~to_r & ~inner, inner & (rows != qc)
    B = np.zeros((nt, na + 1))  # [R | 1], to which entries into solved states add
    B[rows[to_r], qc[to_r]] = values[to_r]
    B[:, na] = 1.0
    # I - Q_CC with the bits of np.eye - Q_CC: the diagonal, and each entry
    # off it at its column-major and its row-major offset in its batch's stack
    diag = 1.0 + np.bincount(rows[loop], 0.0 - values[loop], minlength=nt)
    u, v, neg = rows[inner], qc[inner], 0.0 - values[inner]
    f_off, c_off = off[v] * k[u] + off[u] % k[u], off[u] * k[u] + off[v] % k[u]
    o_rows, o_cols, o_vals = rows[out], qc[out], values[out]
    cuts = np.append(np.flatnonzero(new), nt)
    bounds = np.stack((cuts, np.searchsorted(u, cuts), np.searchsorted(o_rows, cuts)), 1).tolist()
    X, AX = np.empty((nt, na + 1)), np.empty((nt, na + 1))
    for (s, a, i), (e, b, j) in zip(bounds, bounds[1:]):
        kb = int(k[s])
        stack = np.zeros((e - s) * kb)
        stack.reshape(-1, kb * kb)[:, ::kb + 1] = diag[s:e].reshape(-1, kb)
        stack[f_off[a:b]] = neg[a:b]
        if i < j:  # row by row in column order, as one entry after another
            np.add.at(B, o_rows[i:j], o_vals[i:j, None] * X[o_cols[i:j]])
        rhs, A = B[s:e].reshape(-1, kb, na + 1), stack.reshape(-1, kb, kb).swapaxes(1, 2)
        try:
            xp, xs = np.linalg.solve(A, rhs[..., :na]), np.linalg.solve(A, rhs[..., na:])
        except np.linalg.LinAlgError:
            raise AnalysisError(f"transient block of state {transient[order[s]]} "
                                "is singular in floating point") from None
        X[s:e, :na], X[s:e, na] = xp.reshape(-1, na), xs.reshape(-1)
        # the same stack row-major, for each component's residual products
        stack[f_off[a:b]] = 0.0
        stack[c_off[a:b]] = neg[a:b]
        A = stack.reshape(-1, kb, kb)
        AX[s:e, :na] = np.matmul(A, xp).reshape(-1, na)
        AX[s:e, na] = np.matmul(A, xs).reshape(-1)
    probs, steps = X[q[transient], :na], X[q[transient], na]
    residual_probs = float(np.max(np.abs(AX[:, :na] - B[:, :na]), initial=0.0))
    residual_steps = float(np.max(np.abs(AX[:, na] - B[:, na]), initial=0.0))
    if residual_probs > RESIDUAL_BOUND or residual_steps > RESIDUAL_BOUND:
        raise AnalysisError(
            f"solve residuals {residual_probs:.2e}/{residual_steps:.2e} "
            f"exceed {RESIDUAL_BOUND:.0e}")
    if np.max(np.abs(probs.sum(axis=1) - 1.0), initial=0.0) > RESIDUAL_BOUND:
        raise AnalysisError("absorption probabilities do not sum to one")
    return AbsorptionReport(absorbing, cls.transient, cls.recurrent_classes, probs,
                            steps, residual_probs, residual_steps)


# ---------------------------------------------------------------------------
# exact distribution propagation
#
# A distribution is held as non-negative integer numerators over one common
# denominator. Numerators are int64 while every sum the next operation can
# form fits in int64, and Python ints (an object array) otherwise; the same
# numpy code runs on both, and float64 never enters (no `bincount`).

def point_mass(n_states: int, state: int) -> List[Fraction]:
    state = integer(state, "state")
    if not 0 <= state < n_states:
        raise ValidationError(f"state {state} out of range")
    mu = [Fraction(0)] * n_states
    mu[state] = Fraction(1)
    return mu


def start_numerators(mu: Sequence, n_states: int, exact=True) -> Tuple[np.ndarray, int]:
    """`to_numerators(mu)`, checked; a bad sum is shown in decimal unless `exact`."""
    if len(mu) != n_states:
        raise ValidationError(f"distribution has {len(mu)} entries, chain has {n_states}")
    nums, denom = to_numerators(p if isinstance(p, (int, Fraction)) else Fraction(p) for p in mu)
    if (nums < 0).any():
        raise ValidationError("distribution has a negative entry")
    total = int(nums.sum())
    if total != denom:
        total = Fraction(total, denom)
        raise ValidationError(f"distribution sums to {total if exact else decimal_text(total)} ≠ 1")
    return nums, denom


def validate_distribution(mu: Sequence, n_states: int, exact=True) -> List[Fraction]:
    """`mu` as Fractions, checked as `start_numerators` checks it."""
    return to_fractions(*start_numerators(mu, n_states, exact))


def _trajectory(chain: Chain, nums: np.ndarray, denom: int) -> Iterator[Tuple[np.ndarray, int]]:
    """The distribution nums / denom at t = 0, 1, 2, ...

    One step multiplies each entry's source numerator by the entry's
    numerator, sums the products by column (entries sorted by column once,
    summed by `reduceat`), and reduces the new numerators over
    denom * chain.denom by their gcd. No partial sum exceeds the total
    mass times the largest row sum, which is checked before the multiply.
    """
    order = np.argsort(narrow(chain.cols, chain.n_states), kind="stable")
    cols = chain.cols[order]
    starts = np.flatnonzero(np.diff(cols, prepend=-1))
    targets, src, weights = cols[starts], chain.sources[order], chain.nums[order]
    filled = chain.indptr[:-1][np.diff(chain.indptr) > 0]
    row_max = int(np.add.reduceat(chain.nums, filled).max()) if len(filled) else 0
    while True:
        yield nums, denom
        nums = np.asarray(nums, dtype=int_dtype(int(nums.sum()) * row_max))
        sums = np.add.reduceat(nums[src] * weights, starts)
        pushed = np.zeros(chain.n_states, dtype=sums.dtype)
        pushed[targets] = sums
        denom *= chain.denom
        g = gcd(int(np.gcd.reduce(pushed)), denom)
        nums, denom = pushed // g, denom // g


def _block_mass(nums: np.ndarray, part: Partition) -> np.ndarray:
    """Numerators summed block by block (every block is non-empty)."""
    return np.add.reduceat(nums[part.members], part.indptr[:-1])


def _check_steps(t: int, most: int) -> int:
    """`t` as an int, a step count from 0 to `most`, the largest `islice`
    takes here."""
    t = integer(t, "step count")
    if not 0 <= t <= most:
        raise ValidationError("step count must be non-negative" if t < 0 else
                              f"step count must be at most {most}, got {t}")
    return t


def propagate(chain: Chain, mu: Sequence[Fraction], t: int) -> List[Fraction]:
    """mu after t steps of the chain, in exact rationals."""
    t = _check_steps(t, INT64_MAX)
    nums, denom = next(islice(_trajectory(chain, *start_numerators(mu, chain.n_states)), t, None))
    return to_fractions(nums, denom)


def commutation_profile(chain: Chain, part: Partition, mu0: Sequence[Fraction],
                        t_max: int, force: bool = False) -> List[Fraction]:
    """Max block-mass discrepancy between aggregate-then-step and
    step-then-aggregate, at every time 0..t_max.

    Exactly zero everywhere when the partition is lumpable; `force` skips
    the lumpability check and aggregates the row of each block's smallest
    member, so the mismatch of a non-lumpable partition can be demonstrated.
    """
    t_max = _check_steps(t_max, INT64_MAX - 1)  # t_max + 1 profile points
    nums, denom = start_numerators(mu0, chain.n_states)
    part.check_covers(chain.n_states)
    macro = block_row_sums(chain, part, part.smallest) if force else lump(chain, part)
    steps = zip(_trajectory(chain, nums, denom),
                _trajectory(macro, _block_mass(nums, part), denom))
    out = []
    for (nums, d), (nu, e) in islice(steps, t_max + 1):
        # |proj/d - nu/e| over the common denominator d*e
        proj = _block_mass(nums, part)
        dtype = int_dtype(max(int(proj.sum()), d) * max(int(nu.sum()), e))
        gap = np.abs(np.asarray(proj, dtype=dtype) * e - np.asarray(nu, dtype=dtype) * d).max()
        out.append(Fraction(int(gap), d * e))
    return out


# ---------------------------------------------------------------------------
# distribution files and report formatting

def write_distribution(mu: Sequence[Fraction], fh: TextIO) -> None:
    for x, p in enumerate(mu):
        if p != 0:
            fh.write(f"{x} {p.numerator}/{p.denominator}\n")


def read_distribution(text: str, n_states: int) -> List[Fraction]:
    mu = [Fraction(0)] * n_states
    seen, exact = set(), True
    for lineno, line in content_lines(text):
        toks = line.split()
        if len(toks) != 2:
            raise DocumentParseError("expected: index probability", lineno)
        try:
            x = int(toks[0])
            p = Fraction(toks[1])
        except (ValueError, ZeroDivisionError):
            raise DocumentParseError(f"bad distribution line {line!r}", lineno)
        if not 0 <= x < n_states:
            raise DocumentParseError(f"state {x} out of range", lineno)
        if x in seen:
            raise DocumentParseError(f"state {x} listed twice", lineno)
        seen.add(x)
        mu[x], exact = p, exact and not is_decimal(toks[1])
    return validate_distribution(mu, n_states, exact)


def absorption_text(report: AbsorptionReport) -> str:
    """Human-readable absorption table; values are floats from the solver."""
    lines = ["absorbing states: " + " ".join(map(str, report.absorbing)),
             f"transient states: {len(report.transient)}",
             f"solve residuals: probs {report.residual_probs:.2e}, "
             f"steps {report.residual_steps:.2e}",
             "state | " + " | ".join(f"absorb@{a}" for a in report.absorbing)
             + " | expected steps"]
    for i, x in enumerate(report.transient):
        probs = " | ".join(f"{report.probs[i, j]:.12g}"
                           for j in range(len(report.absorbing)))
        lines.append(f"{x} | {probs} | {report.expected_steps[i]:.12g}")
    return "\n".join(lines)


def absorption_kv(report: AbsorptionReport) -> str:
    lines = ["absorbing=" + ",".join(str(a) for a in report.absorbing),
             "transient=" + ",".join(str(x) for x in report.transient),
             f"residual_probs={report.residual_probs:.6e}",
             f"residual_steps={report.residual_steps:.6e}",
             "values=float"]
    for i, x in enumerate(report.transient):
        for j, a in enumerate(report.absorbing):
            lines.append(f"absorb[{x}][{a}]={report.probs[i, j]:.15g}")
        lines.append(f"steps[{x}]={report.expected_steps[i]:.15g}")
    return "\n".join(lines)
