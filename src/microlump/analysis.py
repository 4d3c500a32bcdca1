"""Chain analysis: state classification, absorption solves, exact
distribution propagation, and the micro/macro commutation check.

Everything reads the chain's integer CSR arrays. Verdict-style
computations (propagation, commutation) stay exact: a distribution is held
as integer numerators over one common denominator and pushed one numpy
pass per step. Absorption probabilities and expected step counts come
from float solves of the transient-block systems, one strongly connected
component at a time, with the whole system's residuals reported and bounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd
from typing import Iterator, List, Sequence, TextIO, Tuple

import numpy as np

from .chain import Chain, decimal_text, to_floats, to_fractions
from .errors import AnalysisError, DocumentParseError, ValidationError
from .lumping import Partition, block_row_sums, group_blocks, lump
from .model import INT64_MAX, content_lines, int_dtype, to_numerators

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
    order = np.argsort(chain.cols, kind="stable")
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


def _classify(chain: Chain) -> Tuple[Classification, np.ndarray]:
    """`classify_states`, and each state's Kosaraju component id."""
    comp, count = _components(chain)
    src, dst = comp[chain.sources], comp[chain.cols]
    leaves = np.zeros(count, dtype=bool)
    leaves[src[src != dst]] = True
    closed = np.flatnonzero(~leaves[comp])
    # closed states grouped by component, each group ascending; a chain of
    # no states has one empty group, which is no class
    members, cuts = group_blocks(comp[closed])
    members, cuts = closed[members].tolist(), cuts.tolist()
    recurrent = sorted(tuple(members[a:b]) for a, b in zip(cuts, cuts[1:]) if a < b)
    single = np.flatnonzero(np.diff(chain.indptr) == 1)
    first = chain.indptr[single]
    absorbing = single[(chain.cols[first] == single) & (chain.nums[first] == chain.denom)]
    return Classification(absorbing=tuple(absorbing.tolist()),
                          transient=tuple(np.flatnonzero(leaves[comp]).tolist()),
                          recurrent_classes=tuple(recurrent)), comp


def classify_states(chain: Chain) -> Classification:
    """Absorbing states, transient states, and the recurrent classes.

    A state is absorbing when its row is one entry, on the diagonal, equal
    to `denom`; a strongly connected component is recurrent when no edge
    leaves it.
    """
    return _classify(chain)[0]


@dataclass(frozen=True)
class AbsorptionReport:
    """Float absorption probabilities and expected steps for the transient
    block. Values are floats by construction; everything exact lives in the
    chain itself."""

    absorbing: Tuple[int, ...]
    transient: Tuple[int, ...]
    recurrent_classes: Tuple[Tuple[int, ...], ...]
    probs: np.ndarray          # (len(transient), len(absorbing))
    expected_steps: np.ndarray  # (len(transient),)
    residual_probs: float
    residual_steps: float

    def fixation_prob(self, state: int, target: int) -> float:
        if target not in self.absorbing:
            raise AnalysisError(f"state {target} is not absorbing")
        if state in self.absorbing:
            return 1.0 if state == target else 0.0
        i = self.transient.index(state)
        return float(self.probs[i, self.absorbing.index(target)])

    def steps_from(self, state: int) -> float:
        if state in self.absorbing:
            return 0.0
        return float(self.expected_steps[self.transient.index(state)])


def absorption_analysis(chain: Chain) -> AbsorptionReport:
    """Solve the transient-block systems for absorption probabilities and
    expected absorption times, one strongly connected component at a time.

    Requires every state to reach an absorbing state; a recurrent class
    that is not a unit self-loop is reported with one of its states.
    """
    cls, comp = _classify(chain)
    for states in cls.recurrent_classes:
        if len(states) > 1 or states[0] not in cls.absorbing:
            raise AnalysisError(
                f"state {states[0]} cannot reach any absorbing state")
    if not cls.absorbing:
        raise AnalysisError("chain has no absorbing state")
    transient, absorbing = cls.transient, cls.absorbing
    nt, na = len(transient), len(absorbing)
    # every state is transient or absorbing here: pos is its index in Q or R
    pos = np.zeros(chain.n_states, dtype=np.int64)
    pos[list(transient)] = np.arange(nt)
    pos[list(absorbing)] = np.arange(na)
    is_transient = np.zeros(chain.n_states, dtype=bool)
    is_transient[list(transient)] = True
    at = np.flatnonzero(is_transient[chain.sources])
    src, dst = pos[chain.sources[at]], chain.cols[at]
    values = to_floats(chain.nums[at], chain.denom)
    to_q = is_transient[dst]
    R = np.zeros((nt, na))
    R[src[~to_q], pos[dst[~to_q]]] = values[~to_q]
    # Kosaraju's ids ascend along every entry: blocks are the components in
    # descending id, so successors first, members ascending (no transient
    # states make one empty block). One stable sort puts each block's Q
    # entries inside it first, then those into solved states, in row order
    members, cuts = group_blocks(-comp[list(transient)])
    rank = np.argsort(members)  # each transient state's place in block order
    block = np.searchsorted(cuts, rank, side="right") - 1
    local = rank - cuts[block]
    qs, qd, qv = src[to_q], pos[dst[to_q]], values[to_q]
    key = 2 * block[qs] + (block[qd] != block[qs])
    order = np.argsort(key, kind="stable")
    qs, qd, qv = qs[order], qd[order], qv[order]
    rows, cols, neg = local[qs], local[qd], 0.0 - qv
    bounds = np.searchsorted(key[order], np.arange(2 * len(cuts) - 1)).tolist()
    # one zeroed nt x nt array: each block's I - Q_CC (the same bits as np.eye
    # - Q_CC), column-major in its head for LAPACK's copy, cleared after the
    # solves; then all of I - Q, row-major, for the residual products
    probs, steps, I_Q = np.empty((nt, na)), np.empty(nt), np.zeros((nt, nt))
    for a, z, i, j, e in zip(cuts[:-1].tolist(), cuts[1:].tolist(), bounds[::2], bounds[1::2],
                             bounds[2::2]):
        mem, k, inner, out = members[a:z], z - a, slice(i, j), slice(j, e)
        A = I_Q.reshape(-1)[:k * k].reshape((k, k), order="F")
        A[rows[inner], cols[inner]] = neg[inner]
        A.flat[::k + 1] += 1.0
        # right-hand sides R_C + Q_CS x_S and 1 + Q_CS s_S, added entry by entry
        b_probs, b_steps = R[mem], np.ones(k)
        np.add.at(b_probs, rows[out], qv[out, None] * probs[qd[out]])
        np.add.at(b_steps, rows[out], qv[out] * steps[qd[out]])
        probs[mem] = np.linalg.solve(A, b_probs)
        steps[mem] = np.linalg.solve(A, b_steps)
        A[rows[inner], cols[inner]] = A.flat[::k + 1] = 0.0
    I_Q[qs, qd] = neg
    I_Q.flat[::nt + 1] += 1.0
    residual_probs = float(np.max(np.abs(np.matmul(I_Q, probs) - R), initial=0.0))
    residual_steps = float(np.max(np.abs(np.matmul(I_Q, steps) - 1.0), initial=0.0))
    if residual_probs > RESIDUAL_BOUND or residual_steps > RESIDUAL_BOUND:
        raise AnalysisError(
            f"solve residuals {residual_probs:.2e}/{residual_steps:.2e} "
            f"exceed {RESIDUAL_BOUND:.0e}")
    if np.max(np.abs(probs.sum(axis=1) - 1.0), initial=0.0) > RESIDUAL_BOUND:
        raise AnalysisError("absorption probabilities do not sum to one")
    return AbsorptionReport(absorbing, transient, cls.recurrent_classes, probs,
                            steps, residual_probs, residual_steps)


# ---------------------------------------------------------------------------
# exact distribution propagation
#
# A distribution is held as non-negative integer numerators over one common
# denominator. Numerators are int64 while every sum the next operation can
# form fits in int64, and Python ints (an object array) otherwise; the same
# numpy code runs on both, and float64 never enters (no `bincount`).

def point_mass(n_states: int, state: int) -> List[Fraction]:
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
    order = np.argsort(chain.cols, kind="stable")
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


def _check_steps(t: int, most: int) -> None:
    """A step count from 0 to `most`, the largest `islice` takes here."""
    if not 0 <= t <= most:
        raise ValidationError("step count must be non-negative" if t < 0 else
                              f"step count must be at most {most}, got {t}")


def propagate(chain: Chain, mu: Sequence[Fraction], t: int) -> List[Fraction]:
    """mu after t steps of the chain, in exact rationals."""
    _check_steps(t, INT64_MAX)
    nums, denom = next(islice(_trajectory(chain, *start_numerators(mu, chain.n_states)), t, None))
    return to_fractions(nums, denom)


def commutation_profile(chain: Chain, part: Partition, mu0: Sequence[Fraction],
                        t_max: int, force: bool = False) -> List[Fraction]:
    """Max block-mass discrepancy between aggregate-then-step and
    step-then-aggregate, at every time 0..t_max.

    Exactly zero everywhere when the partition is lumpable; `force` skips
    the lumpability check and aggregates each block's first row so the
    mismatch of a non-lumpable partition can be demonstrated.
    """
    _check_steps(t_max, INT64_MAX - 1)  # t_max + 1 profile points
    nums, denom = start_numerators(mu0, chain.n_states)
    part.check_covers(chain.n_states)
    macro = (block_row_sums(chain, part, part.members[part.indptr[:-1]])
             if force else lump(chain, part))
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
        mu[x], exact = p, exact and "/" in toks[1]
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
