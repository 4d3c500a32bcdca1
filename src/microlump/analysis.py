"""Chain analysis: state classification, absorption solves, exact
distribution propagation, and the micro/macro commutation check.

Verdict-style computations (propagation, commutation) stay in exact
rationals; absorption probabilities and expected step counts come from
dense float solves of the standard transient-block linear systems, with
the residuals reported and bounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, TextIO, Tuple

import numpy as np

from .errors import AnalysisError, DocumentParseError, ValidationError
from .lumping import Partition, block_row_sums, lump

ONE = Fraction(1)
RESIDUAL_BOUND = 1e-9


@dataclass(frozen=True)
class Classification:
    absorbing: Tuple[int, ...]
    transient: Tuple[int, ...]
    recurrent_classes: Tuple[Tuple[int, ...], ...]


def _successors(chain) -> List[List[int]]:
    return [[y for y, _ in row] for row in chain.rows]


def _strongly_connected_components(succ: List[List[int]]) -> List[List[int]]:
    """Tarjan, iterative; components come out in a deterministic order."""
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: List[int] = []
    components: List[List[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, ptr = work[-1]
            if ptr == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            while ptr < len(succ[v]):
                w = succ[v][ptr]
                ptr += 1
                if index[w] == -1:
                    work[-1] = (v, ptr)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comp.sort()
                components.append(comp)
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    return components


def classify_states(chain) -> Classification:
    """Absorbing states, transient states, and the recurrent classes.

    A state is absorbing when its row is a unit self-loop; a strongly
    connected component is recurrent when no edge leaves it.
    """
    succ = _successors(chain)
    components = _strongly_connected_components(succ)
    comp_of = [0] * chain.n_states
    for cid, comp in enumerate(components):
        for x in comp:
            comp_of[x] = cid
    recurrent: List[Tuple[int, ...]] = []
    transient: List[int] = []
    for cid, comp in enumerate(components):
        leaves = any(comp_of[y] != cid for x in comp for y in succ[x])
        if leaves:
            transient.extend(comp)
        else:
            recurrent.append(tuple(comp))
    absorbing = tuple(x for x in range(chain.n_states)
                      if chain.rows[x] == ((x, ONE),))
    recurrent.sort()
    return Classification(absorbing=absorbing,
                          transient=tuple(sorted(transient)),
                          recurrent_classes=tuple(recurrent))


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


def absorption_analysis(chain) -> AbsorptionReport:
    """Solve the transient-block systems for absorption probabilities and
    expected absorption times.

    Requires every state to reach an absorbing state; a recurrent class
    that is not a unit self-loop is reported with one of its states.
    """
    cls = classify_states(chain)
    for comp in cls.recurrent_classes:
        if len(comp) > 1 or comp[0] not in cls.absorbing:
            raise AnalysisError(
                f"state {comp[0]} cannot reach any absorbing state")
    if not cls.absorbing:
        raise AnalysisError("chain has no absorbing state")
    transient = cls.transient
    absorbing = cls.absorbing
    t_pos = {x: i for i, x in enumerate(transient)}
    a_pos = {x: i for i, x in enumerate(absorbing)}
    nt, na = len(transient), len(absorbing)
    Q = np.zeros((nt, nt))
    R = np.zeros((nt, na))
    for x in transient:
        for y, p in chain.rows[x]:
            if y in t_pos:
                Q[t_pos[x], t_pos[y]] = float(p)
            else:
                R[t_pos[x], a_pos[y]] = float(p)
    if nt == 0:
        return AbsorptionReport(absorbing, transient, cls.recurrent_classes,
                                np.zeros((0, na)), np.zeros(0), 0.0, 0.0)
    A = np.eye(nt) - Q
    probs = np.linalg.solve(A, R)
    steps = np.linalg.solve(A, np.ones(nt))
    residual_probs = float(np.max(np.abs(A @ probs - R))) if na else 0.0
    residual_steps = float(np.max(np.abs(A @ steps - 1.0)))
    if residual_probs > RESIDUAL_BOUND or residual_steps > RESIDUAL_BOUND:
        raise AnalysisError(
            f"solve residuals {residual_probs:.2e}/{residual_steps:.2e} "
            f"exceed {RESIDUAL_BOUND:.0e}")
    row_sums = probs.sum(axis=1)
    if np.max(np.abs(row_sums - 1.0)) > RESIDUAL_BOUND:
        raise AnalysisError("absorption probabilities do not sum to one")
    return AbsorptionReport(absorbing, transient, cls.recurrent_classes, probs,
                            steps, residual_probs, residual_steps)


# ---------------------------------------------------------------------------
# exact distribution propagation

def point_mass(n_states: int, state: int) -> List[Fraction]:
    if not 0 <= state < n_states:
        raise ValidationError(f"state {state} out of range")
    mu = [Fraction(0)] * n_states
    mu[state] = ONE
    return mu


def validate_distribution(mu: Sequence[Fraction], n_states: int) -> List[Fraction]:
    if len(mu) != n_states:
        raise ValidationError(f"distribution has {len(mu)} entries, chain has {n_states}")
    mu = [Fraction(p) for p in mu]
    if any(p < 0 for p in mu):
        raise ValidationError("distribution has a negative entry")
    total = sum(mu)
    if total != ONE:
        raise ValidationError(f"distribution sums to {total} ≠ 1")
    return mu


def propagate(chain, mu: Sequence[Fraction], t: int) -> List[Fraction]:
    """mu after t steps of the chain, in exact rationals."""
    if t < 0:
        raise ValidationError("step count must be non-negative")
    mu = validate_distribution(mu, chain.n_states)
    for _ in range(t):
        mu = _step(chain.rows, mu)
    return mu


def _step(rows: Sequence, mu: Sequence[Fraction]) -> List[Fraction]:
    nxt = [Fraction(0)] * len(mu)
    for x, px in enumerate(mu):
        if px == 0:
            continue
        for y, p in rows[x]:
            nxt[y] += px * p
    return nxt


def aggregate(mu: Sequence[Fraction], part: Partition) -> List[Fraction]:
    """Block-wise mass of a micro distribution."""
    out = [Fraction(0)] * part.n_blocks
    for x, px in enumerate(mu):
        out[part.block_of[x]] += px
    return out


def _macro_rows(chain, part: Partition, force: bool):
    if force:
        rows = []
        for block in part.blocks:
            agg = block_row_sums(chain, part, block[0])
            rows.append(tuple(sorted(agg.items())))
        return tuple(rows)
    return lump(chain, part).rows


def commutation_profile(chain, part: Partition, mu0: Sequence[Fraction],
                        t_max: int, force: bool = False) -> List[Fraction]:
    """Max block-mass discrepancy between aggregate-then-step and
    step-then-aggregate, at every time 0..t_max.

    Exactly zero everywhere when the partition is lumpable; `force` skips
    the lumpability check and aggregates each block's first row so the
    mismatch of a non-lumpable partition can be demonstrated.
    """
    mu = validate_distribution(mu0, chain.n_states)
    macro_rows = _macro_rows(chain, part, force)
    nu = aggregate(mu, part)
    out = []
    for step in range(t_max + 1):
        projected = aggregate(mu, part)
        out.append(max(abs(a - b) for a, b in zip(projected, nu)))
        if step == t_max:
            break
        mu = _step(chain.rows, mu)
        nu = _step(macro_rows, nu)
    return out


def commutation_check(chain, part: Partition, mu0: Sequence[Fraction],
                      t: int, force: bool = False) -> Fraction:
    """Discrepancy at time t only; zero exactly for lumpable partitions."""
    return commutation_profile(chain, part, mu0, t, force=force)[-1]


# ---------------------------------------------------------------------------
# distribution files and report formatting

def write_distribution(mu: Sequence[Fraction], fh: TextIO) -> None:
    for x, p in enumerate(mu):
        if p != 0:
            fh.write(f"{x} {p.numerator}/{p.denominator}\n")


def read_distribution(text: str, n_states: int) -> List[Fraction]:
    mu = [Fraction(0)] * n_states
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#")[0].strip()
        if not line:
            continue
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
        mu[x] = p
    return validate_distribution(mu, n_states)


def absorption_text(report: AbsorptionReport, names=None) -> str:
    """Human-readable absorption table; values are floats from the solver."""
    def show(x):
        return names(x) if names else str(x)

    lines = ["absorbing states: " + " ".join(show(a) for a in report.absorbing),
             f"transient states: {len(report.transient)}",
             f"solve residuals: probs {report.residual_probs:.2e}, "
             f"steps {report.residual_steps:.2e}",
             "state | " + " | ".join(f"absorb@{show(a)}" for a in report.absorbing)
             + " | expected steps"]
    for i, x in enumerate(report.transient):
        probs = " | ".join(f"{report.probs[i, j]:.12g}"
                           for j in range(len(report.absorbing)))
        lines.append(f"{show(x)} | {probs} | {report.expected_steps[i]:.12g}")
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
