"""Monte Carlo execution of a model and empirical validation of the exact
transition matrix.

Each step samples one (agent tuple, option) draw and applies the update
table, exactly the process the matrix encodes. Sampling runs on numpy's
counter-based Philox generator: one master seed, with per-state child
streams spawned for matrix estimation, so runs are reproducible and
stream order never matters. Draw probabilities are converted to floats
once, for sampling speed only; the exact path is the matrix itself.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, TextIO, Tuple

import numpy as np

from .chain import build_micro_chain, draw_targets, rule_table, to_floats
from .errors import ValidationError
from .lumping import Partition
from .model import ModelSpec, model_fingerprint
from .space import ConfigSpace

# uniforms drawn per call to the generator while simulating
_DRAW_BLOCK = 1 << 12


def _seed_sequence(seed: int) -> np.random.SeedSequence:
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    return np.random.SeedSequence(seed)


def _draw_weights(spec: ModelSpec) -> np.ndarray:
    """Draw probabilities as floats, in draw table order."""
    return to_floats(spec.draws.nums, spec.draws.denom)


@dataclass(frozen=True)
class SimRun:
    seed: int
    steps: int
    start: int
    states: Tuple[int, ...]               # visited indices, start included
    counts: Dict[Tuple[int, int], int]    # (from, to) -> times taken
    fingerprint: str


def simulate(spec: ModelSpec, start: Sequence[int], steps: int, seed: int,
             cap: Optional[int] = None) -> SimRun:
    """Run one trajectory; identical (model, seed, steps) reproduce it.

    A state index walks through the compiled rule table. Uniforms come in
    blocks, the same doubles as drawn one at a time."""
    if steps < 0:
        raise ValidationError(f"step count must be non-negative, got {steps}")
    rng = np.random.Generator(np.random.Philox(_seed_sequence(seed)))
    space = ConfigSpace(spec.n_agents, spec.delta,
                        labels=spec.alphabet.symbols, cap=cap)
    config = list(space.check_config(start))
    x = space.index_of(config)
    cum = np.cumsum(_draw_weights(spec))
    cum[-1] = 1.0  # guard against float round-off at the top end
    flat, delta, n_opts = rule_table(spec).tolist(), spec.delta, len(spec.rule.options)
    radix = space.radix.tolist()
    # per draw: its agents last first (the order codes are packed in), option, focal agent
    table = spec.draws
    draws = list(zip(table.agents[:, ::-1].tolist(), table.options.tolist(),
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
                x += (new - config[focal]) * radix[focal]
                config[focal] = new
            visited.append(x)
    counts = dict(Counter(zip(visited, visited[1:])))
    return SimRun(seed=seed, steps=steps, start=visited[0],
                  states=tuple(visited), counts=counts,
                  fingerprint=model_fingerprint(spec))


def project_trajectory(run: SimRun, part: Partition) -> List[str]:
    """Visited block labels, in trajectory order."""
    return [part.label_of(x) for x in run.states]


def write_trajectory(run: SimRun, space: ConfigSpace, fh: TextIO,
                     part: Optional[Partition] = None) -> None:
    fh.write(f"# seed={run.seed} steps={run.steps} start={run.start} "
             f"model={run.fingerprint}\n")
    if part is None:
        for x in run.states:
            fh.write(space.format_index(x) + "\n")
    else:
        for label in project_trajectory(run, part):
            fh.write(label + "\n")


# ---------------------------------------------------------------------------
# matrix estimation

@dataclass(frozen=True)
class Deviation:
    x: int
    y: int
    empirical: float
    exact: float
    bound: float


@dataclass(frozen=True)
class EstimateReport:
    samples_per_state: int
    seed: int
    counts: Tuple[Dict[int, int], ...]   # per source state: target -> count
    max_abs_dev: float
    violations: Tuple[Deviation, ...]    # entries beyond their 3-sigma bound

    def empirical(self, x: int, y: int) -> float:
        return self.counts[x].get(y, 0) / self.samples_per_state


def estimate_matrix(spec: ModelSpec, steps_per_state: int, seed: int,
                    cap: Optional[int] = None):
    """Empirical one-step frequencies from every state versus the exact
    matrix.

    From each state the target of every draw is fixed, so sampling
    steps_per_state independent draws is done as one multinomial over the
    draw distribution, on that state's own child stream. Returns the
    report and the exact chain it was checked against.
    """
    if steps_per_state < 1:
        raise ValidationError("need at least one sample per state")
    seeds = _seed_sequence(seed)
    chain = build_micro_chain(spec, cap=cap)
    weights = _draw_weights(spec)
    pvals = weights / weights.sum()
    # targets[x, k]: where draw k sends state x
    targets = np.stack(list(draw_targets(spec, chain.space)), axis=1)
    bounds = chain.indptr.tolist()
    cols, probs = chain.cols.tolist(), to_floats(chain.nums, chain.denom).tolist()
    streams = seeds.spawn(chain.n_states)
    counts: List[Dict[int, int]] = []
    max_dev = 0.0
    violations: List[Deviation] = []
    for x in range(chain.n_states):
        rng = np.random.Generator(np.random.Philox(streams[x]))
        drawn = rng.multinomial(steps_per_state, pvals)
        tally: Dict[int, int] = {}
        for tgt, cnt in zip(targets[x].tolist(), drawn.tolist()):
            if cnt:
                tally[tgt] = tally.get(tgt, 0) + cnt
        counts.append(tally)
        lo, hi = bounds[x], bounds[x + 1]
        exact_row = dict(zip(cols[lo:hi], probs[lo:hi]))
        for y in tally.keys() | exact_row.keys():
            p = exact_row.get(y, 0.0)
            emp = tally.get(y, 0) / steps_per_state
            dev = abs(emp - p)
            max_dev = max(max_dev, dev)
            bound = 3.0 * (p * (1.0 - p) / steps_per_state) ** 0.5
            if dev > bound:
                violations.append(Deviation(x, y, emp, p, bound))
    report = EstimateReport(samples_per_state=steps_per_state, seed=seed,
                            counts=tuple(counts), max_abs_dev=max_dev,
                            violations=tuple(violations))
    return report, chain


def estimate_text(report: EstimateReport) -> str:
    lines = [f"samples_per_state={report.samples_per_state} seed={report.seed}",
             f"max_abs_deviation={report.max_abs_dev:.6g}",
             f"entries_beyond_3sigma={len(report.violations)}"]
    for v in report.violations:
        lines.append(f"  ({v.x},{v.y}): empirical {v.empirical:.6g} vs exact "
                     f"{v.exact:.6g}, bound {v.bound:.6g}")
    return "\n".join(lines)
