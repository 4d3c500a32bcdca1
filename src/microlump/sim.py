"""Monte Carlo execution of a model and empirical validation of the exact
transition matrix.

Each step samples one (agent tuple, option) draw and applies the update
table, exactly the process the matrix encodes. A block of uniforms finds
its draws through a guide table, the same indices a binary search gives;
a step takes a state index's change from the draw's move table, by the
focal agent's code, then its co-agents'. Sampling runs on numpy's Philox
generator from one master seed; matrix estimation draws state x from the
stream of `SeedSequence(seed).spawn(n)[x]`, on one generator re-keyed per
state with keys derived in one array pass. So runs are reproducible and
stream order never matters. Draw probabilities are converted to floats
once, for sampling speed only; the exact path is the matrix itself.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import islice, product
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, TextIO, Tuple

import numpy as np

from .chain import build_micro_chain, draw_targets, to_floats
from .errors import ValidationError
from .lumping import Partition
from .model import INT64_MAX, ModelSpec, int_dtype, model_fingerprint
from .space import ConfigSpace, integer

# uniforms drawn per call to the generator while simulating
_DRAW_BLOCK = 1 << 12
# trajectory lines formatted per write
_LINE_CHUNK = 1 << 14
# most code combinations per group of agents the writer labels in one lookup
_GROUP_STRINGS = 4096
# states per block of array passes in `estimate_matrix`
_ESTIMATE_BLOCK = 1 << 8
# numpy's SeedSequence (O'Neill's seed_seq hash): pool words, the entropy
# and output hash constants, and the mix multipliers
_POOL, _MASK32 = 4, 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43b0d7e5, 0x931e8875, 0x8b51f9dd, 0x58f38ded
_MIX_L, _MIX_R = 0xca01f9dd, 0x4973f715


def _seed_sequence(seed: int) -> np.random.SeedSequence:
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    return np.random.SeedSequence(seed)


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix on uint32 words: xor in the running constant,
    step the constant, multiply by it, fold the high half into the low."""
    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> np.uint32(16)
    return hashmix


def _mix(x, y):
    out = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return out ^ out >> np.uint32(16)


def _philox_keys(seed: int, n: int) -> np.ndarray:
    """(n, 2) uint64: row i is the Philox key of `SeedSequence(seed).spawn(n)[i]`,
    its `generate_state(2, np.uint64)`.

    SeedSequence's mixing, word for word: the seed's 32-bit words padded to
    the pool, then the spawn index (one word, as n < 2**32). The hash
    constants run the same for every child, so the words before the index
    are uint32 scalars and the index a uint32 array over all children."""
    words = [np.uint32(seed >> s & _MASK32) for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy = words + [np.uint32(0)] * (_POOL - len(words)) + [np.arange(n, dtype=np.uint32)]
    hashmix = _hasher(_INIT_A, _MULT_A)
    with np.errstate(over="ignore"):  # uint32 arithmetic wraps, as in numpy's C
        pool = [hashmix(w) for w in entropy[:_POOL]]
        for src in range(_POOL):
            for dst in range(_POOL):
                if src != dst:
                    pool[dst] = _mix(pool[dst], hashmix(pool[src]))
        for w in entropy[_POOL:]:
            for dst in range(_POOL):
                pool[dst] = _mix(pool[dst], hashmix(w))
        output = _hasher(_INIT_B, _MULT_B)
        state = np.stack([output(w) for w in pool], axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _draw_weights(spec: ModelSpec) -> np.ndarray:
    """Draw probabilities as floats, in draw table order."""
    return to_floats(spec.draws.nums, spec.draws.denom)


@dataclass(frozen=True)
class SimRun:
    seed: int
    steps: int
    start: int
    states: Tuple[int, ...]               # visited indices, start included
    fingerprint: str

    @cached_property
    def counts(self) -> Counter[Tuple[int, int]]:
        """(from, to) -> times taken, tallied on first read."""
        states = self.states
        return Counter(zip(states, islice(states, 1, None)))


def _move_tables(spec: ModelSpec, space: ConfigSpace) -> List[tuple]:
    """Per draw: its focal agent, its move table and a getter of its co-agents'
    codes (its own at arity 1). A table, one per option and focal agent, is
    indexed by the focal agent's code, then the getter's (by a dict past arity
    2), and holds the new code and the state index change, or None if it stays."""
    outcome, arity, radix = spec.rule.outcome, spec.rule.arity, space.radix.tolist()
    agents, opts, tables = spec.draws.agents.tolist(), spec.draws.options.tolist(), {}
    codes = outcome.reshape(spec.delta, -1, outcome.shape[-1]).repeat(spec.delta ** (arity == 1), 1)
    keys = list(np.ndindex(outcome.shape[1:-1]))
    for opt, f in set(zip(opts, (tup[0] for tup in agents))):
        rows = [[(new, (new - c) * radix[f]) if new != c else None for new in row]
                for c, row in enumerate(codes[..., opt].tolist())]
        tables[opt, f] = [dict(zip(keys, row)) for row in rows] if arity > 2 else rows
    return [(a[0], tables[opt, a[0]], itemgetter(*(a[1:] or a))) for a, opt in zip(agents, opts)]


def _draw_lookup(cum: np.ndarray):
    """`np.searchsorted(cum, u, side="right")` for uniforms u in [0, 1), by
    Chen and Asau's guide table. For m the power of two at or above
    4 * len(cum), guide[b] is the draw at b / m, never past that of a u in
    [b/m, (b+1)/m), as u * m is exact. An index is kept where
    `cum[k-1] <= u < cum[k]` (`u < cum[0]` at k = 0), else searched for."""
    m = 1 << (4 * len(cum) - 1).bit_length()
    guide = np.searchsorted(cum, np.arange(m) / m, side="right")
    below = np.concatenate(([-np.inf], cum[:-1]))

    def lookup(u: np.ndarray) -> np.ndarray:
        k = guide[(u * m).astype(np.intp)]
        miss = (below[k] > u) | (u >= cum[k])
        k[miss] = np.searchsorted(cum, u[miss], side="right")
        return k
    return lookup


def simulate(spec: ModelSpec, start: Sequence[int], steps: int, seed: int,
             cap: Optional[int] = None) -> SimRun:
    """Run one trajectory; identical (model, seed, steps) reproduce it.

    A state index walks through the draws' move tables, two lookups per
    step. Uniforms come in blocks, the same doubles as drawn one at a time,
    and a block finds its draws by `_draw_lookup`."""
    steps, seed = integer(steps, "step count"), integer(seed, "seed")
    if steps < 0:
        raise ValidationError(f"step count must be non-negative, got {steps}")
    rng = np.random.Generator(np.random.Philox(_seed_sequence(seed)))
    space = spec.space(cap)
    config = list(space.check_config(start))
    x = space.index_of(config)
    cum = np.cumsum(_draw_weights(spec))
    cum[-1] = 1.0  # guard against float round-off at the top end
    lookup = _draw_lookup(cum)
    draws = _move_tables(spec, space)
    visited = [x]
    for lo in range(0, steps, _DRAW_BLOCK):
        u = rng.random(min(_DRAW_BLOCK, steps - lo))
        for k in lookup(u).tolist():
            focal, table, rest = draws[k]
            move = table[config[focal]][rest(config)]
            if move:
                config[focal], change = move
                x += change
            visited.append(x)
    return SimRun(seed=seed, steps=steps, start=visited[0], states=tuple(visited),
                  fingerprint=model_fingerprint(spec))


def project_trajectory(run: SimRun, part: Partition) -> List[str]:
    """Visited block labels, in trajectory order."""
    return np.array(part.labels, dtype=object)[part.block_of[np.asarray(run.states)]].tolist()


def _group_strings(space: ConfigSpace) -> Tuple[int, List[str]]:
    """The agents per group, g, with at most `_GROUP_STRINGS` code
    combinations, and every group value's labels joined by commas in agent
    order: a full group's value v at v, the last group's (it may hold fewer
    agents) at delta**g + v."""
    delta, n, labels = space.delta, space.n_agents, space.labels
    g = 1
    while g < n and delta ** (g + 1) <= _GROUP_STRINGS:
        g += 1
    strings = []
    for width in (g, n - g * ((n - 1) // g)):
        strings += [",".join(t[::-1]) for t in product(labels, repeat=width)]
    return g, strings


def write_trajectory(run: SimRun, space: ConfigSpace, fh: TextIO,
                     part: Optional[Partition] = None) -> None:
    """One line per visited state, written a chunk of states at a time:
    the configuration as `space.format_index` shows it, or the state's
    block label under `part`."""
    fh.write(f"# seed={run.seed} steps={run.steps} start={run.start} "
             f"model={run.fingerprint}\n")
    if part is not None:
        labels = project_trajectory(run, part)
        for lo in range(0, len(labels), _LINE_CHUNK):
            chunk = labels[lo:lo + _LINE_CHUNK]
            fh.write("%s\n" * len(chunk) % tuple(chunk))
        return
    g, strings = _group_strings(space)
    base, n_groups = space.delta ** g, -(-space.n_agents // g)
    strings = np.array(strings, dtype=object)
    line = "(" + ",".join(["%s"] * n_groups) + ")\n"
    dtype = int_dtype(space.size)
    states = run.states
    for lo in range(0, len(states), _LINE_CHUNK):
        rest = np.array(states[lo:lo + _LINE_CHUNK], dtype=dtype)
        digits = np.empty((len(rest), n_groups), dtype=np.int64)
        for j in range(n_groups):
            digits[:, j] = rest % base
            rest //= base
        digits[:, -1] += base
        fh.write(line * len(digits) % tuple(strings[digits].ravel().tolist()))


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


def _row_deviations(x: int, targets: List[int], drawn: List[int], cols: List[int],
                    probs: List[float], samples: int) -> List[Deviation]:
    """Row x's entries beyond their 3-sigma bound, in the order in which the
    set of its sampled and exact targets iterates; the tally is built in
    draw order, as that order depends on it."""
    tally: Dict[int, int] = {}
    for tgt, cnt in zip(targets, drawn):
        if cnt:
            tally[tgt] = tally.get(tgt, 0) + cnt
    exact_row = dict(zip(cols, probs))
    out = []
    for y in tally.keys() | exact_row.keys():
        p = exact_row.get(y, 0.0)
        emp = tally.get(y, 0) / samples
        bound = 3.0 * (p * (1.0 - p) / samples) ** 0.5
        if abs(emp - p) > bound:
            out.append(Deviation(x, y, emp, p, bound))
    return out


def estimate_matrix(spec: ModelSpec, steps_per_state: int, seed: int,
                    cap: Optional[int] = None):
    """Empirical one-step frequencies from every state versus the exact
    matrix.

    From each state the target of every draw is fixed, so sampling
    steps_per_state independent draws is done as one multinomial over the
    draw distribution, on state x's own stream, child x of the seed, by one
    Philox re-keyed to it from counter 0. A draw of positive weight lands
    on an entry its row stores (the chain drops only zero sums): a block of
    states at a time adds its tallies onto those entries and compares them
    as arrays. Returns the report and the exact chain it was checked against.
    """
    steps_per_state, seed = integer(steps_per_state, "sample count"), integer(seed, "seed")
    if steps_per_state < 1:
        raise ValidationError("need at least one sample per state")
    if steps_per_state > INT64_MAX:
        raise ValidationError(f"samples per state must be at most {INT64_MAX}, "
                              f"got {steps_per_state}")
    _seed_sequence(seed)  # a bad seed fails before the chain is built
    chain = build_micro_chain(spec, cap=cap)
    weights = _draw_weights(spec)
    pvals = weights / weights.sum()
    # targets[x, k]: where draw k sends state x
    targets = np.stack(list(draw_targets(spec, chain.space)), axis=1)
    n, indptr = chain.n_states, chain.indptr
    probs = to_floats(chain.nums, chain.denom)
    keys = _philox_keys(seed, n)
    philox = np.random.Philox(0)
    rng, fresh = np.random.Generator(philox), philox.state  # counter 0, empty buffer

    def sample(x: int) -> np.ndarray:
        fresh["state"]["key"] = keys[x]
        philox.state = fresh
        return rng.multinomial(steps_per_state, pvals)

    counts: List[Dict[int, int]] = []
    max_dev = 0.0
    violations: List[Deviation] = []
    for lo in range(0, n, _ESTIMATE_BLOCK):
        hi = min(lo + _ESTIMATE_BLOCK, n)
        drawn = np.stack([sample(x) for x in range(lo, hi)])
        a, b = indptr[lo], indptr[hi]
        bounds, cols, p = indptr[lo:hi + 1] - a, chain.cols[a:b], probs[a:b]
        rows = np.repeat(np.arange(hi - lo), np.diff(bounds))
        # entry[r, k]: the block position of draw k's target from state lo + r
        entry = np.searchsorted(rows * n + cols, np.arange(hi - lo)[:, None] * n + targets[lo:hi])
        cnt = np.zeros(b - a, dtype=np.int64)
        np.add.at(cnt, entry, drawn)
        dev = np.abs(to_floats(cnt, steps_per_state) - p)
        max_dev = max(max_dev, float(dev.max()))
        # the report's bound takes pow(v, 0.5), which may differ from sqrt in
        # the last place: a near miss is settled by the row pass below
        near = dev > 3.0 * np.sqrt(p * (1.0 - p) / steps_per_state) * (1.0 - 1e-9)
        hit = np.flatnonzero(cnt)
        ends = np.searchsorted(hit, bounds).tolist()
        tgt, tot = cols[hit].tolist(), cnt[hit].tolist()
        counts += [dict(zip(tgt[s:e], tot[s:e])) for s, e in zip(ends, ends[1:])]
        for r in np.unique(rows[near]).tolist():
            span = slice(bounds[r], bounds[r + 1])
            violations += _row_deviations(lo + r, targets[lo + r].tolist(), drawn[r].tolist(),
                                          cols[span].tolist(), p[span].tolist(), steps_per_state)
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
