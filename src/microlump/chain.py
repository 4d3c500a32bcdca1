"""Exact transition matrices for sequential single-change dynamics.

A model step draws an agent tuple and an option jointly, then applies the
deterministic update table to the focal agent. Summing the draw
probabilities over all draws that send configuration x to configuration y
gives the transition probability; the stay probability is one minus the
row's off-diagonal mass. Rows are exactly stochastic rationals and every
off-diagonal entry connects configurations differing in a single agent,
so each row holds at most (delta-1)*N + 1 nonzeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Sequence, TextIO, Tuple

from .errors import DocumentParseError, ValidationError
from .model import ModelSpec
from .space import Config, ConfigSpace

Row = Tuple[Tuple[int, Fraction], ...]

ONE = Fraction(1)


@dataclass(frozen=True)
class RandomMap:
    """One deterministic action of the dynamics: the map the system applies
    when a particular (agent tuple, option) draw comes up."""

    agents: Tuple[int, ...]
    option: int
    option_label: str
    probability: Fraction
    rule_table: object
    delta: int

    def apply(self, config: Config) -> Config:
        args = tuple(config[a] for a in self.agents) + (self.option,)
        new = self.rule_table[args]
        focal = self.agents[0]
        if new == config[focal]:
            return tuple(config)
        return config[:focal] + (new,) + config[focal + 1:]

    def materialize(self, space: ConfigSpace) -> Tuple[int, ...]:
        """Full action as an index table; only for cap-sized spaces."""
        return tuple(space.index_of(self.apply(space.config_of(i)))
                     for i in range(space.size))


def enumerate_maps(spec: ModelSpec) -> List[RandomMap]:
    """All positive-probability (agent tuple, option) draws as maps.

    Probabilities sum to one; each map changes at most the focal agent.
    """
    return [
        RandomMap(agents=tup, option=opt, option_label=spec.rule.option_label(opt),
                  probability=p, rule_table=spec.rule.table, delta=spec.delta)
        for tup, opt, p in spec.joint_choices()
    ]


@dataclass(frozen=True)
class Chain:
    """Exact sparse transition matrix, one row per state, columns ascending.

    Compiled chains carry their configuration space; chains read from a
    file or reduced over a partition have none. `exact` is False when an
    imported entry was written as a decimal rather than a ratio.
    """

    rows: Tuple[Row, ...]
    space: Optional[ConfigSpace] = None
    exact: bool = True

    @property
    def n_states(self) -> int:
        return len(self.rows)

    def entry(self, x: int, y: int) -> Fraction:
        for col, p in self.rows[x]:
            if col == y:
                return p
            if col > y:
                break
        return Fraction(0)

    def nnz(self) -> int:
        return sum(len(row) for row in self.rows)


def build_micro_chain(spec: ModelSpec, cap: Optional[int] = None) -> Chain:
    """Assemble the exact transition matrix row by row.

    Off-diagonal mass is accumulated as integer weights over the common
    denominator of all draw probabilities, which keeps the inner loop off
    rational arithmetic; rows come out exactly stochastic.
    """
    space = ConfigSpace(spec.n_agents, spec.delta,
                        labels=spec.alphabet.symbols, cap=cap)
    delta = spec.delta
    choices = spec.joint_choices()
    denom = lcm(*(p.denominator for _, _, p in choices)) if choices else 1
    n_opts = len(spec.rule.options)

    # flat rule table: ((arg codes in mixed radix) * n_opts + option) -> new code
    arity = spec.rule.arity
    flat = [0] * (delta ** arity * n_opts)
    for key, out in spec.rule.table.items():
        pack = 0
        for c in reversed(key[:-1]):
            pack = pack * delta + c
        flat[pack * n_opts + key[-1]] = out

    weighted = [(tup, opt, int(p * denom)) for tup, opt, p in choices]
    pows = [delta ** i for i in range(spec.n_agents)]

    rows: List[Row] = []
    for idx in range(space.size):
        cfg = space.config_of(idx)
        acc: Dict[int, int] = {}
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
    return Chain(rows=tuple(rows), space=space)


def transition_prob(chain: Chain, x: Sequence[int], y: Sequence[int]) -> Fraction:
    """Probability of a one-step transition between two configurations."""
    return chain.entry(chain.space.index_of(x), chain.space.index_of(y))


def grammar_arcs(chain: Chain) -> List[Tuple[int, int]]:
    """All ordered state pairs the dynamics can realize in one step.

    Because every draw has positive probability this is exactly the nonzero
    pattern of the matrix, loops included.
    """
    return [(x, y) for x, row in enumerate(chain.rows) for y, _ in row]


# ---------------------------------------------------------------------------
# sparse matrix file format

def validate_stochastic(rows: Sequence[Row], exact: bool = True,
                        tol: float = 1e-9) -> None:
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


def write_sparse(rows: Sequence[Row], fh: TextIO) -> None:
    """`states=<n> nnz=<m>` header, then `row col num/den` lines, rows and
    columns ascending."""
    nnz = sum(len(row) for row in rows)
    fh.write(f"states={len(rows)} nnz={nnz}\n")
    for x, row in enumerate(rows):
        for y, p in row:
            fh.write(f"{x} {y} {p.numerator}/{p.denominator}\n")


def read_sparse(text: str) -> Chain:
    """Parse the sparse format; entries may be ratios or decimals."""
    lines = [ln for ln in (l.split("#")[0].strip() for l in text.splitlines()) if ln]
    if not lines:
        raise DocumentParseError("empty sparse file")
    header = lines[0].split()
    fields = dict(part.split("=", 1) for part in header if "=" in part)
    if "states" not in fields or "nnz" not in fields:
        raise DocumentParseError("header must be 'states=<n> nnz=<m>'", 1)
    try:
        n_states, nnz = int(fields["states"]), int(fields["nnz"])
    except ValueError:
        raise DocumentParseError("header counts must be integers", 1)
    if len(lines) - 1 != nnz:
        raise DocumentParseError(f"expected {nnz} entry lines, found {len(lines) - 1}")
    entries: List[List[Tuple[int, Fraction]]] = [[] for _ in range(n_states)]
    exact = True
    prev = (-1, -1)
    for lineno, line in enumerate(lines[1:], start=2):
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
        if "/" not in tok:
            exact = False
        try:
            p = Fraction(tok)
        except (ValueError, ZeroDivisionError):
            raise DocumentParseError(f"bad value {tok!r}", lineno)
        entries[x].append((y, p))
    rows = tuple(tuple(row) for row in entries)
    validate_stochastic(rows, exact=exact)
    return Chain(rows=rows, exact=exact)


def load_chain(path) -> Chain:
    with open(path, "r", encoding="utf-8") as fh:
        return read_sparse(fh.read())
