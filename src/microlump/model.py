"""Model definitions and the line-oriented model document format.

A model bundles four parts: the attribute alphabet, the interaction
topology, the update rule, and the distribution over (agent tuple, option)
choices that drives each step. All probabilities are exact rationals.

Document format (sections may appear in any order, `#` starts a comment,
whitespace within a line is free):

    [model]
    name = voter3
    attributes = black, white

    [topology]
    complete 3
    # or:  agents 3
    #      undirected
    #      1 2 1/1        (agents are numbered 1..N in documents)

    [rule]
    builtin voter
    # or:  arity 2
    #      lambda copy 1/1
    #      black white copy -> white

    [choice]
    from-topology uniform
    # or lines:  1 2 1/6

Internally agents are 0-based array positions and attributes are 0-based
codes assigned by declaration order; 1-based agent numbers and attribute
labels exist only in documents and display output.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from numbers import Rational
from typing import (Callable, Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional,
                    Sequence, Tuple)

import numpy as np

from .errors import DocumentParseError, ValidationError
from .space import ConfigSpace, integer, is_integral

ONE = Fraction(1)
INT64_MAX = int(np.iinfo(np.int64).max)


def int_dtype(bound: int):
    """The dtype of exact integers whose magnitude, and that of every sum
    the caller forms from them, stays within `bound`: int64 while `bound`
    fits, else `object` (Python ints), through the same numpy code."""
    return np.int64 if bound <= INT64_MAX else object


def narrow(keys: np.ndarray, top: int) -> np.ndarray:
    """Keys in 0..top-1 narrowed: numpy sorts 8- and 16-bit keys by radix."""
    return keys.astype(np.min_scalar_type(top - 1), copy=False)


def int_array(values) -> np.ndarray:
    """Integers as int64, or as an object array of Python ints when one
    does not fit."""
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.asarray(values, dtype=object)


def content_lines(text: str) -> Iterator[Tuple[int, str]]:
    """The numbered lines of a document that hold more than a comment: `#`
    starts a comment, outer blanks are stripped, numbering starts at 1."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def to_numerators(values: Iterable[Fraction]) -> Tuple[np.ndarray, int]:
    """Ints and Fractions over the lcm of their denominators: the numerators,
    int64 while the sum of their absolute values fits in it and else Python
    ints, and that lcm."""
    ratios = [p.as_integer_ratio() for p in values]
    denom = lcm(*{d for _, d in ratios})
    nums = [n * (denom // d) for n, d in ratios]
    return np.array(nums, dtype=int_dtype(sum(map(abs, nums)))), denom


def to_fractions(nums: np.ndarray, denom: int) -> List[Fraction]:
    """The ratios nums[i] / denom, one Fraction object per distinct value."""
    values, inverse = np.unique(nums, return_inverse=True)
    fracs = [Fraction(v, denom) for v in values.tolist()]
    return list(map(fracs.__getitem__, inverse.tolist()))


def _index_array(keys: Iterable, width: Optional[int] = None) -> Optional[np.ndarray]:
    """Tuples of `width` (or any one number of) integers as int64 rows; None
    when their lengths differ or one holds anything else."""
    try:
        keys = np.array(list(keys))
    except ValueError:
        return None
    good = keys.ndim == 2 and width in (None, keys.shape[1]) and keys.dtype.kind in "bi"
    return keys.astype(np.int64) if good else None


def _malformed(key, width: Optional[int] = None) -> bool:
    """Is `key` anything but a tuple of (`width`) integral numbers?"""
    return not (isinstance(key, tuple) and width in (None, len(key))
                and all(map(is_integral, key)))


def _first_error(items, bad: Optional[np.ndarray], error: Callable) -> None:
    """Raise what `error(item)` says of the first item it finds wrong, among
    those an array pass marks `bad` (a superset of the failing ones), or all."""
    if bad is None or bad.any():
        items = list(items)
        for k in range(len(items)) if bad is None else np.flatnonzero(bad):
            message = error(items[k])
            if message is not None:
                raise ValidationError(message)


def _exact_values(values: Mapping, what: Callable[[object], str]) -> Dict:
    """A copy of `values` with integer values as Fractions; floats and
    anything else are rejected, since every probability downstream is an
    exact rational. `what(key)` names a rejected value."""
    if all(type(p) is Fraction for p in values.values()):
        return dict(values)
    for key, p in values.items():
        if not isinstance(p, Rational):
            raise ValidationError(f"{what(key)} must be an integer or a Fraction, got {p!r}")
    return {key: Fraction(p) for key, p in values.items()}


class FractionMap(Mapping):
    """Read-only mapping from the int64 rows `rows`, as tuples, to the
    ratios of `numerators` = (nums, denom), in row order; the tuples and the
    dict behind it are made on first use unless `built` gives them."""

    def __init__(self, rows: Optional[np.ndarray], numerators: Tuple[np.ndarray, int],
                 built: Optional[Dict] = None):
        self.rows, self.numerators = rows, numerators
        if built is not None:
            self.__dict__.update(dict=built, tuples=list(built))

    @cached_property
    def tuples(self) -> List[tuple]:
        return list(zip(*self.rows.T.tolist()))

    @cached_property
    def dict(self) -> Dict:
        return dict(zip(self.tuples, to_fractions(*self.numerators)))

    def __len__(self) -> int:
        return len(self.numerators[0])

    def __iter__(self):
        return iter(self.tuples)

    def __getitem__(self, key):
        return self.dict[key]

    def __repr__(self) -> str:
        return repr(self.dict)


@dataclass(frozen=True)
class Alphabet:
    """Ordered attribute labels; position in the list is the code."""

    symbols: Tuple[str, ...]

    def __post_init__(self):
        if len(self.symbols) < 2:
            raise ValidationError("alphabet needs at least two symbols")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValidationError("alphabet symbols must be distinct")

    @property
    def delta(self) -> int:
        return len(self.symbols)

    def code_of(self, label: str) -> int:
        try:
            return self.symbols.index(label)
        except ValueError:
            raise ValidationError(f"unknown attribute label {label!r}")


@dataclass(frozen=True)
class Topology:
    """Directed weighted interaction graph on agents 0..n_agents-1; a dict
    of edges becomes the arrays once, `complete` builds them directly."""

    n_agents: int
    edges: Mapping[Tuple[int, int], Fraction]
    # (source, target) of every edge as int64 rows, in `edges` order
    pairs: np.ndarray = field(init=False, repr=False, compare=False)
    # the weights over their lcm, in `edges` order, and that lcm
    weights: Tuple[np.ndarray, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "n_agents", integer(self.n_agents, "agent count"))
        if self.n_agents < 1:
            raise ValidationError("need at least one agent")
        if not isinstance(self.edges, FractionMap):
            edges = _exact_values(self.edges, lambda e: f"edge {_show_tuple(e)} weight")
            object.__setattr__(self, "edges", FractionMap(
                _index_array(edges, 2), to_numerators(edges.values()), edges))
        n, pairs, weights = self.n_agents, self.edges.rows, self.edges.numerators
        _first_error(self.edges, None if pairs is None else (
            (pairs[:, 0] == pairs[:, 1]) | ((pairs < 0) | (pairs >= n)).any(axis=1)
            | (weights[0] <= 0)), self._edge_error)
        object.__setattr__(self, "pairs", np.array(list(self.edges), dtype=np.int64)
                           .reshape(-1, 2) if pairs is None else pairs)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def complete(cls, n_agents: int) -> "Topology":
        """Every ordered pair of distinct agents, source-major, weight 1."""
        n_agents = integer(n_agents, "agent count")
        src = np.repeat(np.arange(n_agents), n_agents - 1)
        dst = np.tile(np.arange(n_agents - 1), n_agents)
        return cls(n_agents, FractionMap(np.stack([src, dst + (dst >= src)], axis=1),
                                         (np.ones(len(src), dtype=np.int64), 1)))

    def _edge_error(self, pair: Tuple[int, int]) -> Optional[str]:
        """What is wrong with one edge, checks in the order they apply."""
        if _malformed(pair, 2):
            return f"malformed edge key {pair!r}"
        (i, j), w, n = pair, self.edges[pair], self.n_agents
        if i == j:
            return f"self-edge on agent {i + 1}"
        if not (0 <= i < n and 0 <= j < n):
            return f"edge ({i + 1},{j + 1}) outside agents 1..{n}"
        if w <= 0:
            return f"edge ({i + 1},{j + 1}) has non-positive weight {w}"
        return None


@dataclass(frozen=True)
class UpdateRule:
    """Deterministic update table over r attribute arguments and an option.

    `table` maps (arg codes..., option index) to the focal agent's new code
    and must be total over all delta**arity * len(options) inputs. Option
    probabilities are the stochastic part of the rule itself, independent of
    which agents were drawn.
    """

    arity: int
    options: Tuple[Tuple[str, Fraction], ...]
    table: Mapping[Tuple[int, ...], int]
    delta: int

    def __post_init__(self):
        if self.arity < 1:
            raise ValidationError("rule arity must be at least 1")
        if not self.options:
            raise ValidationError("rule needs at least one option")
        labels = [lab for lab, _ in self.options]
        if len(set(labels)) != len(labels):
            raise ValidationError("option labels must be distinct")
        object.__setattr__(self, "options", tuple(_exact_values(
            dict(self.options), lambda lab: f"option {lab!r} probability").items()))
        total = sum(p for _, p in self.options)
        for lab, p in self.options:
            if p <= 0:
                raise ValidationError(f"option {lab!r} has non-positive probability {p}")
        if total != ONE:
            raise ValidationError(f"option probabilities sum to {total} ≠ 1")
        expected = self.delta ** self.arity * len(self.options)
        if len(self.table) != expected:
            raise ValidationError(
                f"rule table has {len(self.table)} entries, needs all {expected}"
            )
        for key, out in self.table.items():
            if len(key) != self.arity + 1:
                raise ValidationError(f"malformed table key {key}")
            if not all(0 <= c < self.delta for c in key[:-1]):
                raise ValidationError(f"table key {key} has an out-of-range code")
            if not 0 <= key[-1] < len(self.options):
                raise ValidationError(f"table key {key} has an out-of-range option")
            if not 0 <= out < self.delta:
                raise ValidationError(f"table output {out} out of range")

    def option_label(self, option: int) -> str:
        return self.options[option][0]

    @cached_property
    def outcome(self) -> np.ndarray:
        """The table as an int64 array of shape (delta,)*arity + (options,):
        the focal agent's new code at [argument codes..., option]."""
        out = np.empty((self.delta,) * self.arity + (len(self.options),), dtype=np.int64)
        out[tuple(np.array(list(self.table), dtype=np.int64).T)] = list(self.table.values())
        return out


def voter_rule(delta: int) -> UpdateRule:
    """Imitation: the focal agent adopts the second argument's code."""
    table = {(a, b, 0): b for a in range(delta) for b in range(delta)}
    return UpdateRule(arity=2, options=(("copy", ONE),), table=table, delta=delta)


@dataclass(frozen=True)
class ChoiceDistribution:
    """Joint distribution over agent tuples; first entry is the focal agent.
    A dict becomes the arrays once, `uniform_from_topology` builds them."""

    entries: Mapping[Tuple[int, ...], Fraction]
    # the agent tuples as int64 rows, in `entries` order; None for tuples of
    # mixed lengths or non-integers, which the model checks one by one
    agents: Optional[np.ndarray] = field(init=False, repr=False, compare=False)
    # the probabilities over their lcm, in `entries` order, and that lcm
    numerators: Tuple[np.ndarray, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.entries:
            raise ValidationError("choice distribution is empty")
        if not isinstance(self.entries, FractionMap):
            entries = _exact_values(self.entries, lambda t: f"choice {_show_tuple(t)} probability")
            object.__setattr__(self, "entries", FractionMap(
                _index_array(entries), to_numerators(entries.values()), entries))
        object.__setattr__(self, "agents", self.entries.rows)
        object.__setattr__(self, "numerators", self.entries.numerators)
        nums, denom = self.numerators
        _first_error(self.entries, nums <= 0, lambda tup: (
            f"choice {_show_tuple(tup)} has non-positive probability {self.entries[tup]}"))
        total = sum(nums.tolist())
        if total != denom:
            raise ValidationError(f"choice distribution sums to {Fraction(total, denom)} ≠ 1")

    @classmethod
    def uniform_from_topology(cls, topology: Topology, arity: int) -> "ChoiceDistribution":
        """Uniform focal agent, then (for arity 2) a neighbor drawn with
        probability proportional to the out-edge weight.

        Rules with arity above 2 need an explicit choice section; the
        focal-then-neighbor factorization does not generalize on its own.
        """
        n = topology.n_agents
        if arity == 1:
            return cls(FractionMap(np.arange(n).reshape(-1, 1), (np.ones(n, dtype=np.int64), n)))
        if arity != 2:
            raise ValidationError(
                f"from-topology uniform supports arity 1 or 2; rule has arity {arity}")
        order = np.lexsort(topology.pairs.T[::-1])
        pairs = topology.pairs[order]
        src = pairs[:, 0]
        lonely = np.setdiff1d(np.arange(n), src)
        if len(lonely):
            raise ValidationError(f"agent {lonely[0] + 1} has no out-neighbors")
        # entry (i, j) is w_ij / (n * sum_k w_ik); with the weights over their
        # lcm, an integer over n times the lcm of the per-agent sums (their
        # total), then over the entries' lcm once divided by the common gcd
        weights = topology.weights[0][order]
        sums = np.add.reduceat(weights, np.flatnonzero(np.diff(src, prepend=-1))).tolist()
        top = lcm(*set(sums))
        dtype = int_dtype(top)
        nums = weights.astype(dtype) * np.array([top // s for s in sums], dtype=dtype)[src]
        common = gcd(n * top, *np.unique(nums).tolist())
        denom = n * top // common
        return cls(FractionMap(pairs, ((nums // common).astype(int_dtype(denom)), denom)))


class DrawTable(NamedTuple):
    """One row per (agent tuple, option) draw, with its probability nums[k] /
    denom over the lcm of the reduced probabilities' denominators; `nums`
    is int64 when `denom` fits in it, else an object array of Python ints."""

    agents: np.ndarray   # int64, draws x arity
    options: np.ndarray  # int64
    nums: np.ndarray
    denom: int


@dataclass(frozen=True)
class ModelSpec:
    """A complete, validated model: alphabet, topology, rule and choice."""

    name: str
    alphabet: Alphabet
    topology: Topology
    rule: UpdateRule
    choice: ChoiceDistribution
    # the choice's agent tuples as int64 rows, in its key order
    agents: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.rule.delta != self.alphabet.delta:
            raise ValidationError("rule table and alphabet disagree on the code count")
        n, arity, agents, bad = self.topology.n_agents, self.rule.arity, self.choice.agents, None
        if agents is not None and agents.shape[1] == arity:
            member = np.isin(agents[:, :1] * n + agents[:, 1:], self.topology.pairs @ [n, 1])
            bad = ((agents < 0) | (agents >= n)).any(axis=1) | ~member.all(axis=1)
        _first_error(self.choice.entries, bad, self._tuple_error)
        if bad is None:
            agents = np.array(list(self.choice.entries), dtype=np.int64).reshape(-1, arity)
        object.__setattr__(self, "agents", agents)

    def space(self, cap: Optional[int] = None) -> ConfigSpace:
        """The model's delta**N configurations, labeled by its attributes;
        CapExceededError above `cap` (None: `space.default_cap()`)."""
        return ConfigSpace(self.n_agents, self.delta, labels=self.alphabet.symbols, cap=cap)

    def _tuple_error(self, tup: Tuple[int, ...]) -> Optional[str]:
        """What is wrong with one agent tuple, checks in the order they apply."""
        if _malformed(tup):
            return f"malformed choice key {tup!r}"
        if len(tup) != self.rule.arity:
            return (f"choice {_show_tuple(tup)} has {len(tup)} agents, "
                    f"rule arity is {self.rule.arity}")
        if not all(0 <= a < self.n_agents for a in tup):
            return f"choice {_show_tuple(tup)} names an unknown agent"
        for other in tup[1:]:
            if (tup[0], other) not in self.topology.edges:
                return (f"choice {_show_tuple(tup)}: agent {other + 1} is not an "
                        f"out-neighbor of agent {tup[0] + 1}")
        return None

    @cached_property
    def tuple_order(self) -> np.ndarray:
        """The positions of the choice's tuples in sorted order."""
        return np.lexsort(self.agents.T[::-1])

    @cached_property
    def draws(self) -> DrawTable:
        """Agent tuples in sorted order, each with every option in turn. The
        two lcms' product is the joint lcm: the choice's numerators sum to
        their lcm, so have gcd 1, as do the options', and so the products."""
        order = self.tuple_order
        (nums, denom), (opts, opt_denom) = (self.choice.numerators,
                                            to_numerators(p for _, p in self.rule.options))
        denom *= opt_denom
        nums, opts = (a.astype(int_dtype(denom)) for a in (nums[order], opts))
        return DrawTable(np.repeat(self.agents[order], len(opts), axis=0),
                         np.tile(np.arange(len(opts)), len(order)),
                         np.multiply.outer(nums, opts).reshape(-1), denom)

    @property
    def n_agents(self) -> int:
        return self.topology.n_agents

    @property
    def delta(self) -> int:
        return self.alphabet.delta


def builtin_voter(topology: Topology, labels: Sequence[str] = ("black", "white"),
                  name: str = "voter") -> ModelSpec:
    """Imitation dynamics: pick a focal agent uniformly, pick one of its
    out-neighbors by edge weight, and let the focal agent copy it.

    Works for any alphabet size; the classic two-state case is the default.
    """
    alphabet = Alphabet(tuple(labels))
    rule = voter_rule(alphabet.delta)
    choice = ChoiceDistribution.uniform_from_topology(topology, rule.arity)
    return ModelSpec(name=name, alphabet=alphabet, topology=topology,
                     rule=rule, choice=choice)


# ---------------------------------------------------------------------------
# document parsing

_SECTIONS = ("model", "topology", "rule", "choice")


def parse_fraction(token: str, line: Optional[int] = None) -> Fraction:
    """Exact rational from 'num/den' or a plain integer literal."""
    try:
        if "/" in token:
            num, den = token.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(token))
    except (ValueError, ZeroDivisionError):
        raise DocumentParseError(f"bad rational {token!r}", line)


def _split_sections(text: str) -> Dict[str, List[Tuple[int, str]]]:
    sections: Dict[str, List[Tuple[int, str]]] = {}
    current: Optional[str] = None
    for lineno, line in content_lines(text):
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _SECTIONS:
                raise DocumentParseError(f"unknown section [{name}]", lineno)
            if name in sections:
                raise DocumentParseError(f"duplicate section [{name}]", lineno)
            sections[name] = []
            current = name
            continue
        if current is None:
            raise DocumentParseError("content before the first section header", lineno)
        sections[current].append((lineno, line))
    for name in _SECTIONS:
        if name not in sections:
            raise DocumentParseError(f"missing section [{name}]")
    return sections


def _one_line(lines, form: str) -> bool:
    """Is the first of a section's `lines` its one-line form `form`, token
    by token, `N` standing for any token? Then no line may follow it."""
    toks, words = lines[0][1].split(), form.split()
    if len(toks) != len(words) or any(w not in ("N", t) for w, t in zip(words, toks)):
        return False
    if len(lines) > 1:
        raise DocumentParseError(f"no further lines allowed after {form!r}", lines[1][0])
    return True


def _agent_lines(lines, count: int,
                 expected: str) -> Iterator[Tuple[int, Tuple[int, ...], Fraction]]:
    """The line number, `count` 0-based agents and rational of each line of
    `count` 1-based agent numbers and a rational; `expected` is the error
    for a line of another length."""
    for lineno, line in lines:
        *agents, value = line.split()
        if len(agents) != count:
            raise DocumentParseError(expected, lineno)
        try:
            tup = tuple(int(a) - 1 for a in agents)
        except ValueError:
            raise DocumentParseError("agent numbers must be integers", lineno)
        yield lineno, tup, parse_fraction(value, lineno)


def _parse_model_section(lines) -> Tuple[str, Alphabet]:
    name = "model"
    alphabet = None
    keys = set()
    for lineno, line in lines:
        if "=" not in line:
            raise DocumentParseError("expected key = value", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key in keys:
            raise DocumentParseError(f"repeated key {key!r} in [model]", lineno)
        keys.add(key)
        if key == "name":
            name = value
        elif key == "attributes":
            symbols = tuple(s.strip() for s in value.split(",") if s.strip())
            if not symbols:
                raise DocumentParseError("empty attribute list", lineno)
            alphabet = Alphabet(symbols)
        else:
            raise DocumentParseError(f"unknown key {key!r} in [model]", lineno)
    if alphabet is None:
        raise DocumentParseError("missing 'attributes' in [model]")
    return name, alphabet


def _parse_topology_section(lines) -> Topology:
    if not lines:
        raise DocumentParseError("empty [topology] section")
    lineno, first = lines[0]
    head, *count = first.split()
    if head not in ("complete", "agents"):
        raise DocumentParseError("topology must start with 'complete N' or 'agents N'", lineno)
    if len(count) != 1 or not count[0].isdecimal():
        raise DocumentParseError(f"expected: {head} N", lineno)
    if _one_line(lines, "complete N"):
        return Topology.complete(int(count[0]))
    undirected = len(lines) > 1 and lines[1][1].split() == ["undirected"]
    edges: Dict[Tuple[int, int], Fraction] = {}
    for lineno, (i, j), w in _agent_lines(lines[1 + undirected:], 2, "expected: i j weight"):
        for pair in [(i, j), (j, i)] if undirected and i != j else [(i, j)]:
            if pair in edges:
                raise DocumentParseError(
                    f"duplicate edge {pair[0] + 1} {pair[1] + 1}", lineno)
            edges[pair] = w
    return Topology(int(count[0]), edges)


def _parse_rule_section(lines, alphabet: Alphabet) -> UpdateRule:
    if not lines:
        raise DocumentParseError("empty [rule] section")
    if _one_line(lines, "builtin voter"):
        return voter_rule(alphabet.delta)
    lineno, first = lines[0]
    toks = first.split()
    if toks[0] != "arity" or len(toks) != 2 or not toks[1].isdecimal():
        raise DocumentParseError("rule must start with 'builtin voter' or 'arity r'", lineno)
    arity = int(toks[1])
    options: List[Tuple[str, Fraction]] = []
    table: Dict[Tuple[int, ...], int] = {}
    table_lines: List[Tuple[int, str]] = []
    for lineno, line in lines[1:]:
        toks = line.split()
        if toks[0] == "lambda":
            if table_lines:
                raise DocumentParseError("lambda lines must precede table lines", lineno)
            if len(toks) != 3:
                raise DocumentParseError("expected: lambda <label> <prob>", lineno)
            options.append((toks[1], parse_fraction(toks[2], lineno)))
        else:
            table_lines.append((lineno, line))
    if not options:
        raise DocumentParseError("rule has no lambda lines")
    labels = [lab for lab, _ in options]
    for lineno, line in table_lines:
        if "->" not in line:
            raise DocumentParseError("table line needs '->'", lineno)
        left, right = (part.strip() for part in line.split("->", 1))
        toks = left.split()
        if len(toks) != arity + 1:
            raise DocumentParseError(
                f"table line needs {arity} attribute labels and one lambda label", lineno)
        try:
            args = tuple(alphabet.code_of(t) for t in toks[:-1])
            if toks[-1] not in labels:
                raise ValidationError(f"lambda label {toks[-1]!r} is not declared")
            opt = labels.index(toks[-1])
            out = alphabet.code_of(right)
        except ValidationError as exc:
            raise DocumentParseError(str(exc), lineno)
        key = args + (opt,)
        if key in table:
            raise DocumentParseError("duplicate table entry", lineno)
        table[key] = out
    return UpdateRule(arity=arity, options=tuple(options), table=table,
                      delta=alphabet.delta)


def _parse_choice_section(lines, topology: Topology, rule: UpdateRule) -> ChoiceDistribution:
    if not lines:
        raise DocumentParseError("empty [choice] section")
    if _one_line(lines, "from-topology uniform"):
        return ChoiceDistribution.uniform_from_topology(topology, rule.arity)
    entries: Dict[Tuple[int, ...], Fraction] = {}
    for lineno, tup, p in _agent_lines(
            lines, rule.arity, f"expected {rule.arity} agent numbers and a probability"):
        if tup in entries:
            raise DocumentParseError(f"duplicate choice {_show_tuple(tup)}", lineno)
        entries[tup] = p
    return ChoiceDistribution(entries)


def parse_model(text: str) -> ModelSpec:
    """Parse and validate a model document; see the module docstring."""
    sections = _split_sections(text)
    name, alphabet = _parse_model_section(sections["model"])
    topology = _parse_topology_section(sections["topology"])
    rule = _parse_rule_section(sections["rule"], alphabet)
    choice = _parse_choice_section(sections["choice"], topology, rule)
    return ModelSpec(name=name, alphabet=alphabet, topology=topology,
                     rule=rule, choice=choice)


def load_model(path) -> ModelSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read())


def _frac(p: Fraction) -> str:
    return f"{p.numerator}/{p.denominator}"


def _show_tuple(tup: Tuple[int, ...]) -> str:
    """1-based agents, or a malformed key as it was given."""
    return repr(tup) if _malformed(tup) else "(" + ",".join(str(a + 1) for a in tup) + ")"


def serialize_model(spec: ModelSpec) -> str:
    """Canonical document for a model; parse_model inverts it exactly."""
    def lines(keys: np.ndarray, values: Tuple[np.ndarray, int]) -> List[str]:
        """`agents... ratio` lines in sorted order, agents 1-based."""
        order = np.lexsort(keys.T[::-1])
        return [" ".join(str(a + 1) for a in tup) + f" {_frac(p)}"
                for tup, p in zip(keys[order].tolist(), to_fractions(values[0][order], values[1]))]

    symbols, rule = spec.alphabet.symbols, spec.rule
    out = ["[model]", f"name = {spec.name}", "attributes = " + ", ".join(symbols), "",
           "[topology]", f"agents {spec.n_agents}",
           *lines(spec.topology.pairs, spec.topology.weights), "",
           "[rule]", f"arity {rule.arity}",
           *(f"lambda {label} {_frac(p)}" for label, p in rule.options)]
    for key in sorted(rule.table):
        left = " ".join(symbols[c] for c in key[:-1])
        out.append(f"{left} {rule.option_label(key[-1])} -> {symbols[rule.table[key]]}")
    out += ["", "[choice]", *lines(spec.agents, spec.choice.numerators), ""]
    return "\n".join(out)


def model_fingerprint(spec: ModelSpec) -> str:
    """Stable short hash of the canonical document; used in run metadata."""
    digest = hashlib.sha256(serialize_model(spec).encode("utf-8")).hexdigest()
    return digest[:16]
