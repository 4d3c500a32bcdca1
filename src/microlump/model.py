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
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import DocumentParseError, ValidationError

ONE = Fraction(1)


def _exact_values(values: Mapping, what: Callable[[object], str]) -> Mapping:
    """`values` with integer values as Fractions; floats and anything else
    are rejected, since every probability downstream is an exact rational.
    `what(key)` names a rejected value."""
    if all(type(p) is Fraction for p in values.values()):
        return values
    for key, p in values.items():
        if not isinstance(p, Rational):
            raise ValidationError(f"{what(key)} must be an integer or a Fraction, got {p!r}")
    return {key: Fraction(p) for key, p in values.items()}


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
    """Directed weighted interaction graph on agents 0..n_agents-1."""

    n_agents: int
    edges: Mapping[Tuple[int, int], Fraction]

    def __post_init__(self):
        if self.n_agents < 1:
            raise ValidationError("need at least one agent")
        object.__setattr__(self, "edges", _exact_values(
            self.edges, lambda e: f"edge ({e[0] + 1},{e[1] + 1}) weight"))
        for (i, j), w in self.edges.items():
            if i == j:
                raise ValidationError(f"self-edge on agent {i + 1}")
            if not (0 <= i < self.n_agents and 0 <= j < self.n_agents):
                raise ValidationError(f"edge ({i + 1},{j + 1}) outside agents 1..{self.n_agents}")
            if w <= 0:
                raise ValidationError(f"edge ({i + 1},{j + 1}) has non-positive weight {w}")

    @classmethod
    def complete(cls, n_agents: int, weight: Fraction = ONE) -> "Topology":
        edges = {
            (i, j): weight
            for i in range(n_agents)
            for j in range(n_agents)
            if i != j
        }
        return cls(n_agents, edges)


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

    def result(self, args: Sequence[int], option: int) -> int:
        return self.table[tuple(args) + (option,)]

    def option_label(self, option: int) -> str:
        return self.options[option][0]


def voter_rule(delta: int) -> UpdateRule:
    """Imitation: the focal agent adopts the second argument's code."""
    table = {
        (a, b, 0): b
        for a in range(delta)
        for b in range(delta)
    }
    return UpdateRule(arity=2, options=(("copy", ONE),), table=table, delta=delta)


@dataclass(frozen=True)
class ChoiceDistribution:
    """Joint distribution over agent tuples; first entry is the focal agent."""

    entries: Mapping[Tuple[int, ...], Fraction]

    def __post_init__(self):
        if not self.entries:
            raise ValidationError("choice distribution is empty")
        object.__setattr__(self, "entries", _exact_values(
            self.entries, lambda tup: f"choice {_show_tuple(tup)} probability"))
        total = sum(self.entries.values())
        for tup, p in self.entries.items():
            if p <= 0:
                raise ValidationError(
                    f"choice {_show_tuple(tup)} has non-positive probability {p}"
                )
        if total != ONE:
            raise ValidationError(f"choice distribution sums to {total} ≠ 1")

    @classmethod
    def uniform_from_topology(cls, topology: Topology, arity: int) -> "ChoiceDistribution":
        """Uniform focal agent, then (for arity 2) a neighbor drawn with
        probability proportional to the out-edge weight.

        Rules with arity above 2 need an explicit choice section; the
        focal-then-neighbor factorization does not generalize on its own.
        """
        n = topology.n_agents
        if arity == 1:
            return cls({(i,): Fraction(1, n) for i in range(n)})
        if arity != 2:
            raise ValidationError(
                "from-topology uniform supports arity 1 or 2; "
                f"rule has arity {arity}"
            )
        out_edges: Dict[int, List[Tuple[int, Fraction]]] = {}
        for (i, j), w in topology.edges.items():
            out_edges.setdefault(i, []).append((j, w))
        entries: Dict[Tuple[int, ...], Fraction] = {}
        for i in range(n):
            nbrs = sorted(out_edges.get(i, ()))
            if not nbrs:
                raise ValidationError(f"agent {i + 1} has no out-neighbors")
            wsum = sum(w for _, w in nbrs)
            for j, w in nbrs:
                entries[(i, j)] = Fraction(1, n) * (w / wsum)
        return cls(entries)


@dataclass(frozen=True)
class ModelSpec:
    """A complete, validated model: alphabet, topology, rule and choice."""

    name: str
    alphabet: Alphabet
    topology: Topology
    rule: UpdateRule
    choice: ChoiceDistribution

    def __post_init__(self):
        if self.rule.delta != self.alphabet.delta:
            raise ValidationError("rule table and alphabet disagree on the code count")
        n = self.topology.n_agents
        for tup in self.choice.entries:
            if len(tup) != self.rule.arity:
                raise ValidationError(
                    f"choice {_show_tuple(tup)} has {len(tup)} agents, rule arity is {self.rule.arity}"
                )
            if not all(0 <= a < n for a in tup):
                raise ValidationError(f"choice {_show_tuple(tup)} names an unknown agent")
            focal = tup[0]
            for other in tup[1:]:
                if (focal, other) not in self.topology.edges:
                    raise ValidationError(
                        f"choice {_show_tuple(tup)}: agent {other + 1} is not an "
                        f"out-neighbor of agent {focal + 1}"
                    )

    @property
    def n_agents(self) -> int:
        return self.topology.n_agents

    @property
    def delta(self) -> int:
        return self.alphabet.delta

    def joint_choices(self) -> List[Tuple[Tuple[int, ...], int, Fraction]]:
        """All (agent tuple, option index, joint probability) triples with
        positive probability, in deterministic (tuple, option) order."""
        out = []
        for tup in sorted(self.choice.entries):
            ptup = self.choice.entries[tup]
            for opt, (_, popt) in enumerate(self.rule.options):
                out.append((tup, opt, ptup * popt))
        return out


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


def _strip(line: str) -> str:
    cut = line.find("#")
    if cut >= 0:
        line = line[:cut]
    return line.strip()


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
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
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


def _parse_model_section(lines) -> Tuple[str, Alphabet]:
    name = "model"
    alphabet = None
    for lineno, line in lines:
        if "=" not in line:
            raise DocumentParseError("expected key = value", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
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
    toks = first.split()
    if toks[0] == "complete":
        if len(toks) != 2 or not toks[1].isdigit():
            raise DocumentParseError("expected: complete N", lineno)
        if len(lines) > 1:
            raise DocumentParseError("no further lines allowed after 'complete N'", lines[1][0])
        return Topology.complete(int(toks[1]))
    if toks[0] != "agents":
        raise DocumentParseError("topology must start with 'complete N' or 'agents N'", lineno)
    if len(toks) != 2 or not toks[1].isdigit():
        raise DocumentParseError("expected: agents N", lineno)
    n = int(toks[1])
    undirected = False
    edges: Dict[Tuple[int, int], Fraction] = {}
    body = lines[1:]
    if body and body[0][1] == "undirected":
        undirected = True
        body = body[1:]
    for lineno, line in body:
        toks = line.split()
        if len(toks) != 3:
            raise DocumentParseError("expected: i j weight", lineno)
        try:
            i, j = int(toks[0]) - 1, int(toks[1]) - 1
        except ValueError:
            raise DocumentParseError("agent numbers must be integers", lineno)
        w = parse_fraction(toks[2], lineno)
        pairs = [(i, j), (j, i)] if undirected else [(i, j)]
        for pair in pairs:
            if pair in edges:
                raise DocumentParseError(
                    f"duplicate edge {pair[0] + 1} {pair[1] + 1}", lineno)
            edges[pair] = w
    return Topology(n, edges)


def _parse_rule_section(lines, alphabet: Alphabet) -> UpdateRule:
    if not lines:
        raise DocumentParseError("empty [rule] section")
    lineno, first = lines[0]
    if first == "builtin voter":
        if len(lines) > 1:
            raise DocumentParseError("no further lines allowed after 'builtin voter'", lines[1][0])
        return voter_rule(alphabet.delta)
    toks = first.split()
    if toks[0] != "arity" or len(toks) != 2 or not toks[1].isdigit():
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
            opt = labels.index(toks[-1])
            out = alphabet.code_of(right)
        except (ValidationError, ValueError) as exc:
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
    if lines[0][1] == "from-topology uniform":
        if len(lines) > 1:
            raise DocumentParseError(
                "no further lines allowed after 'from-topology uniform'", lines[1][0])
        return ChoiceDistribution.uniform_from_topology(topology, rule.arity)
    entries: Dict[Tuple[int, ...], Fraction] = {}
    for lineno, line in lines:
        toks = line.split()
        if len(toks) != rule.arity + 1:
            raise DocumentParseError(
                f"expected {rule.arity} agent numbers and a probability", lineno)
        try:
            tup = tuple(int(t) - 1 for t in toks[:-1])
        except ValueError:
            raise DocumentParseError("agent numbers must be integers", lineno)
        if tup in entries:
            raise DocumentParseError(f"duplicate choice {_show_tuple(tup)}", lineno)
        entries[tup] = parse_fraction(toks[-1], lineno)
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
    return "(" + ",".join(str(a + 1) for a in tup) + ")"


def serialize_model(spec: ModelSpec) -> str:
    """Canonical document for a model; parse_model inverts it exactly."""
    out = ["[model]", f"name = {spec.name}",
           "attributes = " + ", ".join(spec.alphabet.symbols), ""]
    out.append("[topology]")
    out.append(f"agents {spec.topology.n_agents}")
    for (i, j) in sorted(spec.topology.edges):
        out.append(f"{i + 1} {j + 1} {_frac(spec.topology.edges[(i, j)])}")
    out.append("")
    out.append("[rule]")
    out.append(f"arity {spec.rule.arity}")
    for label, p in spec.rule.options:
        out.append(f"lambda {label} {_frac(p)}")
    for key in sorted(spec.rule.table):
        args, opt = key[:-1], key[-1]
        left = " ".join(spec.alphabet.symbols[c] for c in args)
        out.append(f"{left} {spec.rule.option_label(opt)} -> "
                   f"{spec.alphabet.symbols[spec.rule.table[key]]}")
    out.append("")
    out.append("[choice]")
    for tup in sorted(spec.choice.entries):
        agents = " ".join(str(a + 1) for a in tup)
        out.append(f"{agents} {_frac(spec.choice.entries[tup])}")
    out.append("")
    return "\n".join(out)


def model_fingerprint(spec: ModelSpec) -> str:
    """Stable short hash of the canonical document; used in run metadata."""
    digest = hashlib.sha256(serialize_model(spec).encode("utf-8")).hexdigest()
    return digest[:16]
