"""Enumeration and mixed-radix indexing of the joint state space of N agents.

A configuration assigns each of the N agents one of delta attribute codes.
Configurations are plain tuples of ints; the space object maps them to and
from dense integer indices (agent 0 is the least significant digit) and
exposes the single-change adjacency structure.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Rational, Real
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import CapExceededError, ValidationError

Config = Tuple[int, ...]

DEFAULT_CAP = 1 << 24
CAP_ENV_VAR = "MICROLUMP_CAP"


def is_integral(value) -> bool:
    """Is `value` a real number equal to an integer, as 3, 3.0 and
    Fraction(6, 2) are?"""
    if isinstance(value, Rational):
        return value.denominator == 1
    return isinstance(value, Real) and float(value).is_integer()


def integer(value, what: str) -> int:
    """`value` as an int when it is integral; else a ValidationError that
    names it as `what`."""
    if not is_integral(value):
        raise ValidationError(f"{what} {value!r} is not an integer")
    return int(value)


def default_cap() -> int:
    """Enumeration cap: MICROLUMP_CAP from the environment, else 2**24."""
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValidationError(f"{CAP_ENV_VAR} must be an integer, got {raw!r}")
    if cap < 1:
        raise ValidationError(f"{CAP_ENV_VAR} must be positive, got {cap}")
    return cap


@dataclass(frozen=True)
class ConfigSpace:
    """The set of all delta**n_agents configurations, densely indexed.

    `labels` are display names for the attribute codes; they default to the
    code digits and never influence any computation.
    """

    n_agents: int
    delta: int
    labels: Optional[Tuple[str, ...]] = None
    cap: Optional[int] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "n_agents", integer(self.n_agents, "agent count"))
        object.__setattr__(self, "delta", integer(self.delta, "code count"))
        if self.n_agents < 1:
            raise ValidationError(f"need at least one agent, got {self.n_agents}")
        if self.delta < 2:
            raise ValidationError(f"need at least two attribute codes, got {self.delta}")
        cap = self.cap if self.cap is not None else default_cap()
        if self.delta ** self.n_agents > cap:
            raise CapExceededError(
                f"state space has {self.delta}**{self.n_agents} = "
                f"{self.delta ** self.n_agents} configurations, above the cap {cap}"
            )
        if self.labels is None:
            object.__setattr__(self, "labels", tuple(str(s) for s in range(self.delta)))
        if len(self.labels) != self.delta or len(set(self.labels)) != self.delta:
            raise ValidationError("labels must be distinct and one per attribute code")

    @property
    def size(self) -> int:
        return self.delta ** self.n_agents

    def check_config(self, config: Sequence[int]) -> Config:
        config = tuple(integer(code, "attribute code") for code in config)
        if len(config) != self.n_agents:
            raise ValidationError(
                f"configuration has {len(config)} entries, expected {self.n_agents}"
            )
        for code in config:
            if not 0 <= code < self.delta:
                raise ValidationError(f"attribute code {code} out of range 0..{self.delta - 1}")
        return config

    def index_of(self, config: Sequence[int]) -> int:
        """Mixed-radix index, agent 0 least significant."""
        idx = 0
        for code in reversed(self.check_config(config)):
            idx = idx * self.delta + code
        return idx

    def config_of(self, idx: int) -> Config:
        if not 0 <= idx < self.size:
            raise ValidationError(f"state index {idx} out of range 0..{self.size - 1}")
        codes = []
        for _ in range(self.n_agents):
            idx, code = divmod(idx, self.delta)
            codes.append(code)
        return tuple(codes)

    @cached_property
    def radix(self) -> np.ndarray:
        """Each agent's digit weight in a state index: int64, or Python
        ints past int64, where no array over the states can be made."""
        weights = [self.delta ** i for i in range(self.n_agents)]
        return np.array(weights, dtype=np.int64 if weights[-1] < 1 << 63 else object)

    @cached_property
    def codes_matrix(self) -> np.ndarray:
        """(size, n_agents) array of attribute codes, row i = config_of(i),
        column-major: one contiguous column per agent. Arrays over every
        state are made after it, and it refuses a space whose state indices
        would not fit in int64."""
        if self.size > np.iinfo(np.int64).max:
            raise CapExceededError(f"state space has {self.size} configurations, past the "
                                   f"int64 index limit {np.iinfo(np.int64).max}")
        out = np.empty((self.size, self.n_agents), np.min_scalar_type(self.delta - 1), order="F")
        for i in range(self.n_agents):  # agent i holds each code for delta**i states in turn
            out[:, i].reshape(-1, self.delta, self.delta ** i)[:] = np.arange(self.delta)[:, None]
        return out

    def smallest_images(self, agent_classes: Sequence[int]) -> np.ndarray:
        """Each state's smallest image under the symmetric groups on the
        classes of agents, agents sharing a class where `agent_classes`
        holds equal values. That image puts a class's codes in descending
        order on its agents in ascending order: where u_s of them hold code
        s or more, its first u_s agents gain one for each s from 1 up."""
        codes, low = self.codes_matrix, np.arange(self.size, dtype=np.int64)
        classes = np.asarray(agent_classes)
        for c in np.unique(classes):
            cols = np.flatnonzero(classes == c)
            if len(cols) < 2:
                continue
            # the class's digits leave the index one run of agents at a time,
            # read from `low`: the classes done so far changed only their own
            for run in np.split(cols, np.flatnonzero(np.diff(cols) > 1) + 1):
                unit = int(self.radix[run[0]])
                low -= low // unit % self.delta ** len(run) * unit
            places = np.concatenate(([0], np.cumsum(self.radix[cols])))
            for s in range(1, self.delta):
                held = np.zeros(self.size, dtype=np.uint8)  # of at most 62 agents
                for i in cols:
                    held += codes[:, i] >= s
                low += places[held]
        return low

    def format_config(self, config: Sequence[int]) -> str:
        config = self.check_config(config)
        return "(" + ",".join(self.labels[code] for code in config) + ")"

    def format_index(self, idx: int) -> str:
        return self.format_config(self.config_of(idx))
