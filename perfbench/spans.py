"""In-memory spans and counters for the benchmark's traced run.

A span is one timed call at a layer boundary: name, start, end, the span
that was open when it began (its parent) and the id of the benchmark pass it
belongs to. Spans are only appended to a list; analysis happens after the
run, so the traced code pays for two clock reads and a list append.
"""

from __future__ import annotations

import functools
import resource
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: Optional[int]
    pass_id: int
    name: str
    start: float
    end: float


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part of it that its children cover.

    Child intervals are clipped to the parent and merged first, so
    overlapping children are not subtracted twice.
    """
    spans = list(spans)
    children: Dict[int, list] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(children[s.span_id]):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out[s.span_id] = (s.end - s.start) - covered
    return out


def maxrss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Collects spans and per-pass counters while hooks are installed."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Dict[int, Dict[str, float]] = {}
        self.pass_id = -1
        self._stack: List[int] = []
        self._next_id = 0

    def begin_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self.counts[pass_id] = {}

    def add(self, name: str, value: float) -> None:
        counts = self.counts[self.pass_id]
        counts[name] = counts.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        counts = self.counts[self.pass_id]
        counts[name] = max(counts.get(name, value), value)

    @contextmanager
    def span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, parent, self.pass_id, name, start, end))

    def traced(self, fn: Callable, name: str,
               after: Optional[Callable] = None, rss: bool = False) -> Callable:
        """`fn` inside a span; `after(tracer, args, result)` records counts
        from the return value once the span has closed."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = maxrss_mb() if rss else 0.0
            with self.span(name):
                result = fn(*args, **kwargs)
            if rss:
                self.peak(f"{name}.maxrss_delta_mb", maxrss_mb() - before)
            if after is not None:
                after(self, args, result)
            return result
        return wrapper

    def counted(self, fn: Callable, name: str) -> Callable:
        """`fn` with a call counter and no span, for calls too frequent to
        time one by one."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add(name, 1)
            return fn(*args, **kwargs)
        return wrapper


def rebind(package: str, original: Callable, replacement: Callable) -> list:
    """Point every namespace of `package` that holds `original` at
    `replacement`, so calls through `from x import f` copies are caught too.

    Returns the undo list for `restore`.
    """
    undo = []
    for modname, module in list(sys.modules.items()):
        if modname != package and not modname.startswith(package + "."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    if not undo:
        raise LookupError(f"{original!r} is not bound in any {package} module")
    return undo


def rebind_attr(owner: type, attr: str, replacement) -> list:
    """Replace a class attribute (method or descriptor); returns undo list."""
    undo = [(owner, attr, owner.__dict__[attr])]
    setattr(owner, attr, replacement)
    return undo


def restore(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
