"""Machine-speed probe, and the stage clock that scales wall times by it.

On the 2-core machine this benchmark was written on, the CPU speed seen by
one process alternates between two levels about 2x apart, in stretches of
half a second to minutes (see NOTES.md, "Steadiness"). Wall times of the
same pass then differ by up to 70% between runs. The benchmark therefore
scales pass and stage times to a reference speed: the stage clock runs a
fixed probe loop after each timed stage, and multiplies the stage's wall
time by PROBE_REF_S over the mean of the probes on either side of it.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from fractions import Fraction
from typing import Dict

# probe() on that machine in its fast state; the scaled times are seconds on
# a machine where the probe takes this long
PROBE_REF_S = 0.0035


def probe() -> float:
    """Seconds taken by a fixed pure-Python loop of the kind the program
    runs: rational arithmetic and dict stores."""
    start = time.perf_counter()
    table = {}
    total = Fraction(0)
    for i in range(1, 1200):
        total += Fraction(i % 7 + 1, i % 97 + 1)
        table[i % 257] = total.numerator & 0xFF
    return time.perf_counter() - start


class StageClock:
    """Per-stage wall and scaled seconds of one pass; a stage may be entered
    several times, once per program call, and its times add up.

    A call that spends its time in native code rather than the interpreter
    is entered with `scaled=False` and keeps its wall time: the host's slow
    state stretches the probe about 2x but a dense LAPACK solve only about
    1.3x, so scaling it by the probe would add noise instead of removing it.
    """

    def __init__(self):
        self.wall: Dict[str, float] = {}
        self.scaled: Dict[str, float] = {}
        self._last_probe = probe()

    @contextmanager
    def __call__(self, name: str, scaled: bool = True):
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            after = probe()
            factor = PROBE_REF_S / ((self._last_probe + after) / 2) if scaled else 1.0
            self._last_probe = after
            self.wall[name] = self.wall.get(name, 0.0) + elapsed
            self.scaled[name] = self.scaled.get(name, 0.0) + elapsed * factor

    @property
    def factor(self) -> float:
        """Scaled over wall time of the whole pass."""
        return sum(self.scaled.values()) / sum(self.wall.values())
