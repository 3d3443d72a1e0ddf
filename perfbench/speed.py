"""Machine-speed probe that makes timings steady on a shared machine.

On the 2-CPU VM this benchmark was sized on, the same pure-Python loop runs
up to 1.6x faster or slower for 10-30 s at a time (the host's load and
clock), so the median of a 20-s run moved by +-25% from run to run. Medians
of short operations cannot remove a drift that lasts a whole run. So every
timed operation is bracketed by this fixed probe, and its time is scaled by
NOMINAL_S / (median probe time around it): the figure it would read on a
machine where the probe takes NOMINAL_S. A set-up process scales its CPU
time the same way, by the probes it runs right after set-up. The probe is
fixed code of the benchmark's own, so a change to the library moves the
scaled times exactly as it moves the raw ones; the raw times are reported
alongside.

The probe mixes the three kinds of work the library does, because each
tracks a different workload best: float arithmetic in an interpreted loop,
small-object churn, and numpy generator construction with a block draw.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

# probe time on the sizing machine in its usual state; only sets the scale
NOMINAL_S = 0.026

_VALUES = np.random.default_rng(2024).standard_normal(4500).tolist()


@dataclass(frozen=True)
class _State:
    statistic: float
    level: int


class _Core:
    __slots__ = ("d", "level", "floors")

    def __init__(self, state: _State) -> None:
        self.d = state.statistic
        self.level = state.level
        self.floors = [0.0, -1.0, -2.0]

    def advance(self, x: float) -> None:
        d = self.d + 0.5 * x * x - 0.5 * (x - 1.0) * (x - 1.0)
        if d < self.floors[self.level]:
            self.level = 1 if self.level == 2 else 2
            d = self.floors[self.level]
        self.d = d


def _work() -> float:
    total = 0.0
    for i in range(120_000):
        total += i * 0.5
    state = _State(0.0, 2)
    for x in _VALUES:
        core = _Core(state)
        core.advance(x)
        state = _State(core.d, core.level)
    for i in range(12):
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence((7, i))))
        total += sum(gen.standard_normal(4096).tolist())
    return total + state.statistic


def probe() -> float:
    """Seconds one run of the fixed probe takes now."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0
