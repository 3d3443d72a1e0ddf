"""Detection engine: the multi-level statistic recursion and the RSS baseline.

One statistic D is shared by a stack of levels. Level m watches the
highest-quality experiment against the stopping threshold; an undershoot of a
level's floor opens the level below with a scaled, deeper floor and a
(possibly randomized) observation budget; climbing back above the parent
floor, or exhausting the budget, closes the level again. Data-efficient
policies add level 0, which takes no observations and climbs deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .densities import ExperimentModel, llr_from_terms, llr_terms, validate_ordering


@dataclass(frozen=True)
class Action:
    """What the policy asks for next: sample an experiment, idle, or stop."""

    kind: str  # "sample" | "idle" | "stop"
    experiment: int | None = None


IDLE = Action("idle")
STOP = Action("stop")


@dataclass(frozen=True)
class PolicyParams:
    """Parameters of an m-experiment policy.

    scales maps experiment index i to the floor-scaling factor a_i for
    i = 2..m, plus i = 1 when data_efficient. budgets maps level j to the
    observation budget N_j for j = 1..m-1, plus j = 0 when data_efficient;
    budgets may be fractional and are resolved to integers at every level
    entry. top_truncation, when set, caps the total number of level-m
    observations for the whole run.
    """

    m: int
    A: float
    scales: dict[int, float] = field(default_factory=dict)
    budgets: dict[int, float] = field(default_factory=dict)
    mu: float | None = None
    data_efficient: bool = False
    top_truncation: float | None = None

    def __post_init__(self) -> None:
        if not float(self.m).is_integer() or self.m < 1:
            raise ValueError(f"m must be an integer >= 1, got {self.m}")
        object.__setattr__(self, "m", int(self.m))
        if math.isnan(self.A) or self.A < 0.0:
            raise ValueError(f"threshold A must be >= 0, got {self.A}")
        scales = {int(k): float(v) for k, v in self.scales.items()}
        budgets = {int(k): float(v) for k, v in self.budgets.items()}
        object.__setattr__(self, "scales", scales)
        object.__setattr__(self, "budgets", budgets)
        want_scales = set(range(2, self.m + 1)) | ({1} if self.data_efficient else set())
        if set(scales) != want_scales:
            raise ValueError(
                f"scales must have keys {sorted(want_scales)}, got {sorted(scales)}"
            )
        for i, a in scales.items():
            if not (math.isfinite(a) and a > 0.0):
                raise ValueError(f"scale a_{i} must be positive and finite, got {a}")
        want_budgets = set(range(1, self.m)) | ({0} if self.data_efficient else set())
        if set(budgets) != want_budgets:
            raise ValueError(
                f"budgets must have keys {sorted(want_budgets)}, got {sorted(budgets)}"
            )
        for j, n in budgets.items():
            if not (math.isfinite(n) and n >= 0.0):
                raise ValueError(f"budget N_{j} must be >= 0 and finite, got {n}")
        if self.data_efficient:
            if self.mu is None or not (math.isfinite(self.mu) and self.mu > 0.0):
                raise ValueError(
                    f"data-efficient policies need a climb rate mu > 0, got {self.mu}"
                )
        elif self.mu is not None:
            raise ValueError("mu is only meaningful for data-efficient policies")
        if self.top_truncation is not None:
            t = float(self.top_truncation)
            if not (math.isfinite(t) and t >= 0.0):
                raise ValueError(f"top_truncation must be >= 0 and finite, got {t}")
            object.__setattr__(self, "top_truncation", t)


@dataclass(frozen=True)
class RssParams:
    """Random-switch baseline: one reflected statistic, coin-flip experiment
    choice with probability p_hi for the higher-quality experiment."""

    A: float
    p_hi: float

    def __post_init__(self) -> None:
        if math.isnan(self.A) or self.A <= 0.0:
            raise ValueError(f"threshold A must be > 0, got {self.A}")
        if not (0.0 <= self.p_hi <= 1.0):
            raise ValueError(f"p_hi must be in [0, 1], got {self.p_hi}")


@dataclass(frozen=True)
class LevelState:
    """One open level: its floor and the observations it may still take.

    remaining is math.inf for the unbounded top level.
    """

    level: int
    floor: float
    remaining: float


@dataclass(frozen=True)
class EngineState:
    statistic: float
    stack: tuple[LevelState, ...]  # level m first, active level last
    stopped: bool
    stop_reason: str | None
    time: int


@dataclass(frozen=True)
class StepResult:
    state: EngineState
    event: str  # "", "reflect", "descend", "bounce", "ascend", "stop"
    action: Action


def resolve_truncation(budget: float, rng: np.random.Generator | None = None) -> int:
    """Resolve a possibly fractional budget to an integer.

    Integers pass through without touching the rng. A fractional value N
    resolves to floor(N) with probability ceil(N) - N and to ceil(N)
    otherwise, so the resolved budget has mean N.
    """
    b = float(budget)
    if not (math.isfinite(b) and b >= 0.0):
        raise ValueError(f"budget must be >= 0 and finite, got {budget}")
    low = math.floor(b)
    if low == b:
        return int(low)
    if rng is None:
        raise ValueError("a random generator is required to resolve a fractional budget")
    if rng.random() < (low + 1.0 - b):
        return int(low)
    return int(low) + 1


class _EngineCore:
    """Mutable transition core. The public step() wraps it; the simulation
    loops drive it directly. All policy logic lives here, once."""

    __slots__ = (
        "m", "A", "de", "mu", "top", "a", "N", "terms", "rng",
        "D", "level", "floors", "remaining", "stopped", "stop_reason", "time",
    )

    def __init__(
        self,
        params: PolicyParams,
        models: Sequence[ExperimentModel],
        rng: np.random.Generator | None = None,
    ) -> None:
        m = params.m
        by_id = sorted(models, key=lambda mdl: mdl.id)
        if len(by_id) != m or [mdl.id for mdl in by_id] != list(range(1, m + 1)):
            raise ValueError(
                f"policy with m={m} needs experiment models with ids 1..{m}, "
                f"got {[mdl.id for mdl in models]}"
            )
        self.m = m
        self.A = params.A
        self.de = params.data_efficient
        self.mu = params.mu if params.mu is not None else 0.0
        self.top = params.top_truncation
        self.a = [0.0] * (m + 1)
        for i, v in params.scales.items():
            self.a[i] = v
        self.N = [0.0] * max(m, 1)
        for j, v in params.budgets.items():
            self.N[j] = v
        self.terms = [None] + [llr_terms(mdl) for mdl in by_id]
        self.rng = rng
        self.D = 0.0
        self.level = m
        self.floors = [0.0] * (m + 1)
        self.remaining = [0.0] * (m + 1)
        self.remaining[m] = math.inf
        self.stopped = False
        self.stop_reason = None
        self.time = 0

    @classmethod
    def fresh(
        cls,
        params: PolicyParams,
        models: Sequence[ExperimentModel],
        rng: np.random.Generator | None = None,
    ) -> "_EngineCore":
        """A just-initialized core with the top truncation budget resolved."""
        core = cls(params, models, rng)
        if params.top_truncation is not None:
            core.remaining[core.m] = float(resolve_truncation(params.top_truncation, rng))
            if core.remaining[core.m] == 0.0:
                core.stopped = True
                core.stop_reason = "truncation"
        return core

    def advance(self, x: float) -> str:
        """Consume one observation at the active (sampling) level."""
        lvl = self.level
        d = self.D + llr_from_terms(self.terms[lvl], x)
        self.time += 1
        self.remaining[lvl] -= 1.0
        if lvl == self.m:
            if d > self.A:
                self.D = d
                self.stopped = True
                self.stop_reason = "threshold"
                return "stop"
            if self.remaining[lvl] <= 0.0:
                self.D = d
                self.stopped = True
                self.stop_reason = "truncation"
                return "stop"
            if d < 0.0:
                if self.m == 1 and not self.de:
                    self.D = 0.0
                    return "reflect"
                return self._descend(lvl, 0.0, d)
            self.D = d
            return ""
        floor = self.floors[lvl]
        event = ""
        if lvl == 1 and not self.de and d < floor:
            d = floor  # bottom level reflects at its own floor
            event = "reflect"
        if d > self.floors[lvl + 1]:
            return self._ascend(lvl)
        if d < floor:
            # an undershoot opens the level below even on the observation
            # that consumed the last of this level's budget; the exhaustion
            # pop then fires when the opened level closes
            event = self._descend(lvl, floor, d)
            if event == "bounce" and self.remaining[lvl] <= 0.0:
                return self._ascend(lvl)
            return event
        if self.remaining[lvl] <= 0.0:
            return self._ascend(lvl)
        self.D = d
        return event

    def advance_idle(self) -> str:
        """One deterministic climb step at idle level 0."""
        d = self.D + self.mu
        self.time += 1
        self.remaining[0] -= 1.0
        if d > self.floors[1] or self.remaining[0] <= 0.0:
            return self._ascend(0)
        self.D = d
        return ""

    def _ascend(self, lvl: int) -> str:
        # closing a level may land on a parent whose own budget is spent,
        # which closes immediately as well
        j = lvl + 1
        while j < self.m and self.remaining[j] <= 0.0:
            j += 1
        self.level = j
        self.D = self.floors[j]
        return "ascend"

    def _descend(self, lvl: int, floor: float, d: float) -> str:
        child = lvl - 1
        budget = resolve_truncation(self.N[child], self.rng)
        if budget == 0:
            self.D = floor  # never entered: snap back to the current floor
            return "bounce"
        self.level = child
        self.floors[child] = floor + self.a[lvl] * (d - floor)
        self.remaining[child] = float(budget)
        self.D = self.floors[child]
        return "descend"

    def snapshot(self) -> EngineState:
        stack = tuple(
            LevelState(i, self.floors[i], self.remaining[i])
            for i in range(self.m, self.level - 1, -1)
        )
        return EngineState(self.D, stack, self.stopped, self.stop_reason, self.time)

    @classmethod
    def restore(
        cls,
        params: PolicyParams,
        models: Sequence[ExperimentModel],
        state: EngineState,
        rng: np.random.Generator | None = None,
    ) -> "_EngineCore":
        core = cls(params, models, rng)
        core.D = state.statistic
        core.stopped = state.stopped
        core.stop_reason = state.stop_reason
        core.time = state.time
        for entry in state.stack:
            core.floors[entry.level] = entry.floor
            core.remaining[entry.level] = entry.remaining
        core.level = state.stack[-1].level
        return core


def init(params: PolicyParams, rng: np.random.Generator | None = None) -> EngineState:
    """Fresh engine state: statistic 0 at level m.

    rng is needed only when top_truncation is fractional. A top budget that
    resolves to zero yields a state that is already stopped at time 0.
    """
    if params.top_truncation is None:
        remaining = math.inf
        stopped = False
    else:
        remaining = float(resolve_truncation(params.top_truncation, rng))
        stopped = remaining == 0.0
    return EngineState(
        statistic=0.0,
        stack=(LevelState(params.m, 0.0, remaining),),
        stopped=stopped,
        stop_reason="truncation" if stopped else None,
        time=0,
    )


def next_action(state: EngineState) -> Action:
    """The action the policy requests from the current state."""
    if state.stopped:
        raise RuntimeError("the engine has stopped; no further action exists")
    lvl = state.stack[-1].level
    if lvl == 0:
        return IDLE
    return Action("sample", lvl)


def step(
    state: EngineState,
    params: PolicyParams,
    models: Sequence[ExperimentModel],
    observation: float | None,
    rng: np.random.Generator | None = None,
) -> StepResult:
    """Pure one-step transition: (state, observation) -> (state, event, action).

    observation must be None exactly when the active level is the idle level.
    rng is consumed only when a descent resolves a fractional budget.
    """
    if state.stopped:
        raise RuntimeError("cannot step a stopped engine")
    lvl = state.stack[-1].level
    if lvl == 0:
        if observation is not None:
            raise ValueError("idle steps take no observation")
    else:
        if observation is None:
            raise ValueError(f"level {lvl} requires an observation")
        if not math.isfinite(observation):
            raise ValueError(f"observation must be finite, got {observation}")
    core = _EngineCore.restore(params, models, state, rng)
    event = core.advance_idle() if lvl == 0 else core.advance(float(observation))
    new_state = core.snapshot()
    action = STOP if new_state.stopped else next_action(new_state)
    return StepResult(new_state, event, action)


@dataclass(frozen=True)
class RssRun:
    stopping_time: int | None
    counts: dict[int, int]
    statistic: float
    steps: tuple[tuple[int, int, float, float], ...] | None  # (n, experiment, x, D)


def run_rss(
    params: RssParams,
    models: Sequence[ExperimentModel],
    next_obs: Callable[[int, int], float],
    rng: np.random.Generator,
    max_steps: int | None = None,
    record: bool = False,
) -> RssRun:
    """Run the random-switch baseline on two experiments.

    next_obs(experiment_id, n) supplies the observation for step n. The
    first step always uses the higher-quality experiment; afterwards the
    coin picks it with probability p_hi. Stops once the reflected statistic
    reaches A.
    """
    if len(models) != 2:
        raise ValueError(f"the random-switch baseline needs exactly 2 models, got {len(models)}")
    violation = validate_ordering(models)
    if violation is not None:
        raise ValueError(str(violation))
    by_id = sorted(models, key=lambda mdl: mdl.id)
    lo, hi = by_id[0].id, by_id[1].id
    terms = {mdl.id: llr_terms(mdl) for mdl in by_id}
    d = 0.0
    n = 0
    counts = {lo: 0, hi: 0}
    steps: list[tuple[int, int, float, float]] | None = [] if record else None
    while max_steps is None or n < max_steps:
        n += 1
        exp = hi if n == 1 or rng.random() < params.p_hi else lo
        x = next_obs(exp, n)
        d = max(d + llr_from_terms(terms[exp], x), 0.0)
        counts[exp] += 1
        if steps is not None:
            steps.append((n, exp, x, d))
        if d >= params.A:
            return RssRun(n, counts, d, tuple(steps) if steps is not None else None)
    return RssRun(None, counts, d, tuple(steps) if steps is not None else None)
