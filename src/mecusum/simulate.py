"""Episode simulation: change-point scenarios driving the detection engine.

Observations for each experiment come from their own counter-based substream,
so trials are reproducible and order-independent: the stream for experiment i
in a run seeded s is Philox keyed by (s..., OBS_STREAM_TAG, i), and all coin
flips and budget resolutions draw from a separate control stream. Regime
switching (pre to post change) only remaps the buffered standard normals, so
it never perturbs stream alignment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .densities import ExperimentModel, validate_ordering
from .engine import (
    IDLE,
    Action,
    PolicyParams,
    RssParams,
    _EngineCore,
    run_rss,
)

OBS_STREAM_TAG = 1
CONTROL_STREAM_TAG = 2

# Horizon used by config-driven flows when change_point is infinite and no
# horizon was given explicitly.
DEFAULT_INFINITE_HORIZON = 1_000_000

# Standard normals are drawn in blocks of 64, 128, ..., 4096, then 4096 from
# there on: a ~15-step detection episode draws 64 values, not 4096.
_FIRST_BLOCK = 64
_MAX_BLOCK = 4096


def seed_entropy(seed: int | Sequence[int]) -> tuple[int, ...]:
    """Normalize a seed (int or tuple of ints) into SeedSequence entropy."""
    if isinstance(seed, (int, np.integer)):
        parts: tuple[int, ...] = (int(seed),)
    elif isinstance(seed, (str, bytes)):
        # iterating would split "12" into the seed (1, 2)
        raise ValueError(f"seed must be an int or a sequence of ints, got {seed!r}")
    else:
        parts = tuple(int(s) for s in seed)
    if not parts:
        raise ValueError("seed must not be empty")
    for p in parts:
        if p < 0:
            raise ValueError(f"seed components must be non-negative, got {p}")
    return parts


def _philox(seed: Sequence[int] | np.random.SeedSequence) -> np.random.Generator:
    """A Philox generator keyed by SeedSequence entropy or a SeedSequence."""
    return np.random.Generator(np.random.Philox(seed))


def observation_generator(seed: int | Sequence[int], experiment_id: int) -> np.random.Generator:
    return _philox(seed_entropy(seed) + (OBS_STREAM_TAG, experiment_id))


def control_generator(seed: int | Sequence[int]) -> np.random.Generator:
    return _philox(seed_entropy(seed) + (CONTROL_STREAM_TAG,))


class _GaussianStream:
    """Buffered observation stream for one experiment.

    make_gen builds the stream's generator; it runs on the first next(), so
    an episode builds only the generators it draws from. Standard normals
    come in blocks of 64, 128, ..., 4096, then 4096 each, and are mapped
    through the pre- or post-change location/scale at consumption time.
    Chunked standard_normal draws from Philox give the same sequence as one
    large block, so the values do not depend on the block sizes.
    """

    __slots__ = ("make_gen", "gen", "buf", "pos", "end",
                 "pre_mean", "pre_std", "post_mean", "post_std")

    def __init__(self, model: ExperimentModel,
                 make_gen: Callable[[], np.random.Generator]) -> None:
        self.make_gen = make_gen
        self.gen = None
        self.buf: list[float] = []
        self.pos = 0
        self.end = 0  # len(buf); next() compares with it because len() costs ~50 ns
        self.pre_mean = model.pre.mean
        self.pre_std = model.pre.std
        self.post_mean = model.post.mean
        self.post_std = model.post.std

    def next(self, post: bool) -> float:
        i = self.pos
        if i == self.end:
            self._refill()
            i = 0
        z = self.buf[i]
        self.pos = i + 1
        if post:
            return self.post_mean + self.post_std * z
        return self.pre_mean + self.pre_std * z

    def _refill(self) -> None:
        if self.gen is None:
            self.gen = self.make_gen()
            size = _FIRST_BLOCK
        else:
            size = min(2 * self.end, _MAX_BLOCK)
        # plain-float list: python float arithmetic beats numpy scalars here
        self.buf = self.gen.standard_normal(size).tolist()
        self.end = size


class _ControlStream:
    """An episode's control generator, built on its first random() call.

    Coin flips and fractional budgets are its only users, so CUSUM and
    integer-budget episodes never build it.
    """

    def __init__(self, entropy: tuple[int, ...]) -> None:
        self.entropy = entropy

    def random(self) -> float:
        # the instance attribute shadows this method: later calls go
        # straight to the generator
        self.random = control_generator(self.entropy).random
        return self.random()


@dataclass(frozen=True)
class Scenario:
    """Experiment set plus the change point nu (integer >= 1, or math.inf for
    a run that never changes). horizon caps the episode length."""

    models: tuple[ExperimentModel, ...]
    change_point: float
    horizon: int | None = None

    def __post_init__(self) -> None:
        models = tuple(self.models)
        object.__setattr__(self, "models", models)
        violation = validate_ordering(models)
        if violation is not None:
            raise ValueError(str(violation))
        nu = self.change_point
        if math.isinf(nu) and nu > 0:
            object.__setattr__(self, "change_point", math.inf)
        elif float(nu).is_integer() and nu >= 1:
            object.__setattr__(self, "change_point", int(nu))
        else:
            raise ValueError(
                f"change_point must be an integer >= 1 or infinity, got {nu}"
            )
        if self.horizon is not None:
            if not float(self.horizon).is_integer() or self.horizon < 1:
                raise ValueError(f"horizon must be a positive integer, got {self.horizon}")
            object.__setattr__(self, "horizon", int(self.horizon))


@dataclass(frozen=True)
class TraceStep:
    n: int
    action: Action
    observation: float | None
    statistic: float
    level: int  # level at which the action was taken; experiment id for RSS
    event: str


@dataclass(frozen=True)
class EpisodeTrace:
    steps: tuple[TraceStep, ...]
    stopping_time: int | None  # None when the horizon cut the episode short
    stop_reason: str | None
    counts: dict[int, int]  # observations per experiment id; key 0 counts idle steps
    seed: int | tuple[int, ...]


@dataclass(frozen=True)
class EpisodeSummary:
    stopping_time: int | None
    stop_reason: str | None
    counts: dict[int, int]
    steps_run: int


def run_episode(
    params: PolicyParams | RssParams,
    scenario: Scenario,
    seed: int | Sequence[int],
) -> EpisodeTrace:
    """Simulate one episode and keep the full step-by-step trace."""
    entropy = seed_entropy(seed)
    steps, stopping_time, stop_reason, counts = _drive(params, scenario, entropy, record=True)
    return EpisodeTrace(
        steps=tuple(steps),
        stopping_time=stopping_time,
        stop_reason=stop_reason,
        counts=counts,
        seed=entropy[0] if isinstance(seed, (int, np.integer)) else entropy,
    )


def episode_summary(
    params: PolicyParams | RssParams,
    scenario: Scenario,
    seed: int | Sequence[int],
) -> EpisodeSummary:
    """Simulate one episode, keeping only the stopping time and counts."""
    _, stopping_time, stop_reason, counts = _drive(params, scenario, seed_entropy(seed),
                                                   record=False)
    return EpisodeSummary(stopping_time, stop_reason, counts, sum(counts.values()))


def _drive(params, scenario, entropy, record):
    # the callers pass entropy through seed_entropy, so a bad seed fails
    # before the first step even when the episode never draws; generators are
    # built on first use, through the module-level observation_generator and
    # control_generator
    nu = scenario.change_point
    horizon = scenario.horizon
    if math.isinf(nu) and horizon is None:
        raise ValueError("a horizon is required when change_point is infinite")
    by_id = sorted(scenario.models, key=lambda mdl: mdl.id)
    streams = {mdl.id: _GaussianStream(mdl, lambda i=mdl.id: observation_generator(entropy, i))
               for mdl in by_id}
    ctrl = _ControlStream(entropy)
    counts = {0: 0, **{mdl.id: 0 for mdl in by_id}}
    if isinstance(params, RssParams):
        result = run_rss(
            params,
            by_id,
            lambda exp, n: streams[exp].next(n >= nu),
            ctrl,
            max_steps=horizon,
            record=record,
        )
        for exp, c in result.counts.items():
            counts[exp] = c
        steps = []
        if record and result.steps is not None:
            steps = [
                TraceStep(n, Action("sample", exp), x, d, exp,
                          "stop" if result.stopping_time == n else "")
                for n, exp, x, d in result.steps
            ]
        reason = "threshold" if result.stopping_time is not None else None
        return steps, result.stopping_time, reason, counts
    if params.m != len(by_id):
        raise ValueError(
            f"policy has m={params.m} but the scenario provides {len(by_id)} models"
        )
    core = _EngineCore.fresh(params, by_id, ctrl)
    steps = [] if record else None
    n = 0
    while not core.stopped and (horizon is None or n < horizon):
        n += 1
        lvl = core.level
        if lvl == 0:
            event = core.advance_idle()
            counts[0] += 1
            if record:
                steps.append(TraceStep(n, IDLE, None, core.D, 0, event))
        else:
            x = streams[lvl].next(n >= nu)
            event = core.advance(x)
            counts[lvl] += 1
            if record:
                steps.append(TraceStep(n, Action("sample", lvl), x, core.D, lvl, event))
    stopping_time = core.time if core.stopped else None
    return steps if record else [], stopping_time, core.stop_reason, counts
