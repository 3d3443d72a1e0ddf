"""Monte Carlo estimators: false-alarm rate, detection delay, observation cost.

Two independent routes exist for the post-change-free observation rate (POR):
estimate_por_direct drives the engine over long pre-change episodes, while
estimate_por_renewal transcribes the regenerative cycle structure directly
(top-level excursion, then the recursive truncated sub-policy below) without
touching the engine. The two cross-check each other.

The renewal kernel keeps that recursive shape: one call per level visit,
each a loop over locals that adds up its observations' LLR increments. Like
the engine, it reads tables built once on the frozen inputs (each model's
LLR terms, each level's integer budget), and resolves only fractional
budgets per visit. Its observations and its budget coins come through
engine._Stream, as an episode's do; its level streams are scored, each block
holding the increments, computed in numpy with the scalar arithmetic's bits.

The stopping-time and direct estimators share one trial loop,
_trial_summaries. Below _LOCKSTEP_TRIALS trials it runs one episode at a
time; from there on it steps a key chunk's episodes together
(simulate._lockstep), which yields the same summaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from statistics import NormalDist
from struct import pack
from typing import Sequence

import numpy as np

from .densities import ExperimentModel, _count, check_models
from .engine import PolicyParams, RssParams, _Stream, resolve_truncation, set_threshold
from .simulate import (
    EpisodeKeys,
    Scenario,
    _default_safety_horizon,
    _lockstep,
    _philox,
    episode_summary,
    seed_entropy,
)

RENEWAL_TAG = 3

# _trial_summaries steps its episodes in lockstep from this many trials on,
# the CLI's default. Lockstep against scalar on a 2-CPU VM:
# - estimate_wadd on the benchmark's gamma = 1000 policies (medians of 7
#   alternating runs, lockstep faster in 7 of 7 each): at 1000 trials cusum
#   22.9 -> 13.8 ms, 2e 30.0 -> 19.2, 3e 33.2 -> 23.3, rss 36.5 -> 24.6; at
#   1200, 30.5 -> 17.2, 39.6 -> 23.5, 44.8 -> 28.3, 29.9 -> 18.8. Below
#   that a pass costs more than it saves: at 300 trials 3e took 11.6 ->
#   13.0 ms.
# - estimate_arlfa with no change: criterion 1's calls (5000 trials capped
#   at 4000 steps) cusum 5.2 -> 1.9 s, 2e 10.1 -> 5.2, 3e 10.9 -> 5.9, de2e
#   8.5 -> 4.3; an uncapped 1000-trial 2e call (mean 12755 steps) 9.4 ->
#   7.6 s, which took 12.2 s in lockstep before the last trials went to
#   the scalar loop (simulate._HANDOFF_ROWS).
_LOCKSTEP_TRIALS = 1000


@dataclass(frozen=True)
class MetricEstimate:
    """Sample mean with a normal-approximation confidence interval."""

    mean: float
    std_error: float
    trials: int
    ci: tuple[float, float]
    confidence: float
    horizon_hits: int = 0  # episodes cut off at the safety horizon (estimate is a lower bound)


@dataclass(frozen=True)
class WaddEstimate(MetricEstimate):
    """Delay estimate: simulated mean plus the analytic truncation penalty."""

    sim_mean: float = 0.0
    penalty: float = 0.0


@dataclass(frozen=True)
class PorVector:
    """Per-experiment observation-rate estimates, keyed by experiment id.

    Key 0 is the idle fraction and is present only for data-efficient
    policies. The means sum to 1 up to Monte Carlo error.
    """

    components: dict[int, MetricEstimate]

    def __getitem__(self, key: int) -> MetricEstimate:
        return self.components[key]

    def means(self) -> dict[int, float]:
        return {k: v.mean for k, v in self.components.items()}


def _z_value(confidence: float) -> float:
    if not (0.0 < confidence < 1.0):
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    return NormalDist().inv_cdf(0.5 + confidence / 2.0)


def _estimate(values: np.ndarray, confidence: float, horizon_hits: int = 0) -> MetricEstimate:
    n = len(values)
    mean = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    z = _z_value(confidence)
    return MetricEstimate(mean, se, n, (mean - z * se, mean + z * se), confidence, horizon_hits)


def _trial_summaries(
    params: PolicyParams | RssParams,
    models: Sequence[ExperimentModel],
    change_point: float,
    horizon: int,
    trials: int,
    base_seed: int | Sequence[int],
    confidence: float,
):
    """Summaries of the seeded episodes, trial t seeded base_seed + (t,),
    in trial order.

    The arguments are checked when this is called, before the first episode
    runs; the episodes run as the result is iterated, on the generators of
    one EpisodeKeys table. Below _LOCKSTEP_TRIALS trials they run one after
    another, each as episode_summary runs it. From there on,
    simulate._lockstep steps each _KEY_CHUNK of them together, one numpy
    pass per time step, and yields the same summaries: each trial's streams
    are keyed as its episode's are, Philox gives the same values whatever
    the block sizes, and every float operation is the scalar loop's, in its
    order.
    """
    trials = _count("trials", trials, 1)
    _z_value(confidence)
    base = seed_entropy(base_seed)
    scenario = Scenario(tuple(models), change_point, horizon=horizon)
    keys = EpisodeKeys(base, trials)
    if trials >= _LOCKSTEP_TRIALS:
        return _lockstep(params, scenario, keys)
    return (episode_summary(params, scenario, base + (t,), keys=keys) for t in range(trials))


def _stopping_time_estimate(
    params: PolicyParams | RssParams,
    models: Sequence[ExperimentModel],
    change_point: float,
    trials: int,
    base_seed: int | Sequence[int],
    confidence: float,
    safety_horizon: int | None,
) -> MetricEstimate:
    """Mean stopping time of seeded episodes with the change at change_point;
    episodes cut at the safety horizon count at the horizon."""
    if not math.isfinite(params.A):
        raise ValueError("stopping-time estimation needs a finite threshold")
    if safety_horizon is None:
        safety_horizon = _default_safety_horizon(params.A)
    else:
        safety_horizon = _count("safety_horizon", safety_horizon, 1)
    times = [s.stopping_time for s in _trial_summaries(
        params, models, change_point, safety_horizon, trials, base_seed, confidence)]
    taus = np.array([safety_horizon if t is None else t for t in times], dtype=float)
    return _estimate(taus, confidence, times.count(None))


def estimate_arlfa(
    params: PolicyParams | RssParams,
    models: Sequence[ExperimentModel],
    trials: int,
    base_seed: int | Sequence[int],
    *,
    confidence: float = 0.95,
    safety_horizon: int | None = None,
) -> MetricEstimate:
    """Mean time to a false alarm: episodes with no change ever.

    Episodes still running at the safety horizon are counted at the horizon
    and reported in horizon_hits, making the estimate a lower bound.
    """
    return _stopping_time_estimate(params, models, math.inf, trials, base_seed,
                                   confidence, safety_horizon)


def wadd_penalty(params: PolicyParams | RssParams) -> float:
    """Worst-case delay penalty for the level budgets, at nominal values.

    The worst pre-change state leaves every level fully loaded, so the
    penalty sums, over each level below the top, the product of the budgets
    on the path down to it. Zero for single-level and RSS policies.
    """
    if isinstance(params, RssParams):
        return 0.0
    lowest = 0 if params.data_efficient else 1
    total = 0.0
    prod = 1.0
    for j in range(params.m - 1, lowest - 1, -1):
        prod *= params.budgets[j]
        total += prod
    return total


def estimate_wadd(
    params: PolicyParams | RssParams,
    models: Sequence[ExperimentModel],
    trials: int,
    base_seed: int | Sequence[int],
    *,
    confidence: float = 0.95,
    safety_horizon: int | None = None,
) -> WaddEstimate:
    """Worst-case average detection delay: change at n = 1 plus the budget penalty."""
    base = _stopping_time_estimate(params, models, 1, trials, base_seed,
                                   confidence, safety_horizon)
    penalty = wadd_penalty(params)
    return WaddEstimate(
        mean=base.mean + penalty,
        std_error=base.std_error,
        trials=base.trials,
        ci=(base.ci[0] + penalty, base.ci[1] + penalty),
        confidence=base.confidence,
        horizon_hits=base.horizon_hits,
        sim_mean=base.mean,
        penalty=penalty,
    )


def _disable_threshold(params: PolicyParams | RssParams):
    if isinstance(params, RssParams):
        return replace(params, A=math.inf)
    return replace(params, A=math.inf, top_truncation=None)


def estimate_por_direct(
    params: PolicyParams | RssParams,
    models: Sequence[ExperimentModel],
    horizon: int,
    trials: int,
    base_seed: int | Sequence[int],
    *,
    confidence: float = 0.95,
) -> PorVector:
    """Observation rates from long pre-change runs with the threshold disabled.

    Renewal resets still happen whenever the statistic returns to the top
    level; only the stopping rule is switched off.
    """
    horizon = _count("horizon", horizon, 10_000)
    counts = [s.counts for s in _trial_summaries(
        _disable_threshold(params), models, math.inf, horizon, trials, base_seed, confidence)]
    # the scenario has checked that the ids run 1..m; key 0 is the idle fraction
    first = 0 if isinstance(params, PolicyParams) and params.data_efficient else 1
    return PorVector({k: _estimate(np.array([c[k] for c in counts]) / horizon, confidence)
                      for k in range(first, len(models) + 1)})


class _RenewalKernel:
    """Regenerative cycles written straight from the cycle structure: a
    zero-floor excursion at the top level, then the recursive truncated
    sub-policy opened by the undershoot. Engine-free on purpose.

    run() holds the top excursion and _sub() one visit of a lower level,
    recursing into the level below on an undershoot. Each keeps the
    visited level's stream (buf, pos, end) in locals and moves the statistic
    by d += buf[pos]. The level streams are scored: each block already holds
    its observations' LLR increments, llr_from_terms(terms, pre_mean +
    pre_std * z), computed in numpy in that function's operation order, so
    the sums are the bits a scalar loop would give. The
    tables are built once on the frozen inputs: ExperimentModel.terms and
    PolicyParams.fixed_budgets, so only a fractional budget calls
    resolve_truncation, with budget_rng, a _Stream of uniforms read one at
    a time. With record = j, run() also appends the steps of each level-j
    visit to self.visits, as native int64 in visit order: the calibration
    search reads them.
    """

    def __init__(self, params: PolicyParams, models: Sequence[ExperimentModel], base_seed,
                 record: int = -1) -> None:
        self.m = m = params.m
        by_id = check_models(models, m)
        self.de = params.data_efficient
        self.mu = params.mu if params.mu is not None else 0.0
        # keyed by level: a descent from level j reads a[j] and the budget of j - 1
        self.a = [0.0] * (m + 1)
        for i, v in params.scales.items():
            self.a[i] = v
        self.N = params.budgets
        self.fixed = params.fixed_budgets
        entropy = seed_entropy(base_seed) + (RENEWAL_TAG,)
        children = np.random.SeedSequence(entropy).spawn(m + 1)
        # by level, as the engine reads them; pre-change draws only
        self.streams = [None] + [_Stream(partial(_philox, children[mdl.id - 1]), mdl,
                                         scored=True) for mdl in by_id[1:]]
        self.budget_rng = _Stream(partial(_philox, children[m]))
        self.recorded = record
        self.visits = bytearray()

    def run(self, cycles: int) -> memoryview:
        """Steps spent at each source in the next `cycles` cycles, as a flat
        memoryview of doubles: cycle k's count for source j (0 = idle) is at
        index k * (m + 1) + j."""
        m = self.m
        width = m + 1
        # zeroed doubles over a bytearray, which numpy views without a copy
        out = memoryview(bytearray(8 * width * cycles)).cast("d")
        sub = self._sub if m > 1 or self.de else None
        a = self.a[m]
        s = self.streams[m]
        buf, pos, end = s.buf, s.pos, s.end
        for at in range(0, width * cycles, width):
            d = 0.0
            steps = 0
            while True:
                if pos == end:
                    s.refill()
                    buf, end, pos = s.buf, s.end, 0
                d += buf[pos]
                pos += 1
                steps += 1
                if d < 0.0:
                    break
            out[at + m] = steps
            if sub is not None:
                sub(m - 1, a * d, 0.0, out, at)
        s.pos = pos
        return out

    def _sub(self, j: int, floor: float, ceiling: float, out: memoryview, at: int) -> None:
        """One visit of level j: its steps go to out[at + j]."""
        budget = self.fixed[j]
        if budget is None:
            budget = resolve_truncation(self.N[j], self.budget_rng)
        if budget == 0:
            return
        used = 0
        d = floor
        if j == 0:
            mu = self.mu
            while True:
                d += mu
                used += 1
                if d > ceiling or used == budget:
                    break
        else:
            a = self.a[j]
            # nothing opens below level 1 of a plain policy, nor below a fixed
            # budget of 0 (which draws nothing), so there the level reflects
            reflects = self.fixed[j - 1] == 0 or j == 1 and not self.de
            s = self.streams[j]
            buf, pos, end = s.buf, s.pos, s.end
            while True:
                if pos == end:
                    s.refill()
                    buf, end, pos = s.buf, s.end, 0
                d += buf[pos]
                pos += 1
                used += 1
                if reflects and d < floor:
                    d = floor
                if d > ceiling:
                    break
                if d < floor:
                    # the budget-consuming observation may still open the level
                    # below; the exhaustion return happens once it closes. The
                    # visit below reads only its own stream, so these locals
                    # stay valid across it.
                    self._sub(j - 1, floor + a * (d - floor), floor, out, at)
                    d = floor
                if used == budget:
                    break
            s.pos = pos
        out[at + j] += used
        if j == self.recorded:
            self.visits += pack("q", used)


def _ratio_estimate(x: np.ndarray, y: np.ndarray, confidence: float) -> MetricEstimate:
    # Ratio of means with a delta-method standard error.
    n = len(x)
    ybar = float(np.mean(y))
    r = float(np.sum(x) / np.sum(y))
    if n > 1:
        sxx = float(np.var(x, ddof=1))
        syy = float(np.var(y, ddof=1))
        sxy = float(np.cov(x, y, ddof=1)[0, 1])
        var = (sxx - 2.0 * r * sxy + r * r * syy) / (n * ybar * ybar)
        se = math.sqrt(max(var, 0.0))
    else:
        se = 0.0
    z = _z_value(confidence)
    return MetricEstimate(r, se, n, (r - z * se, r + z * se), confidence)


def estimate_por_renewal(
    params: PolicyParams,
    models: Sequence[ExperimentModel],
    cycles: int,
    base_seed: int | Sequence[int],
    *,
    confidence: float = 0.95,
) -> PorVector:
    """Observation rates as ratios of expected per-cycle times.

    Uses the regenerative structure of the pre-change run: the expected
    fraction of steps an experiment takes equals its expected steps per
    renewal cycle over the expected cycle length.
    """
    if not isinstance(params, PolicyParams):
        raise ValueError("renewal estimation is defined for engine policies, not RSS")
    cycles = _count("cycles", cycles, 100)
    if params.top_truncation is not None:
        raise ValueError("renewal estimation assumes an untruncated top level")
    _z_value(confidence)  # a bad confidence fails before the first cycle
    kernel = _RenewalKernel(params, models, base_seed)
    times = np.frombuffer(kernel.run(cycles)).reshape(cycles, params.m + 1)
    totals = times.sum(axis=1)
    return PorVector({k: _ratio_estimate(times[:, k], totals, confidence)
                      for k in range(0 if params.data_efficient else 1, params.m + 1)})


@dataclass(frozen=True)
class TradeoffPoint:
    gamma: float
    log_arlfa: float
    wadd: float
    wadd_se: float
    arlfa: MetricEstimate
    wadd_estimate: WaddEstimate


def tradeoff_curve(
    params: PolicyParams | RssParams,
    models: Sequence[ExperimentModel],
    gammas: Sequence[float],
    trials: int,
    base_seed: int | Sequence[int],
    *,
    confidence: float = 0.95,
) -> list[TradeoffPoint]:
    """(log false-alarm time, delay) pairs along a grid of targets.

    Each grid point re-thresholds the same policy at A = set_threshold(gamma),
    every gamma checked before the first estimate runs; the rest of the
    parameters stay fixed.
    """
    if len(gammas) == 0:
        raise ValueError("the gamma grid must not be empty")
    if any(g2 <= g1 for g1, g2 in zip(gammas, gammas[1:])):
        raise ValueError(f"the gamma grid must be strictly increasing, got {list(gammas)}")
    thresholds = [set_threshold(gamma) for gamma in gammas]
    points = []
    base = seed_entropy(base_seed)
    for k, (gamma, threshold) in enumerate(zip(gammas, thresholds)):
        p = replace(params, A=threshold)
        arlfa = estimate_arlfa(p, models, trials, base + (100, k), confidence=confidence)
        wadd = estimate_wadd(p, models, trials, base + (200, k), confidence=confidence)
        points.append(
            TradeoffPoint(gamma, math.log(arlfa.mean), wadd.mean, wadd.std_error, arlfa, wadd)
        )
    return points
