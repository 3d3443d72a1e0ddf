"""Monte Carlo estimators: false-alarm rate, detection delay, observation cost.

Two routes exist for the post-change-free observation rate (POR):
estimate_por_direct averages the time shares of long pre-change episodes,
while estimate_por_renewal takes ratios of expected per-cycle times over the
regenerative cycles (top-level excursion, then the recursive truncated
sub-policy below). Both run on the visit recursion of the renewal kernel
(simulate._RenewalKernel): the direct route's episodes, once handed to
the scalar loops, take their pre-change steps on it until a few steps
before the horizon, and the renewal route runs its cycles from a seed of
its own. The two routes check the time average against the cycle ratio;
the recursion itself is checked against _EngineCore.run by the tests that
compare recorded with unrecorded episodes, and against
tests/straightline.py.

The stopping-time and direct estimators share one trial loop, _trial_table,
which returns each trial's stopping time and steps per experiment as arrays
from one runner, simulate._lockstep.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from statistics import NormalDist

import numpy as np

from .densities import ExperimentModel, _count, _real
# resolve_truncation stays a name here: perfbench's tracer patches it
from .engine import PolicyParams, RssParams, resolve_truncation, set_threshold  # noqa: F401
# episode_summary stays a name here: perfbench's tracer patches it
from .simulate import (  # noqa: F401
    EpisodeKeys,
    Scenario,
    _default_safety_horizon,
    _lockstep,
    _RenewalKernel,
    episode_summary,
    seed_entropy,
)



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
    if not (0.0 < _real("confidence", confidence) < 1.0):
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    return NormalDist().inv_cdf(0.5 + confidence / 2.0)


def _estimate(values: np.ndarray, confidence: float, horizon_hits: int = 0) -> MetricEstimate:
    n = len(values)
    mean = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    z = _z_value(confidence)
    return MetricEstimate(mean, se, n, (mean - z * se, mean + z * se), confidence, horizon_hits)


def _trial_table(
    params: PolicyParams | RssParams,
    models: Sequence[ExperimentModel],
    change_point: float,
    horizon: int,
    trials: int,
    base_seed: int | Sequence[int],
    confidence: float,
) -> tuple[np.ndarray, np.ndarray]:
    """(times, counts) of the seeded episodes, trial t seeded base_seed +
    (t,), in trial order: times[t] is trial t's stopping time (-1 for none)
    and counts[t, i] its steps of experiment id i (0 for idle), as int64.

    The arguments are checked before the first episode runs; the episodes
    run on the generators of one EpisodeKeys table, in simulate._lockstep:
    a call of at most _HANDOFF_ROWS trials on the scalar loops from time 0,
    a larger one in lockstep, but a pre-change run's last _HANDOFF_ROWS live
    trials on the scalar loops. Each row is the one its episode gives.
    """
    trials = _count("trials", trials, 1)
    _z_value(confidence)
    base = seed_entropy(base_seed)
    scenario = Scenario(models, change_point, horizon=horizon)
    return _lockstep(params, scenario, EpisodeKeys(base, trials))


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
    times, _ = _trial_table(params, models, change_point, safety_horizon, trials, base_seed,
                            confidence)
    hits = times < 0
    return _estimate(np.where(hits, float(safety_horizon), times), confidence, int(hits.sum()))


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
    _, counts = _trial_table(_disable_threshold(params), models, math.inf, horizon, trials,
                             base_seed, confidence)
    # the scenario has checked that the ids run 1..m; column 0 is the idle fraction
    first = 0 if isinstance(params, PolicyParams) and params.data_efficient else 1
    return PorVector({k: _estimate(counts[:, k] / horizon, confidence)
                      for k in range(first, len(models) + 1)})


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
    # a str is a sequence, whose characters fail set_threshold's check
    if not (isinstance(gammas, Sequence) or isinstance(gammas, np.ndarray) and gammas.ndim == 1):
        raise ValueError(f"the gamma grid must be a sequence of numbers, got {gammas!r}")
    if len(gammas) == 0:
        raise ValueError("the gamma grid must not be empty")
    # set_threshold checks that each gamma is a real number before they are compared
    thresholds = [set_threshold(gamma) for gamma in gammas]
    if any(g2 <= g1 for g1, g2 in zip(gammas, gammas[1:])):
        raise ValueError(f"the gamma grid must be strictly increasing, got {list(gammas)}")
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
