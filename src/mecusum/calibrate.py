"""Parameter search: hit target observation rates at a given false-alarm level.

The search leans on a decoupling property of the level stack: the time spent
at any level per renewal cycle is unaffected by the budgets and scales of the
levels below it. Budgets are therefore solved one level at a time from the
top down. A level-j visit with budget B takes min(B, tau) observations, tau
being its first passage above its ceiling, so one pass of cycles with level
j at the budget cap that records each visit's tau gives the level's rate for
every budget: the budget is the exact root of that piecewise-linear sum. When
even the cap falls short, the scale feeding level j is escalated by 10x and
the pass is run again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

from .densities import ExperimentModel, _count, check_models
from .engine import PolicyParams, set_threshold
from .metrics import PorVector, _RenewalKernel, estimate_por_renewal
from .simulate import seed_entropy

_SUM_EPS = 1e-9


@dataclass(frozen=True)
class CalibrationTarget:
    """Target observation rates keyed by experiment id.

    For non-data-efficient policies the targets must sum to 1; exactly one
    experiment may be omitted and gets the remaining mass. Data-efficient
    policies need every experiment listed, with the strict remainder to 1
    becoming the idle-fraction target.
    """

    gamma: float
    betas: dict[int, float]
    data_efficient: bool = False

    def __post_init__(self) -> None:
        if math.isnan(self.gamma) or self.gamma < 1.0:
            raise ValueError(f"gamma must be >= 1, got {self.gamma}")
        betas = {int(k): float(v) for k, v in self.betas.items()}
        object.__setattr__(self, "betas", betas)
        for k, v in betas.items():
            if k < 1:
                raise ValueError(f"beta keys are experiment ids >= 1, got {k}")
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"beta_{k} must be in [0, 1], got {v}")


@dataclass(frozen=True)
class CalibrationConfig:
    tolerance: float = 0.02
    search_cycles: int = 50_000
    final_cycles: int = 200_000
    max_evaluations: int = 300
    budget_cap: float = 4096.0
    scale_cap: float = 1e5
    mu: float = 0.1
    initial_scale: float = 1.0

    def __post_init__(self) -> None:
        # a bad setting fails here, not as a search that did not converge
        for name in ("tolerance", "budget_cap", "initial_scale", "mu"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        for name, low in (("search_cycles", 100), ("final_cycles", 100), ("max_evaluations", 1)):
            object.__setattr__(self, name, _count(name, getattr(self, name), low))
        if not (math.isfinite(self.scale_cap) and self.scale_cap >= self.initial_scale):
            raise ValueError(f"scale_cap must be finite and >= initial_scale, got {self.scale_cap}")


@dataclass(frozen=True)
class SearchPass:
    """One search pass: level j at the budget cap under these scales, its rate
    over the top rate there, and the budget solved (None: the scale escalated)."""

    level: int
    scales: dict[int, float]
    cap_ratio: float
    budget: float | None


@dataclass(frozen=True)
class CalibrationResult:
    params: PolicyParams
    achieved: PorVector
    residuals: dict[int, float]  # achieved minus target, key 0 = idle fraction
    evaluations: int  # search passes run
    converged: bool
    passes: tuple[SearchPass, ...]


def _resolve_betas(target: CalibrationTarget, m: int) -> dict[int, float]:
    """Full target vector over ids 1..m (plus 0 for the idle fraction if DE)."""
    betas = dict(target.betas)
    unknown = set(betas) - set(range(1, m + 1))
    if unknown:
        raise ValueError(f"beta targets name unknown experiments: {sorted(unknown)}")
    if m not in betas:
        raise ValueError(f"a target for the top experiment beta_{m} is required")
    if betas[m] <= 0.0:
        raise ValueError(f"beta_{m} must be strictly positive, got {betas[m]}")
    total = sum(betas.values())
    if total > 1.0 + _SUM_EPS:
        raise ValueError(f"beta targets sum to {total:.6g} > 1: infeasible")
    missing = [i for i in range(1, m + 1) if i not in betas]
    if target.data_efficient:
        if missing:
            raise ValueError(
                f"data-efficient targets need every experiment: missing {missing}"
            )
        if total >= 1.0 - _SUM_EPS:
            raise ValueError(
                "data-efficient targets must sum to strictly less than 1 "
                f"(the remainder is the idle fraction), got {total:.6g}"
            )
        betas[0] = 1.0 - total
    else:
        if len(missing) > 1:
            raise ValueError(
                f"at most one experiment may be left implicit, missing {missing}"
            )
        if len(missing) == 1:
            betas[missing[0]] = 1.0 - total
        elif abs(total - 1.0) > _SUM_EPS:
            raise ValueError(
                f"observation rates sum to 1, so the targets must too; got {total:.6g}"
            )
    # A zero target blocks every level below it from ever opening.
    blocked = False
    for j in range(m - 1, 0, -1):
        if blocked and betas[j] > 0.0:
            raise ValueError(
                f"beta_{j} > 0 is unreachable below a zero target at a higher level"
            )
        if betas[j] == 0.0:
            blocked = True
    if target.data_efficient and betas[1] == 0.0:
        raise ValueError(
            "data-efficient targets need beta_1 > 0: the idle phase opens below level 1"
        )
    return betas


def _budget_root(visits: Sequence[int], goal: float) -> float:
    """The least b with G(b) = sum of min(b, tau) = goal, for 0 < goal <= G(cap).
    G is the expected level time at budget b (tau is an integer, b resolves to
    its floor or ceiling with mean b) and linear between the sorted taus."""
    tau = sorted(visits)
    below = 0  # the sum of the taus before tau[k]
    for k, t in enumerate(tau):
        if below + t * (len(tau) - k) >= goal:
            break
        below += t
    return (goal - below) / (len(tau) - k)


def calibrate(
    target: CalibrationTarget,
    models: Sequence[ExperimentModel],
    config: CalibrationConfig | None = None,
    base_seed: int | Sequence[int] = 0,
) -> CalibrationResult:
    """Find budgets (and, when needed, scales) meeting the rate targets.

    Solves the levels from the top down, each from one recorded pass of
    `search_cycles` cycles at `budget_cap` (plus one per scale escalation) and
    the exact root on it; `evaluations` counts the passes and `passes` logs
    them. The result is re-evaluated on a fresh run of `final_cycles`.
    Non-convergence is reported through the converged flag and residuals,
    not an exception.
    """
    if config is None:
        config = CalibrationConfig()
    check_models(models)
    m = len(models)
    de = target.data_efficient
    betas = _resolve_betas(target, m)
    threshold = set_threshold(target.gamma)
    lowest = 0 if de else 1
    scales = {i: config.initial_scale for i in range(lowest + 1, m + 1)}
    budgets = {j: 0.0 for j in range(lowest, m)}

    passes: list[SearchPass] = []
    search_seed = seed_entropy(base_seed) + (11,)
    final_seed = seed_entropy(base_seed) + (99,)

    # each pass and the result copy the scales and budgets found so far into this
    start = PolicyParams(m=m, A=threshold, scales=scales, budgets=budgets,
                         mu=config.mu if de else None, data_efficient=de)

    ran_out = False
    for j in range(m - 1, lowest - 1, -1):
        want = betas[j] / betas[m]
        while want > 0.0 and not ran_out:
            ran_out = len(passes) == config.max_evaluations
            if ran_out:
                break
            at_cap = replace(start, scales=scales, budgets={**budgets, j: config.budget_cap})
            kernel = _RenewalKernel(at_cap, models, search_seed, j)
            top = sum(kernel.run(config.search_cycles)[m::m + 1])
            visits = memoryview(kernel.visits).cast("q")
            reach = sum(visits)
            budget = (min(_budget_root(visits, want * top), config.budget_cap)
                      if reach >= want * top else None)
            passes.append(SearchPass(j, dict(scales), reach / top, budget))
            if budget is not None:
                budgets[j] = budget
                break
            # even the cap falls short: escalate the scale feeding level j
            ran_out = scales[j + 1] * 10.0 > config.scale_cap
            if ran_out:
                budgets[j] = config.budget_cap
            else:
                scales[j + 1] *= 10.0

    params = replace(start, scales=scales, budgets=budgets)
    achieved = estimate_por_renewal(params, models, config.final_cycles, final_seed)
    residuals = {k: achieved[k].mean - betas[k] for k in achieved.components}
    converged = not ran_out and all(abs(r) <= config.tolerance for r in residuals.values())
    return CalibrationResult(params, achieved, residuals, len(passes), converged, tuple(passes))
