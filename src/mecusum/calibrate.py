"""Parameter search: hit target observation rates at a given false-alarm level.

The search leans on a decoupling property of the level stack: the time spent
at any level per renewal cycle is unaffected by the budgets and scales of the
levels below it. Budgets are therefore solved one level at a time from the
top down. A level-j visit with budget B takes min(B, tau) observations, tau
being its first passage above its ceiling, so a pass of cycles with level j
at a cap c that records each visit's min(tau, c) gives the level's rate for
every budget up to c: the budget is the exact root of that piecewise-linear
sum. Most budgets are a few steps, while a visit at a large cap may run
thousands, so a level's passes run at caps 16, 256 and then budget_cap (each
clipped to budget_cap) and stop at the first whose rate reaches the target.
When even budget_cap falls short, the scale feeding level j is escalated by
10x and the passes start again at cap 16. The passes run the renewal kernel,
whose streams hand it each observation's LLR increment, scored in numpy a
block at a time; with record = j it appends each level-j visit's steps to
kernel.visits, an array('q') in visit order, which the root reads as it is.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, replace
from typing import Sequence

from .densities import ExperimentModel, _count, _real, check_models
from .engine import PolicyParams, set_threshold
from .metrics import PorVector, estimate_por_renewal
from .simulate import _RenewalKernel, seed_entropy

_SUM_EPS = 1e-9
# the caps of a level's first passes, before budget_cap
_FIRST_CAPS = (16.0, 256.0)


@dataclass(frozen=True)
class CalibrationTarget:
    """Target observation rates keyed by experiment id.

    For non-data-efficient policies the targets must sum to 1; exactly one
    experiment may be omitted and gets the remaining mass. Data-efficient
    policies need every experiment listed, with the strict remainder to 1
    becoming the idle-fraction target.

    threshold, set_threshold(gamma), is checked and kept here, as a plain
    attribute, not a field, so calibrate reads it without a second check.
    """

    gamma: float
    betas: dict[int, float]
    data_efficient: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "threshold", set_threshold(self.gamma))
        if not isinstance(self.data_efficient, bool):
            raise ValueError(f"data_efficient must be a bool, got {self.data_efficient!r}")
        if not isinstance(self.betas, Mapping):
            raise ValueError(f"betas must be a mapping of experiment id to rate, "
                             f"got {self.betas!r}")
        # a key is an experiment id: 2.0 reads as 2, but a bool or 1.5 is not one
        betas = {_count("beta key", k, 1): _real(f"beta_{k}", v) for k, v in self.betas.items()}
        object.__setattr__(self, "betas", betas)
        for k, v in betas.items():
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
    """One search pass: level j run with budget cap under these scales, its
    rate over the top rate at that cap, and the budget solved (None: the cap
    fell short, so the next pass runs at a longer cap or, after budget_cap,
    at an escalated scale). A level's caps are 16, 256 and budget_cap, each
    clipped to budget_cap."""

    level: int
    scales: dict[int, float]
    cap: float
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

    Solves the levels from the top down, each from a recorded pass of
    `search_cycles` renewal cycles and the exact root on it. A level's passes
    run at caps 16, 256 and `budget_cap` (each clipped to `budget_cap`) until
    one reaches the target rate; after a pass at `budget_cap` falls short the
    scale feeding the level is escalated and the caps start again at 16.
    `evaluations` counts the passes, `max_evaluations` caps them, and `passes`
    logs each with its cap. The result is re-evaluated on a fresh run of
    `final_cycles`.
    Non-convergence is reported through the converged flag and residuals,
    not an exception.
    """
    if config is None:
        config = CalibrationConfig()
    check_models(models)
    m = len(models)
    de = target.data_efficient
    betas = _resolve_betas(target, m)
    threshold = target.threshold
    lowest = 0 if de else 1
    scales = {i: config.initial_scale for i in range(lowest + 1, m + 1)}
    budgets = {j: 0.0 for j in range(lowest, m)}

    passes: list[SearchPass] = []
    search_seed = seed_entropy(base_seed) + (11,)
    final_seed = seed_entropy(base_seed) + (99,)

    # each pass and the result copy the scales and budgets found so far into this
    start = PolicyParams(m=m, A=threshold, scales=scales, budgets=budgets,
                         mu=config.mu if de else None, data_efficient=de)

    # each level's passes run at these caps in turn, up to budget_cap
    caps = sorted({min(cap, config.budget_cap) for cap in (*_FIRST_CAPS, config.budget_cap)})
    ran_out = False
    for j in range(m - 1, lowest - 1, -1):
        want = betas[j] / betas[m]
        k = 0  # caps[k] is the next pass's cap
        while want > 0.0 and not ran_out:
            ran_out = len(passes) == config.max_evaluations
            if ran_out:
                break
            cap = caps[k]
            at_cap = replace(start, scales=scales, budgets={**budgets, j: cap})
            kernel = _RenewalKernel(at_cap, models, search_seed, j)
            top = sum(kernel.run(config.search_cycles)[m::m + 1])
            reach = sum(kernel.visits)
            budget = (min(_budget_root(kernel.visits, want * top), cap)
                      if reach >= want * top else None)
            passes.append(SearchPass(j, dict(scales), cap, reach / top, budget))
            if budget is not None:
                budgets[j] = budget
                break
            k += 1
            if k < len(caps):
                continue  # a longer cap may still reach the goal
            # even budget_cap falls short: escalate the scale feeding level j
            # and start again from the shortest cap
            k = 0
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
