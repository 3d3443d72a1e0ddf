"""Multi-experiment change detection with observation-cost control.

A library and CLI for quickest change detection when several experiments of
different informativeness (and cost) are available: the classic single-stream
scheme, the multi-level policies that spend most pre-change time on cheap
experiments, their truncated and data-efficient variants, a random-switching
baseline, Monte Carlo metric estimators, and a calibration search for hitting
target observation rates.
"""

from .calibrate import (
    CalibrationConfig,
    CalibrationResult,
    CalibrationTarget,
    calibrate,
)
from .densities import (
    DensitySpec,
    ExperimentModel,
    OrderingViolation,
    kl_divergence,
    log_likelihood_ratio,
    validate_ordering,
)
from .engine import (
    Action,
    EngineState,
    LevelState,
    PolicyParams,
    RssParams,
    RssRun,
    StepResult,
    init,
    next_action,
    resolve_truncation,
    run_rss,
    set_threshold,
    step,
)
from .metrics import (
    MetricEstimate,
    PorVector,
    TradeoffPoint,
    WaddEstimate,
    estimate_arlfa,
    estimate_por_direct,
    estimate_por_renewal,
    estimate_wadd,
    tradeoff_curve,
    wadd_penalty,
)
from .simulate import (
    EpisodeSummary,
    EpisodeTrace,
    Scenario,
    TraceStep,
    episode_summary,
    run_episode,
)

__version__ = "0.1.0"

__all__ = [
    "Action",
    "CalibrationConfig",
    "CalibrationResult",
    "CalibrationTarget",
    "DensitySpec",
    "EngineState",
    "EpisodeSummary",
    "EpisodeTrace",
    "ExperimentModel",
    "LevelState",
    "MetricEstimate",
    "OrderingViolation",
    "PolicyParams",
    "PorVector",
    "RssParams",
    "RssRun",
    "Scenario",
    "StepResult",
    "TraceStep",
    "TradeoffPoint",
    "WaddEstimate",
    "calibrate",
    "episode_summary",
    "estimate_arlfa",
    "estimate_por_direct",
    "estimate_por_renewal",
    "estimate_wadd",
    "init",
    "kl_divergence",
    "log_likelihood_ratio",
    "next_action",
    "resolve_truncation",
    "run_episode",
    "run_rss",
    "set_threshold",
    "step",
    "tradeoff_curve",
    "validate_ordering",
    "wadd_penalty",
]
