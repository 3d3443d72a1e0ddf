"""Config-driven command line: trace, evaluate, calibrate, tradeoff.

One JSON config file describes the scenario, the policy, and the simulation
budget; flags override the seed, the trial count, and the false-alarm target.
Every output artifact embeds the fully resolved config and seed so a result
file is reproducible on its own. Exit codes: 0 success, 1 validation error,
2 quality warnings promoted by --strict or a calibration that did not
converge.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import re
import sys
from dataclasses import dataclass, replace
from typing import Sequence, TextIO

from .calibrate import (
    CalibrationConfig,
    CalibrationTarget,
    calibrate,
    set_threshold,
)
from .densities import model_from_dict, model_to_dict
from .engine import PolicyParams, RssParams
from .metrics import (
    estimate_arlfa,
    estimate_por_direct,
    estimate_por_renewal,
    estimate_wadd,
    tradeoff_curve,
)
from .simulate import DEFAULT_INFINITE_HORIZON, Scenario, run_episode

VARIANTS = ("cusum", "me-cusum", "de-me-cusum", "rss")

_POLICY_FIELDS = {"variant", "A", "gamma", "m", "scales", "budgets", "mu", "top_truncation"}
_RSS_FIELDS = {"variant", "A", "gamma", "p_hi"}

# tradeoff labels become part of output file names
_LABEL = re.compile(r"[A-Za-z0-9._-]+")


@dataclass(frozen=True)
class TradeoffPolicySpec:
    label: str
    variant: str
    params: PolicyParams | RssParams
    model_ids: tuple[int, ...] | None


@dataclass(frozen=True)
class TradeoffSpec:
    gammas: tuple[float, ...]
    policies: tuple[TradeoffPolicySpec, ...]


@dataclass(frozen=True)
class RunConfig:
    scenario: Scenario
    variant: str | None
    policy: PolicyParams | RssParams | None
    trials: int
    seed: int
    confidence: float
    sim_horizon: int | None
    por_method: str
    cycles: int
    output_path: str | None
    calibration_target: CalibrationTarget | None
    calibration_config: CalibrationConfig | None
    tradeoff: TradeoffSpec | None


def _reject_unknown(data: dict, allowed, where: str) -> None:
    extra = set(data) - set(allowed)
    if extra:
        raise ValueError(f"unknown {where} fields: {sorted(extra)}")


def _require(data: dict, key: str, where: str):
    if key not in data:
        raise ValueError(f"{where} is missing required field {key!r}")
    return data[key]


def _change_point_from(value) -> float:
    if isinstance(value, str):
        if value.lower() in ("inf", "infinity"):
            return math.inf
        raise ValueError(f"change_point string must be 'inf', got {value!r}")
    return float(value)


def _change_point_to(value) -> object:
    return "inf" if math.isinf(value) else int(value)


def _scenario_from_dict(data: dict) -> Scenario:
    _reject_unknown(data, {"models", "change_point", "horizon"}, "scenario")
    models = tuple(model_from_dict(m) for m in _require(data, "models", "scenario"))
    change_point = _change_point_from(_require(data, "change_point", "scenario"))
    horizon = data.get("horizon")
    return Scenario(models, change_point, None if horizon is None else int(horizon))


def _scenario_to_dict(scenario: Scenario) -> dict:
    out = {
        "models": [model_to_dict(m) for m in scenario.models],
        "change_point": _change_point_to(scenario.change_point),
    }
    if scenario.horizon is not None:
        out["horizon"] = scenario.horizon
    return out


def _threshold_from(data: dict, where: str) -> float:
    has_a = "A" in data
    has_gamma = "gamma" in data
    if has_a == has_gamma:
        raise ValueError(f"{where} needs exactly one of 'A' or 'gamma'")
    if has_a:
        return float(data["A"])
    return set_threshold(float(data["gamma"]))


def _int_key_map(data: dict, where: str) -> dict[int, float]:
    try:
        return {int(k): float(v) for k, v in data.items()}
    except (TypeError, ValueError):
        raise ValueError(f"{where} must map integer indices to numbers, got {data!r}") from None


def _policy_from_dict(data: dict, n_models: int) -> tuple[str, PolicyParams | RssParams]:
    variant = _require(data, "variant", "policy")
    if variant not in VARIANTS:
        raise ValueError(f"policy variant must be one of {VARIANTS}, got {variant!r}")
    _reject_unknown(data, _RSS_FIELDS if variant == "rss" else _POLICY_FIELDS,
                    f"{variant} policy")
    threshold = _threshold_from(data, "policy")
    if variant == "rss":
        if n_models != 2:
            raise ValueError("the rss variant needs exactly two experiment models")
        return variant, RssParams(A=threshold, p_hi=float(_require(data, "p_hi", "rss policy")))
    de = variant == "de-me-cusum"
    m = int(data.get("m", n_models))
    if m != n_models:
        raise ValueError(f"policy m={m} does not match the {n_models} scenario models")
    if variant == "cusum" and m != 1:
        raise ValueError("the cusum variant runs on exactly one experiment model")
    scales = _int_key_map(data.get("scales", {}), "policy scales")
    for i in range(2, m + 1):
        scales.setdefault(i, 1.0)
    if de:
        scales.setdefault(1, 1.0)
    budgets = _int_key_map(data.get("budgets", {}), "policy budgets")
    mu = data.get("mu")
    top = data.get("top_truncation")
    params = PolicyParams(
        m=m,
        A=threshold,
        scales=scales,
        budgets=budgets,
        mu=None if mu is None else float(mu),
        data_efficient=de,
        top_truncation=None if top is None else float(top),
    )
    return variant, params


def _policy_to_dict(variant: str, params: PolicyParams | RssParams) -> dict:
    if isinstance(params, RssParams):
        return {"variant": variant, "A": params.A, "p_hi": params.p_hi}
    out = {
        "variant": variant,
        "A": params.A,
        "m": params.m,
        "scales": {str(k): v for k, v in sorted(params.scales.items())},
        "budgets": {str(k): v for k, v in sorted(params.budgets.items())},
    }
    if params.mu is not None:
        out["mu"] = params.mu
    if params.top_truncation is not None:
        out["top_truncation"] = params.top_truncation
    return out


_CALIB_FIELDS = (
    "tolerance", "search_cycles", "final_cycles", "max_evaluations",
    "budget_cap", "scale_cap", "mu", "initial_scale",
)


def _calibration_from_dict(data: dict) -> tuple[CalibrationTarget, CalibrationConfig]:
    target = CalibrationTarget(
        gamma=float(_require(data, "gamma", "calibration")),
        betas=_int_key_map(_require(data, "betas", "calibration"), "calibration betas"),
        data_efficient=bool(data.get("data_efficient", False)),
    )
    kwargs = {}
    for name in _CALIB_FIELDS:
        if name in data:
            value = data[name]
            kwargs[name] = int(value) if name.endswith(("cycles", "evaluations")) else float(value)
    _reject_unknown(data, {*_CALIB_FIELDS, "gamma", "betas", "data_efficient"}, "calibration")
    return target, CalibrationConfig(**kwargs)


def _calibration_to_dict(target: CalibrationTarget, config: CalibrationConfig) -> dict:
    out = {
        "gamma": target.gamma,
        "betas": {str(k): v for k, v in sorted(target.betas.items())},
        "data_efficient": target.data_efficient,
    }
    for name in _CALIB_FIELDS:
        out[name] = getattr(config, name)
    return out


def _tradeoff_from_dict(data: dict, cfg_variant: str | None,
                        cfg_policy, n_models: int) -> TradeoffSpec:
    _reject_unknown(data, {"gammas", "policies"}, "tradeoff")
    gammas = tuple(float(g) for g in _require(data, "gammas", "tradeoff"))
    raw_policies = data.get("policies")
    policies = []
    if raw_policies is None:
        if cfg_policy is None:
            raise ValueError("tradeoff needs either a main policy or a policies list")
        policies.append(TradeoffPolicySpec(cfg_variant, cfg_variant, cfg_policy, None))
    else:
        for entry in raw_policies:
            ids = entry.get("model_ids")
            n = len(ids) if ids is not None else n_models
            pdata = {k: v for k, v in entry.items() if k not in ("label", "model_ids")}
            if "A" not in pdata and "gamma" not in pdata:
                pdata["A"] = 1.0  # placeholder; the curve re-thresholds per gamma
            variant, params = _policy_from_dict(pdata, n)
            label = entry.get("label", variant)
            if not (isinstance(label, str) and _LABEL.fullmatch(label)):
                raise ValueError(
                    f"tradeoff label must match {_LABEL.pattern}, got {label!r}")
            if any(pol.label == label for pol in policies):
                raise ValueError(f"tradeoff label {label!r} is used twice; "
                                 "give each policy its own label")
            policies.append(
                TradeoffPolicySpec(label, variant, params,
                                   None if ids is None else tuple(int(i) for i in ids))
            )
    return TradeoffSpec(gammas, tuple(policies))


def _tradeoff_to_dict(spec: TradeoffSpec) -> dict:
    entries = []
    for pol in spec.policies:
        entry = _policy_to_dict(pol.variant, pol.params)
        entry["label"] = pol.label
        if pol.model_ids is not None:
            entry["model_ids"] = list(pol.model_ids)
        entries.append(entry)
    return {"gammas": list(spec.gammas), "policies": entries}


def parse_config(data: dict) -> RunConfig:
    _reject_unknown(data, {"scenario", "policy", "simulation", "output", "calibration",
                           "tradeoff"}, "top-level config")
    scenario = _scenario_from_dict(_require(data, "scenario", "config"))
    variant = None
    policy = None
    if "policy" in data and data["policy"] is not None:
        variant, policy = _policy_from_dict(data["policy"], len(scenario.models))
    sim = data.get("simulation", {})
    _reject_unknown(sim, {"trials", "horizon", "seed", "confidence", "por_method", "cycles"},
                    "simulation")
    por_method = sim.get("por_method", "direct")
    if por_method not in ("direct", "renewal"):
        raise ValueError(f"por_method must be 'direct' or 'renewal', got {por_method!r}")
    out = data.get("output", {})
    _reject_unknown(out, {"path"}, "output")
    calibration_target = None
    calibration_config = None
    if "calibration" in data and data["calibration"] is not None:
        calibration_target, calibration_config = _calibration_from_dict(data["calibration"])
    tradeoff = None
    if "tradeoff" in data and data["tradeoff"] is not None:
        tradeoff = _tradeoff_from_dict(data["tradeoff"], variant, policy, len(scenario.models))
    horizon = sim.get("horizon")
    return RunConfig(
        scenario=scenario,
        variant=variant,
        policy=policy,
        trials=int(sim.get("trials", 1000)),
        seed=int(sim.get("seed", 0)),
        confidence=float(sim.get("confidence", 0.95)),
        sim_horizon=None if horizon is None else int(horizon),
        por_method=por_method,
        cycles=int(sim.get("cycles", 200_000)),
        output_path=out.get("path"),
        calibration_target=calibration_target,
        calibration_config=calibration_config,
        tradeoff=tradeoff,
    )


def config_to_dict(cfg: RunConfig) -> dict:
    data: dict = {"scenario": _scenario_to_dict(cfg.scenario)}
    if cfg.policy is not None:
        data["policy"] = _policy_to_dict(cfg.variant, cfg.policy)
    sim = {
        "trials": cfg.trials,
        "seed": cfg.seed,
        "confidence": cfg.confidence,
        "por_method": cfg.por_method,
        "cycles": cfg.cycles,
    }
    if cfg.sim_horizon is not None:
        sim["horizon"] = cfg.sim_horizon
    data["simulation"] = sim
    if cfg.output_path is not None:
        data["output"] = {"path": cfg.output_path}
    if cfg.calibration_target is not None:
        data["calibration"] = _calibration_to_dict(cfg.calibration_target, cfg.calibration_config)
    if cfg.tradeoff is not None:
        data["tradeoff"] = _tradeoff_to_dict(cfg.tradeoff)
    return data


def load_config(path: str) -> RunConfig:
    with open(path, encoding="utf-8") as handle:
        return parse_config(json.load(handle))


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "trials", None) is not None:
        cfg = replace(cfg, trials=args.trials)
    if getattr(args, "gamma", None) is not None:
        threshold = set_threshold(args.gamma)
        if cfg.policy is not None:
            cfg = replace(cfg, policy=replace(cfg.policy, A=threshold))
        if cfg.calibration_target is not None:
            cfg = replace(cfg, calibration_target=replace(cfg.calibration_target, gamma=args.gamma))
    if getattr(args, "output", None) is not None:
        cfg = replace(cfg, output_path=args.output)
    return cfg


def _config_comment(cfg: RunConfig) -> str:
    blob = json.dumps(config_to_dict(cfg), sort_keys=True)
    return f"# config: {blob}\n# seed: {cfg.seed}\n"


def _open_output(cfg: RunConfig):
    if cfg.output_path is None:
        return sys.stdout, False
    return open(cfg.output_path, "w", encoding="utf-8"), True


def _emit(cfg: RunConfig, text: str) -> None:
    handle, close = _open_output(cfg)
    try:
        handle.write(text)
    finally:
        if close:
            handle.close()


def _json_result(cfg: RunConfig, payload: dict) -> str:
    return json.dumps({"config": config_to_dict(cfg), "seed": cfg.seed, **payload},
                      sort_keys=True, indent=2) + "\n"


def _fmt(value: float) -> str:
    return repr(float(value))


def _episode_scenario(cfg: RunConfig) -> Scenario:
    scenario = cfg.scenario
    if scenario.horizon is None:
        if math.isinf(scenario.change_point):
            horizon = cfg.sim_horizon or DEFAULT_INFINITE_HORIZON
            scenario = replace(scenario, horizon=horizon)
        elif cfg.sim_horizon is not None:
            scenario = replace(scenario, horizon=cfg.sim_horizon)
    return scenario


def cmd_trace(cfg: RunConfig) -> int:
    if cfg.policy is None:
        raise ValueError("trace needs a policy section in the config")
    trace = run_episode(cfg.policy, _episode_scenario(cfg), cfg.seed)
    buf = io.StringIO()
    buf.write(_config_comment(cfg))
    buf.write("n,level,action,observation,statistic,event\n")
    for s in trace.steps:
        action = "idle" if s.action.kind == "idle" else f"sample({s.action.experiment})"
        obs = "" if s.observation is None else _fmt(s.observation)
        buf.write(f"{s.n},{s.level},{action},{obs},{_fmt(s.statistic)},{s.event}\n")
    _emit(cfg, buf.getvalue())
    return 0


def _metric_payload(est) -> dict:
    out = {
        "mean": est.mean,
        "std_error": est.std_error,
        "trials": est.trials,
        "ci": list(est.ci),
        "confidence": est.confidence,
        "horizon_hits": est.horizon_hits,
    }
    if hasattr(est, "penalty"):
        out["sim_mean"] = est.sim_mean
        out["penalty"] = est.penalty
    return out


def cmd_evaluate(cfg: RunConfig, metric: str, strict: bool) -> int:
    if cfg.policy is None:
        raise ValueError("evaluate needs a policy section in the config")
    models = cfg.scenario.models
    rc = 0
    if metric == "arlfa":
        est = estimate_arlfa(cfg.policy, models, cfg.trials, cfg.seed,
                             confidence=cfg.confidence)
        if est.horizon_hits and strict:
            rc = 2
        _emit(cfg, _json_result(cfg, {"metric": "arlfa", "result": _metric_payload(est)}))
    elif metric == "wadd":
        est = estimate_wadd(cfg.policy, models, cfg.trials, cfg.seed,
                            confidence=cfg.confidence)
        if est.horizon_hits and strict:
            rc = 2
        _emit(cfg, _json_result(cfg, {"metric": "wadd", "result": _metric_payload(est)}))
    elif metric == "por":
        if cfg.por_method == "renewal":
            por = estimate_por_renewal(cfg.policy, models, cfg.cycles, cfg.seed,
                                       confidence=cfg.confidence)
        else:
            horizon = cfg.sim_horizon or DEFAULT_INFINITE_HORIZON
            por = estimate_por_direct(cfg.policy, models, horizon, cfg.trials, cfg.seed,
                                      confidence=cfg.confidence)
        if cfg.output_path is not None and cfg.output_path.endswith(".csv"):
            buf = io.StringIO()
            buf.write(_config_comment(cfg))
            buf.write("experiment,por,por_se\n")
            for key in sorted(por.components):
                name = "idle" if key == 0 else str(key)
                est = por[key]
                buf.write(f"{name},{_fmt(est.mean)},{_fmt(est.std_error)}\n")
            _emit(cfg, buf.getvalue())
        else:
            payload = {
                "metric": "por",
                "method": cfg.por_method,
                "result": {("idle" if k == 0 else str(k)): _metric_payload(v)
                           for k, v in sorted(por.components.items())},
            }
            _emit(cfg, _json_result(cfg, payload))
    else:
        raise ValueError(f"unknown metric {metric!r}")
    return rc


def cmd_calibrate(cfg: RunConfig) -> int:
    if cfg.calibration_target is None:
        raise ValueError("calibrate needs a calibration section in the config")
    result = calibrate(cfg.calibration_target, cfg.scenario.models,
                       cfg.calibration_config, cfg.seed)
    params = result.params
    m = params.m
    betas = cfg.calibration_target.betas
    if cfg.output_path is not None and cfg.output_path.endswith(".csv"):
        header = []
        values = []
        for i in range(1, m + 1):
            header.append(f"target_beta_{i}")
            values.append(_fmt(betas.get(i, math.nan)))
        for i in sorted(params.scales):
            header.append(f"a_{i}")
            values.append(_fmt(params.scales[i]))
        for j in sorted(params.budgets):
            header.append(f"N_{j}")
            values.append(_fmt(params.budgets[j]))
        for key in sorted(result.achieved.components):
            header.append("achieved_por_idle" if key == 0 else f"achieved_por_{key}")
            values.append(_fmt(result.achieved[key].mean))
        buf = io.StringIO()
        buf.write(_config_comment(cfg))
        buf.write(",".join(header) + "\n")
        buf.write(",".join(values) + "\n")
        _emit(cfg, buf.getvalue())
    else:
        payload = {
            "calibration": {
                "converged": result.converged,
                "evaluations": result.evaluations,
                "params": _policy_to_dict(
                    "de-me-cusum" if params.data_efficient else "me-cusum", params),
                "achieved": {("idle" if k == 0 else str(k)): _metric_payload(v)
                             for k, v in sorted(result.achieved.components.items())},
                "residuals": {("idle" if k == 0 else str(k)): v
                              for k, v in sorted(result.residuals.items())},
            }
        }
        _emit(cfg, _json_result(cfg, payload))
    if not result.converged:
        print("calibration did not converge; residuals: "
              + json.dumps({str(k): round(v, 5) for k, v in sorted(result.residuals.items())}),
              file=sys.stderr)
        return 2
    return 0


def _subset_models(models, ids: tuple[int, ...] | None):
    if ids is None:
        return models
    by_id = {m.id: m for m in models}
    missing = [i for i in ids if i not in by_id]
    if missing:
        raise ValueError(f"tradeoff model_ids not in scenario: {missing}")
    return tuple(replace(by_id[i], id=k + 1) for k, i in enumerate(sorted(ids)))


def cmd_tradeoff(cfg: RunConfig) -> int:
    if cfg.tradeoff is None:
        raise ValueError("tradeoff needs a tradeoff section in the config")
    spec = cfg.tradeoff
    outputs = []
    for idx, pol in enumerate(spec.policies):
        models = _subset_models(cfg.scenario.models, pol.model_ids)
        points = tradeoff_curve(pol.params, models, spec.gammas, cfg.trials,
                                (cfg.seed, idx), confidence=cfg.confidence)
        buf = io.StringIO()
        buf.write(_config_comment(cfg))
        buf.write(f"# policy: {pol.label}\n")
        buf.write("gamma,log_arlfa,wadd,wadd_se\n")
        for pt in points:
            buf.write(f"{_fmt(pt.gamma)},{_fmt(pt.log_arlfa)},{_fmt(pt.wadd)},{_fmt(pt.wadd_se)}\n")
        outputs.append((pol.label, buf.getvalue()))
    if cfg.output_path is None:
        for _, text in outputs:
            sys.stdout.write(text)
    elif len(outputs) == 1:
        with open(cfg.output_path, "w", encoding="utf-8") as handle:
            handle.write(outputs[0][1])
    else:
        stem, dot, ext = cfg.output_path.rpartition(".")
        if not dot:
            stem, ext = cfg.output_path, "csv"
        for label, text in outputs:
            with open(f"{stem}-{label}.{ext}", "w", encoding="utf-8") as handle:
                handle.write(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mecusum",
        description="Multi-experiment change detection: simulate, evaluate, calibrate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="path to the JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override the simulation seed")
        p.add_argument("--trials", type=int, default=None, help="override the trial count")
        p.add_argument("--gamma", type=float, default=None,
                       help="override the false-alarm target")
        p.add_argument("--output", default=None, help="override the output path")

    p_trace = sub.add_parser("trace", help="write one episode as CSV")
    common(p_trace)

    p_eval = sub.add_parser("evaluate", help="estimate a metric by Monte Carlo")
    p_eval.add_argument("metric", choices=("arlfa", "wadd", "por"))
    p_eval.add_argument("--strict", action="store_true",
                        help="exit 2 when any episode hit the safety horizon")
    common(p_eval)

    p_calib = sub.add_parser("calibrate", help="search parameters for target rates")
    common(p_calib)

    p_curve = sub.add_parser("tradeoff", help="false-alarm/delay curve over a gamma grid")
    common(p_curve)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        if args.command == "trace":
            return cmd_trace(cfg)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, args.metric, args.strict)
        if args.command == "calibrate":
            return cmd_calibrate(cfg)
        if args.command == "tradeoff":
            return cmd_tradeoff(cfg)
        raise ValueError(f"unknown command {args.command!r}")
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
