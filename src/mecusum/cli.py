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
import json
import math
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, fields, replace
from typing import Sequence

from .calibrate import (
    CalibrationConfig,
    CalibrationTarget,
    calibrate,
    set_threshold,
)
from .densities import DensitySpec, ExperimentModel
from .engine import PolicyParams, RssParams
from .metrics import (
    estimate_arlfa,
    estimate_por_direct,
    estimate_por_renewal,
    estimate_wadd,
    tradeoff_curve,
)
from .simulate import DEFAULT_INFINITE_HORIZON, Scenario, TraceStep, _drive, seed_entropy

VARIANTS = ("cusum", "me-cusum", "de-me-cusum", "rss")

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
    # the simulation section's fields, under their config names
    trials: int
    horizon: int | None
    seed: int
    confidence: float
    por_method: str
    cycles: int
    output_path: str | None
    calibration_target: CalibrationTarget | None
    calibration_config: CalibrationConfig | None
    tradeoff: TradeoffSpec | None


# Each config object is read by a table of (field, reader, default) rows. A
# reader takes a JSON value and its path in the config, and returns the
# parsed value or raises ValueError. A default is a JSON value for the
# reader, _REQUIRED, or None for a field that may be left out or set to null.
_REQUIRED = object()


def _reader(kind: str, accepts, convert=None):
    """Reader for a JSON scalar: accepts tests the value, convert parses it."""

    def read(value, path: str):
        if not accepts(value):
            raise ValueError(f"{path} must be {kind}, got {value!r}")
        return value if convert is None else convert(value)

    return read


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _choice(*options: str):
    return _reader(f"one of {options}", lambda v: v in options)


_number = _reader("a number", _is_number, float)
_integer = _reader("an integer",
                   lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()), int)
_string = _reader("a string", lambda v: isinstance(v, str))
_boolean = _reader("true or false", lambda v: isinstance(v, bool))
_json_object = _reader("an object", lambda v: isinstance(v, dict))
_number_or_inf = _reader(
    "a number or 'inf'",
    lambda v: _is_number(v) or (isinstance(v, str) and v.lower() in ("inf", "infinity")),
    float,
)


def _index_map(value, path: str) -> dict[int, float]:
    """An object from integer indices (JSON keys are strings) to numbers."""
    out = {}
    for key, item in _json_object(value, path).items():
        # only the plain form, so that "01" or "0_1" cannot alias key "1"
        if not (str(key).isdecimal() and str(int(key)) == str(key)):
            raise ValueError(f"{path} must be keyed by integer indices, got {key!r}")
        out[int(key)] = _number(item, f"{path}.{key}")
    return out


def _list_of(read):
    def read_list(value, path: str) -> tuple:
        if not isinstance(value, list):
            raise ValueError(f"{path} must be a list, got {value!r}")
        return tuple(read(item, f"{path}[{i}]") for i, item in enumerate(value))

    return read_list


def _read(data, table, path: str) -> dict:
    """The fields of one config object: defaults filled in, unknown fields
    and wrong JSON types rejected."""
    where = path or "the config"
    unknown = set(_json_object(data, where)) - {name for name, _, _ in table}
    if unknown:
        raise ValueError(f"unknown fields in {where}: {sorted(unknown)}")
    out = {}
    for name, read, default in table:
        value = data.get(name, default)
        field_path = f"{path}.{name}" if path else name
        if value is _REQUIRED:
            raise ValueError(f"{field_path} is required")
        out[name] = None if value is None and default is None else read(value, field_path)
    return out


def _object(make, table):
    """Reader for a JSON object laid out by table; make builds the result
    from its fields."""
    return lambda value, path: make(**_read(value, table, path))


_READERS = {"str": _string, "int": _integer, "float": _number, "bool": _boolean,
            "dict[int, float]": _index_map}


def _dataclass_table(cls) -> tuple:
    """Rows for the fields of a library dataclass, typed by its annotations
    and defaulted by its defaults, so that neither is written twice."""
    return tuple(
        (f.name, _READERS[f.type], _REQUIRED if f.default is MISSING else f.default)
        for f in fields(cls)
    )


_DENSITY = _dataclass_table(DensitySpec)
_MODEL = (
    ("id", _integer, _REQUIRED),
    ("pre", _object(DensitySpec, _DENSITY), _REQUIRED),
    ("post", _object(DensitySpec, _DENSITY), _REQUIRED),
)
_SCENARIO = (
    ("models", _list_of(_object(ExperimentModel, _MODEL)), _REQUIRED),
    ("change_point", _number_or_inf, _REQUIRED),
    ("horizon", _integer, None),
)
# exactly one of A and gamma is given
_ANY_POLICY = (
    ("variant", _choice(*VARIANTS), _REQUIRED),
    ("A", _number, None),
    ("gamma", _number, None),
)
_RSS_POLICY = _ANY_POLICY + (("p_hi", _number, _REQUIRED),)
_LEVEL_POLICY = _ANY_POLICY + (
    ("m", _integer, None),  # the number of scenario models
    ("scales", _index_map, {}),  # a scale left out is 1
    ("budgets", _index_map, {}),
    ("mu", _number, None),
    ("top_truncation", _number, None),
)
# a tradeoff policies entry is a policy plus these; the label defaults to
# the variant and model_ids to every scenario model
_CURVE = (
    ("label", _string, None),
    ("model_ids", _list_of(_integer), None),
)
_SIMULATION = (
    ("trials", _integer, 1000),
    ("horizon", _integer, None),
    ("seed", _integer, 0),
    ("confidence", _number, 0.95),
    ("por_method", _choice("direct", "renewal"), "direct"),
    ("cycles", _integer, 200_000),
)
_OUTPUT = (("path", _string, None),)
# the calibration section holds a CalibrationTarget and a CalibrationConfig
_CALIBRATION_TARGET = _dataclass_table(CalibrationTarget)
_CALIBRATION = _CALIBRATION_TARGET + _dataclass_table(CalibrationConfig)


def _policy_fields(value, path: str, extra: tuple = ()) -> dict:
    """The fields of a policy object, whose variant decides which it may have."""
    rss = isinstance(value, dict) and value.get("variant") == "rss"
    return _read(value, (_RSS_POLICY if rss else _LEVEL_POLICY) + extra, path)


_TRADEOFF = (
    ("gammas", _list_of(_number), _REQUIRED),
    ("policies", _list_of(lambda value, path: _policy_fields(value, path, _CURVE)), None),
)
_CONFIG = (
    ("scenario", _object(Scenario, _SCENARIO), _REQUIRED),
    ("policy", _policy_fields, None),
    ("simulation", _object(dict, _SIMULATION), {}),
    ("output", _object(dict, _OUTPUT), {}),
    ("calibration", _object(dict, _CALIBRATION), None),
    ("tradeoff", _object(dict, _TRADEOFF), None),
)


def _policy(f: dict, n_models: int, path: str) -> tuple[str, PolicyParams | RssParams]:
    variant = f["variant"]
    if (f["A"] is None) == (f["gamma"] is None):
        raise ValueError(f"{path} needs exactly one of 'A' or 'gamma'")
    threshold = set_threshold(f["gamma"]) if f["A"] is None else f["A"]
    if variant == "rss":
        if n_models != 2:
            raise ValueError("the rss variant needs exactly two experiment models")
        return variant, RssParams(A=threshold, p_hi=f["p_hi"])
    m = n_models if f["m"] is None else f["m"]
    if m != n_models:
        raise ValueError(f"{path}.m={m} does not match the {n_models} scenario models")
    if variant == "cusum" and m != 1:
        raise ValueError("the cusum variant runs on exactly one experiment model")
    de = variant == "de-me-cusum"
    scales = f["scales"]
    for i in range(1 if de else 2, m + 1):
        scales.setdefault(i, 1.0)
    params = PolicyParams(
        m=m,
        A=threshold,
        scales=scales,
        budgets=f["budgets"],
        mu=f["mu"],
        data_efficient=de,
        top_truncation=f["top_truncation"],
    )
    return variant, params


def _tradeoff(f: dict, scenario: Scenario, main_variant: str | None,
              main_policy: PolicyParams | RssParams | None) -> TradeoffSpec:
    if f["policies"] is None:
        if main_policy is None:
            raise ValueError("tradeoff needs either a main policy or a policies list")
        return TradeoffSpec(
            f["gammas"], (TradeoffPolicySpec(main_variant, main_variant, main_policy, None),))
    known = {mdl.id for mdl in scenario.models}
    policies = []
    for i, entry in enumerate(f["policies"]):
        path = f"tradeoff.policies[{i}]"
        ids = entry["model_ids"]
        if ids is not None:
            if not set(ids) <= known:
                raise ValueError(f"{path}.model_ids not in the scenario: "
                                 f"{sorted(set(ids) - known)}")
            if len(set(ids)) != len(ids):
                raise ValueError(f"{path}.model_ids repeats an id: {list(ids)}")
        if entry["A"] is None and entry["gamma"] is None:
            entry["A"] = 1.0  # placeholder; the curve re-thresholds per gamma
        variant, params = _policy(entry, len(known if ids is None else ids), path)
        label = variant if entry["label"] is None else entry["label"]
        if not _LABEL.fullmatch(label):
            raise ValueError(f"tradeoff label must match {_LABEL.pattern}, got {label!r}")
        if any(pol.label == label for pol in policies):
            raise ValueError(f"tradeoff label {label!r} is used twice; "
                             "give each policy its own label")
        policies.append(TradeoffPolicySpec(label, variant, params, ids))
    return TradeoffSpec(f["gammas"], tuple(policies))


def parse_config(data: dict) -> RunConfig:
    top = _read(data, _CONFIG, "")
    scenario = top["scenario"]
    variant = policy = None
    if top["policy"] is not None:
        variant, policy = _policy(top["policy"], len(scenario.models), "policy")
    calibration_target = calibration_config = None
    calibration = top["calibration"]
    if calibration is not None:
        calibration_target = CalibrationTarget(
            **{name: calibration.pop(name) for name, _, _ in _CALIBRATION_TARGET})
        calibration_config = CalibrationConfig(**calibration)
    tradeoff = None
    if top["tradeoff"] is not None:
        tradeoff = _tradeoff(top["tradeoff"], scenario, variant, policy)
    return RunConfig(
        scenario=scenario,
        variant=variant,
        policy=policy,
        **top["simulation"],
        output_path=top["output"]["path"],
        calibration_target=calibration_target,
        calibration_config=calibration_config,
        tradeoff=tradeoff,
    )


def _drop_none(section: dict) -> dict:
    return {name: value for name, value in section.items() if value is not None}


def _by_index(values: dict[int, float]) -> dict[str, float]:
    return {str(k): v for k, v in sorted(values.items())}


def _policy_to_dict(variant: str, params: PolicyParams | RssParams) -> dict:
    if isinstance(params, RssParams):
        return {"variant": variant, "A": params.A, "p_hi": params.p_hi}
    return _drop_none({
        "variant": variant,
        "A": params.A,
        "m": params.m,
        "scales": _by_index(params.scales),
        "budgets": _by_index(params.budgets),
        "mu": params.mu,
        "top_truncation": params.top_truncation,
    })


def config_to_dict(cfg: RunConfig) -> dict:
    scenario = cfg.scenario
    target = cfg.calibration_target
    tradeoff = cfg.tradeoff
    return _drop_none({
        "scenario": _drop_none({
            "models": [asdict(mdl) for mdl in scenario.models],
            "change_point": "inf" if math.isinf(scenario.change_point) else scenario.change_point,
            "horizon": scenario.horizon,
        }),
        "policy": None if cfg.policy is None else _policy_to_dict(cfg.variant, cfg.policy),
        "simulation": _drop_none({name: getattr(cfg, name) for name, _, _ in _SIMULATION}),
        "output": None if cfg.output_path is None else {"path": cfg.output_path},
        "calibration": None if target is None else {
            **asdict(target), "betas": _by_index(target.betas),
            **asdict(cfg.calibration_config),
        },
        "tradeoff": None if tradeoff is None else {
            "gammas": list(tradeoff.gammas),
            "policies": [
                _drop_none({
                    **_policy_to_dict(pol.variant, pol.params),
                    "label": pol.label,
                    "model_ids": None if pol.model_ids is None else list(pol.model_ids),
                })
                for pol in tradeoff.policies
            ],
        },
    })


def load_config(path: str) -> RunConfig:
    with open(path, encoding="utf-8") as handle:
        return parse_config(json.load(handle))


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.trials is not None:
        cfg = replace(cfg, trials=args.trials)
    if args.gamma is not None:
        # the override's gamma is checked once, by the target when there is one
        if cfg.calibration_target is not None:
            cfg = replace(cfg, calibration_target=replace(cfg.calibration_target, gamma=args.gamma))
            threshold = cfg.calibration_target.threshold
        else:
            threshold = set_threshold(args.gamma)
        if cfg.policy is not None:
            cfg = replace(cfg, policy=replace(cfg.policy, A=threshold))
    if args.output is not None:
        cfg = replace(cfg, output_path=args.output)
    return cfg


@contextmanager
def _output(path: str | None):
    """The output file at path, opened for writing, or stdout."""
    if path is None:
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8") as handle:
        yield handle


def _write(path: str | None, lines) -> None:
    # line by line, so that a long output is never held as one string
    with _output(path) as out:
        out.writelines(lines)


def _csv(cfg: RunConfig, header: Sequence[str], rows, preamble: str = ""):
    """Lines of CSV text: the config and seed as comments, then the preamble
    (more comment lines), the header and the rows (sequences of cell strings)."""
    blob = json.dumps(config_to_dict(cfg), sort_keys=True)
    yield f"# config: {blob}\n# seed: {cfg.seed}\n{preamble}"
    yield ",".join(header) + "\n"
    for row in rows:
        yield ",".join(row) + "\n"


def _write_result(cfg: RunConfig, payload: dict, header: Sequence[str], rows) -> None:
    """Write a result as CSV to a .csv path, and as JSON to any other path or
    to stdout."""
    path = cfg.output_path
    if path is not None and path.endswith(".csv"):
        _write(path, _csv(cfg, header, rows))
    else:
        _write(path, [json.dumps({"config": config_to_dict(cfg), "seed": cfg.seed, **payload},
                                 sort_keys=True, indent=2) + "\n"])


def _fmt(value: float) -> str:
    return repr(float(value))


def _key_name(key: int) -> str:
    """Output name of a rate key: 0 is the idle fraction."""
    return "idle" if key == 0 else str(key)


def _simulation_horizon(cfg: RunConfig) -> int:
    """simulation.horizon, or the default when the config leaves it out."""
    return DEFAULT_INFINITE_HORIZON if cfg.horizon is None else cfg.horizon


def _episode_scenario(cfg: RunConfig) -> Scenario:
    scenario = cfg.scenario
    if scenario.horizon is None and (cfg.horizon is not None
                                     or math.isinf(scenario.change_point)):
        scenario = replace(scenario, horizon=_simulation_horizon(cfg))
    return scenario


def cmd_trace(cfg: RunConfig) -> int:
    if cfg.policy is None:
        raise ValueError("trace needs a policy section in the config")
    scenario = _episode_scenario(cfg)
    entropy = seed_entropy(cfg.seed)
    header = ("n", "level", "action", "observation", "statistic", "event")

    def write_row(s: TraceStep) -> None:
        action = "idle" if s.action.kind == "idle" else f"sample({s.action.experiment})"
        obs = "" if s.observation is None else _fmt(s.observation)
        out.write(f"{s.n},{s.level},{action},{obs},{_fmt(s.statistic)},{s.event}\n")

    # each row is written when the episode takes its step, so a long trace
    # is never held in memory
    with _output(cfg.output_path) as out:
        out.writelines(_csv(cfg, header, ()))
        _drive(cfg.policy, scenario, entropy, write_row)
    return 0


def _estimate_row(result: dict) -> tuple[list[str], list[str]]:
    """Header and cells of an estimate's fields, its interval split into
    ci_low and ci_high."""
    header, cells = [], []
    for name, value in result.items():
        if name == "ci":
            header += ["ci_low", "ci_high"]
            cells += [_fmt(bound) for bound in value]
        else:
            header.append(name)
            cells.append(str(value) if isinstance(value, int) else _fmt(value))
    return header, cells


def cmd_evaluate(cfg: RunConfig, metric: str, strict: bool) -> int:
    if cfg.policy is None:
        raise ValueError("evaluate needs a policy section in the config")
    models = cfg.scenario.models
    if metric in ("arlfa", "wadd"):
        estimate = estimate_arlfa if metric == "arlfa" else estimate_wadd
        est = estimate(cfg.policy, models, cfg.trials, cfg.seed, confidence=cfg.confidence)
        result = asdict(est)
        header, cells = _estimate_row(result)
        _write_result(cfg, {"metric": metric, "result": result}, header, [cells])
        return 2 if strict and est.horizon_hits else 0
    if metric != "por":
        raise ValueError(f"unknown metric {metric!r}")
    if cfg.por_method == "renewal":
        por = estimate_por_renewal(cfg.policy, models, cfg.cycles, cfg.seed,
                                   confidence=cfg.confidence)
    else:
        por = estimate_por_direct(cfg.policy, models, _simulation_horizon(cfg), cfg.trials,
                                  cfg.seed, confidence=cfg.confidence)
    components = sorted(por.components.items())
    payload = {
        "metric": "por",
        "method": cfg.por_method,
        "result": {_key_name(k): asdict(est) for k, est in components},
    }
    rows = [(_key_name(k), _fmt(est.mean), _fmt(est.std_error)) for k, est in components]
    _write_result(cfg, payload, ("experiment", "por", "por_se"), rows)
    return 0


def cmd_calibrate(cfg: RunConfig) -> int:
    if cfg.calibration_target is None:
        raise ValueError("calibrate needs a calibration section in the config")
    result = calibrate(cfg.calibration_target, cfg.scenario.models,
                       cfg.calibration_config, cfg.seed)
    params = result.params
    betas = cfg.calibration_target.betas
    achieved = sorted(result.achieved.components.items())
    columns = (
        [(f"target_beta_{i}", betas.get(i, math.nan)) for i in range(1, params.m + 1)]
        + [(f"a_{i}", value) for i, value in sorted(params.scales.items())]
        + [(f"N_{j}", value) for j, value in sorted(params.budgets.items())]
        + [(f"achieved_por_{_key_name(k)}", est.mean) for k, est in achieved]
    )
    payload = {
        "calibration": {
            "converged": result.converged,
            "evaluations": result.evaluations,
            "passes": [asdict(p) for p in result.passes],
            "params": _policy_to_dict(
                "de-me-cusum" if params.data_efficient else "me-cusum", params),
            "achieved": {_key_name(k): asdict(est) for k, est in achieved},
            "residuals": {_key_name(k): v for k, v in sorted(result.residuals.items())},
        }
    }
    _write_result(cfg, payload, [name for name, _ in columns],
                  [[_fmt(value) for _, value in columns]])
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
        rows = [[_fmt(pt.gamma), _fmt(pt.log_arlfa), _fmt(pt.wadd), _fmt(pt.wadd_se)]
                for pt in points]
        outputs.append((pol.label, _csv(cfg, ("gamma", "log_arlfa", "wadd", "wadd_se"), rows,
                                        f"# policy: {pol.label}\n")))
    for label, lines in outputs:
        path = cfg.output_path
        if path is not None and len(outputs) > 1:
            stem, ext = os.path.splitext(path)
            path = f"{stem}-{label}{ext or '.csv'}"
        _write(path, lines)
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
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
