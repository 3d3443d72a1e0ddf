"""Config parsing and the four subcommands, driven through main()."""

from __future__ import annotations

import hashlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecusum import DensitySpec, MetricEstimate, metrics
from mecusum.cli import config_to_dict, main, parse_config


def model_dict(mid, post_mean):
    return {
        "id": mid,
        "pre": {"family": "gaussian", "mean": 0.0, "std": 1.0},
        "post": {"family": "gaussian", "mean": post_mean, "std": 1.0},
    }


def scenario_dict(n_models=2, change_point="inf", horizon=None):
    means = {1: [1.0], 2: [0.75, 1.0], 3: [0.5, 0.75, 1.0]}[n_models]
    out = {
        "models": [model_dict(i + 1, mean) for i, mean in enumerate(means)],
        "change_point": change_point,
    }
    if horizon is not None:
        out["horizon"] = horizon
    return out


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def read_rows(path):
    """CSV rows as lists of strings, skipping the comment header."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return [ln.split(",") for ln in lines]


def test_config_round_trip_is_a_fixed_point():
    data = {
        "scenario": scenario_dict(2, change_point=1),
        "policy": {"variant": "me-cusum", "gamma": 100.0,
                   "scales": {"2": 1.5}, "budgets": {"1": 2.5}},
        "simulation": {"trials": 50, "seed": 9, "cycles": 1000},
        "output": {"path": "out.csv"},
    }
    first = config_to_dict(parse_config(data))
    second = config_to_dict(parse_config(first))
    assert first == second
    assert first["policy"]["A"] == math.log(100.0)
    assert first["scenario"]["change_point"] == 1


def test_config_rejects_unknown_and_inconsistent_fields():
    base = {"scenario": scenario_dict(2), "policy": {
        "variant": "me-cusum", "A": 3.0, "budgets": {"1": 2}}}
    ok = parse_config(base)
    assert ok.policy.scales == {2: 1.0}  # scale defaults fill in
    bad_cases = [
        {**base, "policyy": {}},
        {**base, "simulation": {"threads": 4}},
        {**base, "output": {"path": "x", "mode": "w"}},
        {**base, "scenario": {**scenario_dict(2), "horizn": 5}},
        {**base, "tradeoff": {"gammas": [5.0], "gama": [10.0]}},
        {**base, "tradeoff": {"gammas": [5.0], "policies": [
            {"variant": "cusum", "model_ids": [2], "labl": "single"}]}},
    ]
    for data in bad_cases:
        with pytest.raises(ValueError):
            parse_config(data)
    with pytest.raises(ValueError):
        parse_config({"policy": base["policy"]})  # scenario is required
    for policy in (
        {"variant": "me-cusum", "budgets": {"1": 2}},                 # no threshold
        {"variant": "me-cusum", "A": 3.0, "gamma": 10.0},             # both thresholds
        {"variant": "sprt", "A": 3.0},                                # unknown variant
        {"variant": "me-cusum", "A": 3.0, "m": 3},                    # m vs models
        {"variant": "cusum", "A": 3.0},                               # cusum needs m=1
        {"variant": "me-cusum", "A": 3.0, "budgets": {"one": 2}},     # bad key type
        {"variant": "me-cusum", "A": 3.0, "budgets": {"01": 2, "1": 3}},  # aliased keys
        {"variant": "me-cusum", "A": 3.0, "scale": {"2": 5.0}},       # misspelt scales
        {"variant": "me-cusum", "A": 3.0, "top_trunc": 3},            # misspelt truncation
        {"variant": "rss", "A": 3.0, "p_hi": 0.5, "budgets": {"1": 2}},  # rss has no budgets
    ):
        with pytest.raises(ValueError):
            parse_config({"scenario": scenario_dict(2), "policy": policy})
    with pytest.raises(ValueError):
        parse_config({"scenario": scenario_dict(3),
                      "policy": {"variant": "rss", "A": 3.0, "p_hi": 0.5}})


def test_density_dict_round_trip():
    pre = {"family": "gaussian", "mean": -0.25, "std": 1.5}

    def config(pre):
        post = {"family": "gaussian", "mean": 1.0, "std": 1.5}
        return {"scenario": {"models": [{"id": 1, "pre": pre, "post": post}],
                             "change_point": "inf"}}

    cfg = parse_config(config(pre))
    assert cfg.scenario.models[0].pre == DensitySpec("gaussian", -0.25, 1.5)
    assert config_to_dict(cfg)["scenario"]["models"][0]["pre"] == pre
    with pytest.raises(ValueError):
        parse_config(config({**pre, "skew": 2}))
    with pytest.raises(ValueError):
        parse_config(config({"family": "gaussian", "mean": 0.0}))


def test_model_dict_round_trip(models2):
    data = {"scenario": scenario_dict(2)}
    cfg = parse_config(data)
    assert cfg.scenario.models == models2
    assert config_to_dict(cfg)["scenario"]["models"] == data["scenario"]["models"]
    weighted = {**model_dict(1, 0.75), "weight": 1.0}
    no_post = {"id": 1, "pre": model_dict(1, 0.75)["pre"]}
    for bad in (weighted, no_post):
        with pytest.raises(ValueError):
            parse_config({"scenario": {"models": [bad, model_dict(2, 1.0)],
                                       "change_point": "inf"}})


@st.composite
def integral(draw, lo, hi):
    """An integer, sometimes written as an integral float."""
    value = draw(st.integers(lo, hi))
    return float(value) if draw(st.booleans()) else value


@st.composite
def policy_dicts(draw, n_models, main=True):
    variants = ["me-cusum", "de-me-cusum"]
    variants += ["cusum"] if n_models == 1 else ["rss"] if n_models == 2 else []
    variant = draw(st.sampled_from(variants))
    policy = {"variant": variant}
    threshold = draw(st.sampled_from(["A", "gamma"] if main else ["A", "gamma", None]))
    if threshold is not None:
        policy[threshold] = draw(st.floats(1.5, 1e6))
    if variant == "rss":
        policy["p_hi"] = draw(st.floats(0.0, 1.0))
        return policy
    de = variant == "de-me-cusum"
    if draw(st.booleans()):
        policy["m"] = draw(integral(n_models, n_models))
    policy["scales"] = {str(i): draw(st.floats(0.1, 100.0))
                        for i in range(1 if de else 2, n_models + 1) if draw(st.booleans())}
    policy["budgets"] = {str(j): draw(st.one_of(st.floats(0.0, 10.0), integral(0, 10)))
                         for j in range(0 if de else 1, n_models)}
    if de:
        policy["mu"] = draw(st.floats(0.01, 1.0))
    if draw(st.booleans()):
        policy["top_truncation"] = draw(st.floats(0.0, 100.0))
    return policy


@st.composite
def configs(draw):
    n = draw(st.integers(1, 3))
    shifts = sorted(draw(st.lists(st.floats(0.1, 3.0), min_size=n, max_size=n, unique=True)))
    models = []
    for i, shift in enumerate(shifts):
        mean = draw(st.floats(-2.0, 2.0))
        std = draw(st.floats(0.5, 2.0))
        models.append({"id": draw(integral(i + 1, i + 1)),
                       "pre": {"family": "gaussian", "mean": mean, "std": std},
                       "post": {"family": "gaussian", "mean": mean + shift * std, "std": std}})
    scenario = {"models": models,
                "change_point": draw(st.one_of(st.just("inf"), integral(1, 100)))}
    if draw(st.booleans()):
        scenario["horizon"] = draw(integral(1, 10**6))
    data = {"scenario": scenario}
    if draw(st.booleans()):
        data["policy"] = draw(policy_dicts(n))
    simulation = draw(st.fixed_dictionaries({}, optional={
        "trials": integral(1, 10**4),
        "horizon": integral(1, 10**6),
        "seed": integral(0, 2**32),
        "confidence": st.floats(0.01, 0.99),
        "por_method": st.sampled_from(["direct", "renewal"]),
        "cycles": integral(100, 10**6),
    }))
    if simulation or draw(st.booleans()):
        data["simulation"] = simulation
    if draw(st.booleans()):
        data["output"] = {"path": draw(st.text(min_size=1, max_size=8))}
    if draw(st.booleans()):
        ids = [str(i) for i in range(1, n + 1)]
        data["calibration"] = draw(st.fixed_dictionaries({
            "gamma": st.floats(1.5, 1e6),
            "betas": st.dictionaries(st.sampled_from(ids), st.floats(0.0, 1.0), min_size=1),
        }, optional={
            "data_efficient": st.booleans(),
            "tolerance": st.floats(0.001, 0.1),
            "search_cycles": integral(100, 10**5),
            "max_evaluations": integral(1, 500),
            "budget_cap": st.one_of(st.floats(1.0, 1e4), integral(1, 10**4)),
        }))
    if draw(st.booleans()) or "policy" not in data:
        tradeoff = {"gammas": draw(st.lists(st.floats(1.5, 1e6), min_size=1, max_size=4))}
        if "policy" not in data or draw(st.booleans()):
            entries = []
            for k in range(draw(st.integers(1, 3))):
                if draw(st.booleans()):
                    ids = draw(st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True))
                    entry = draw(policy_dicts(len(ids), main=False))
                    entry["model_ids"] = [draw(integral(i, i)) for i in ids]
                else:
                    entry = draw(policy_dicts(n, main=False))
                if k or draw(st.booleans()):  # one label may default to the variant
                    entry["label"] = f"p{k}"
                entries.append(entry)
            tradeoff["policies"] = entries
        data["tradeoff"] = tradeoff
    return data


@settings(max_examples=300, deadline=None)
@given(configs())
def test_generated_configs_round_trip(data):
    cfg = parse_config(data)
    first = config_to_dict(cfg)
    assert parse_config(first) == cfg
    assert config_to_dict(parse_config(first)) == first
    assert json.loads(json.dumps(first)) == first


def test_trace_writes_deterministic_csv(tmp_path):
    config = {
        "scenario": scenario_dict(2, horizon=400),
        "policy": {"variant": "me-cusum", "gamma": 1e9, "budgets": {"1": 2.5}},
        "simulation": {"seed": 5},
    }
    path = write_config(tmp_path, config)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["trace", "--config", path, "--output", str(out_a)]) == 0
    assert main(["trace", "--config", path, "--output", str(out_b)]) == 0

    def after_comment(p):
        # the config comment embeds the output path, so skip it
        return p.read_text().split("\n", 1)[1]

    assert after_comment(out_a) == after_comment(out_b)
    text = out_a.read_text()
    assert text.startswith("# config: ")
    assert "# seed: 5\n" in text
    rows = read_rows(out_a)
    assert rows[0] == ["n", "level", "action", "observation", "statistic", "event"]
    body = rows[1:]
    assert len(body) == 400
    assert body[0][0] == "1"
    # the informative experiment is sampled exactly while the statistic is
    # at or above zero
    prev_stat = 0.0
    for n, level, action, obs, stat, event in body:
        assert action == f"sample({level})"
        assert level == ("2" if prev_stat >= 0.0 else "1")
        assert obs != ""
        prev_stat = float(stat)
    # a different seed changes the trace
    out_c = tmp_path / "c.csv"
    assert main(["trace", "--config", path, "--seed", "6",
                 "--output", str(out_c)]) == 0
    assert after_comment(out_c) != after_comment(out_a)


def test_trace_data_efficient_idle_rows(tmp_path):
    config = {
        "scenario": scenario_dict(3, horizon=3000),
        "policy": {"variant": "de-me-cusum", "gamma": 1e9,
                   "budgets": {"0": 4, "1": 3, "2": 2}, "mu": 0.1},
        "simulation": {"seed": 2},
    }
    out = tmp_path / "de.csv"
    path = write_config(tmp_path, config)
    assert main(["trace", "--config", path, "--output", str(out)]) == 0
    body = read_rows(out)[1:]
    idle = [row for row in body if row[1] == "0"]
    assert idle
    assert all(row[2] == "idle" and row[3] == "" for row in idle)
    climbs = 0
    for prev, cur in zip(body, body[1:]):
        if prev[1] == "0" and prev[5] == "" and cur[1] == "0" and cur[5] == "":
            assert float(cur[4]) - float(prev[4]) == pytest.approx(0.1, abs=1e-12)
            climbs += 1
    assert climbs > 0


def test_evaluate_arlfa_json(tmp_path):
    config = {
        "scenario": scenario_dict(1),
        "policy": {"variant": "cusum", "gamma": 20.0},
        "simulation": {"trials": 300, "seed": 3},
    }
    out = tmp_path / "arlfa.json"
    path = write_config(tmp_path, config)
    assert main(["evaluate", "arlfa", "--config", path,
                 "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["metric"] == "arlfa"
    assert payload["seed"] == 3
    assert payload["config"]["policy"]["A"] == math.log(20.0)
    result = payload["result"]
    assert result["trials"] == 300
    assert result["horizon_hits"] == 0
    assert result["mean"] - 2.0 * result["std_error"] >= 20.0


def test_evaluate_wadd_includes_penalty(tmp_path):
    config = {
        "scenario": scenario_dict(2, change_point=1),
        "policy": {"variant": "me-cusum", "gamma": 20.0, "budgets": {"1": 2}},
        "simulation": {"trials": 300, "seed": 4},
    }
    out = tmp_path / "wadd.json"
    path = write_config(tmp_path, config)
    assert main(["evaluate", "wadd", "--config", path, "--output", str(out)]) == 0
    result = json.loads(out.read_text())["result"]
    assert result["penalty"] == 2.0
    assert result["mean"] == result["sim_mean"] + 2.0


@pytest.mark.parametrize("metric", ["arlfa", "wadd"])
def test_evaluate_estimate_csv_is_one_row_of_its_fields(tmp_path, metric):
    config = {
        "scenario": scenario_dict(2),
        "policy": {"variant": "me-cusum", "gamma": 20.0, "budgets": {"1": 2}},
        "simulation": {"trials": 50, "seed": 5},
    }
    path = write_config(tmp_path, config)
    out_json = tmp_path / "est.json"
    out_csv = tmp_path / "est.csv"
    for out in (out_json, out_csv):
        assert main(["evaluate", metric, "--config", path, "--output", str(out)]) == 0
    result = json.loads(out_json.read_text())["result"]
    header, row = read_rows(out_csv)
    low, high = result.pop("ci")
    cells = dict(zip(header, row))
    assert (float(cells.pop("ci_low")), float(cells.pop("ci_high"))) == (low, high)
    assert cells == {name: str(value) for name, value in result.items()}
    assert ("penalty" in cells) == (metric == "wadd")


def test_evaluate_strict_promotes_horizon_hits(tmp_path, monkeypatch):
    config = {
        "scenario": scenario_dict(1),
        "policy": {"variant": "cusum", "gamma": 20.0},
        "simulation": {"trials": 10, "seed": 1},
    }
    path = write_config(tmp_path, config)
    cut = MetricEstimate(5.0, 0.0, 10, (5.0, 5.0), 0.95, horizon_hits=3)
    monkeypatch.setattr("mecusum.cli.estimate_arlfa",
                        lambda *args, **kwargs: cut)
    out = tmp_path / "cut.json"
    assert main(["evaluate", "arlfa", "--config", path,
                 "--output", str(out)]) == 0
    assert main(["evaluate", "arlfa", "--strict", "--config", path,
                 "--output", str(out)]) == 2


def test_evaluate_por_csv_direct(tmp_path):
    config = {
        "scenario": scenario_dict(2),
        "policy": {"variant": "de-me-cusum", "gamma": 100.0,
                   "budgets": {"0": 3, "1": 2}, "mu": 0.1},
        "simulation": {"trials": 2, "seed": 6, "horizon": 20_000},
    }
    out = tmp_path / "por.csv"
    path = write_config(tmp_path, config)
    assert main(["evaluate", "por", "--config", path, "--output", str(out)]) == 0
    rows = read_rows(out)
    assert rows[0] == ["experiment", "por", "por_se"]
    names = [row[0] for row in rows[1:]]
    assert names == ["idle", "1", "2"]
    total = sum(float(row[1]) for row in rows[1:])
    assert total == pytest.approx(1.0, abs=1e-9)


def test_evaluate_por_renewal_degenerate_budget(tmp_path):
    config = {
        "scenario": scenario_dict(2),
        "policy": {"variant": "me-cusum", "gamma": 100.0, "budgets": {"1": 0}},
        "simulation": {"seed": 7, "por_method": "renewal", "cycles": 500},
    }
    out = tmp_path / "por0.csv"
    path = write_config(tmp_path, config)
    assert main(["evaluate", "por", "--config", path, "--output", str(out)]) == 0
    rows = read_rows(out)
    assert rows[1] == ["1", "0.0", "0.0"]
    assert rows[2] == ["2", "1.0", "0.0"]


def test_evaluate_por_json_output(tmp_path, capsys):
    config = {
        "scenario": scenario_dict(2),
        "policy": {"variant": "me-cusum", "gamma": 100.0, "budgets": {"1": 2}},
        "simulation": {"seed": 8, "por_method": "renewal", "cycles": 2000},
    }
    path = write_config(tmp_path, config)
    assert main(["evaluate", "por", "--config", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["metric"] == "por"
    assert payload["method"] == "renewal"
    assert set(payload["result"]) == {"1", "2"}


def test_calibrate_json_and_csv(tmp_path):
    config = {
        "scenario": scenario_dict(2),
        "calibration": {"gamma": 1000.0, "betas": {"2": 0.5},
                        "search_cycles": 20_000, "final_cycles": 40_000,
                        "max_evaluations": 200},
        "simulation": {"seed": 9},
    }
    path = write_config(tmp_path, config)
    out_json = tmp_path / "calib.json"
    assert main(["calibrate", "--config", path, "--output", str(out_json)]) == 0
    calib = json.loads(out_json.read_text())["calibration"]
    assert calib["converged"] is True
    assert calib["params"]["variant"] == "me-cusum"
    assert 1.0 <= calib["params"]["budgets"]["1"] <= 3.0
    assert abs(calib["achieved"]["2"]["mean"] - 0.5) <= 0.02
    assert abs(calib["residuals"]["2"]) <= 0.02
    # one search-log record per pass; the seed fixes it, so the file is stable
    assert calib["evaluations"] == len(calib["passes"]) == 1
    (search,) = calib["passes"]
    assert search["level"] == 1 and search["scales"] == {"2": 1.0}
    assert search["budget"] == calib["params"]["budgets"]["1"]
    assert search["cap"] == 16.0 and search["cap_ratio"] >= 1.0
    first = out_json.read_bytes()
    assert main(["calibrate", "--config", path, "--output", str(out_json)]) == 0
    assert out_json.read_bytes() == first

    out_csv = tmp_path / "calib.csv"
    assert main(["calibrate", "--config", path, "--output", str(out_csv)]) == 0
    rows = read_rows(out_csv)
    assert rows[0] == ["target_beta_1", "target_beta_2", "a_2", "N_1",
                       "achieved_por_1", "achieved_por_2"]
    values = dict(zip(rows[0], rows[1]))
    assert float(values["a_2"]) == 1.0
    assert abs(float(values["achieved_por_2"]) - 0.5) <= 0.02


def test_calibrate_non_convergence_exit_code(tmp_path, capsys):
    config = {
        "scenario": scenario_dict(3),
        "calibration": {"gamma": 1000.0,
                        "betas": {"1": 0.2, "2": 0.4, "3": 0.4},
                        "search_cycles": 2000, "final_cycles": 2000,
                        "max_evaluations": 1},
        "simulation": {"seed": 10},
    }
    out = tmp_path / "calib.json"
    path = write_config(tmp_path, config)
    assert main(["calibrate", "--config", path, "--output", str(out)]) == 2
    assert "did not converge" in capsys.readouterr().err
    assert json.loads(out.read_text())["calibration"]["converged"] is False


@pytest.mark.parametrize("field, value", [
    ("tolerance", -0.1),
    ("tolerance", math.nan),
    ("max_evaluations", 0),
    ("budget_cap", 0),
    ("scale_cap", 0.5),
    ("search_cycles", 99),
    ("final_cycles", 10),
    ("initial_scale", 0),
    ("mu", math.inf),
])
def test_calibrate_rejects_bad_settings_before_the_search(tmp_path, capsys, field, value):
    # a bad setting is a config error (exit 1), not a search that did not
    # converge (exit 2)
    config = {
        "scenario": scenario_dict(2),
        "calibration": {"gamma": 1000.0, "betas": {"2": 0.5},
                        "search_cycles": 2000, "final_cycles": 2000,
                        "max_evaluations": 5, field: value},
    }
    path = write_config(tmp_path, config)
    assert main(["calibrate", "--config", path]) == 1
    assert f"error: {field} must be" in capsys.readouterr().err


def test_tradeoff_writes_one_file_per_policy(tmp_path, monkeypatch):
    # episodes stop at 10^4 steps, not at 1e4 * gamma, so a kernel fault that
    # makes the walk cycle costs seconds here, not minutes; no episode of
    # these runs gets that far, so the files are the same either way
    monkeypatch.setattr(metrics, "_default_safety_horizon", lambda A: 10_000)
    config = {
        "scenario": scenario_dict(2, change_point=1),
        "simulation": {"trials": 150, "seed": 11},
        "tradeoff": {
            "gammas": [5.0, 20.0],
            "policies": [
                {"label": "single", "variant": "cusum", "model_ids": [2]},
                {"label": "pair", "variant": "me-cusum", "budgets": {"1": 2}},
            ],
        },
    }
    path = write_config(tmp_path, config)
    base = tmp_path / "curve.csv"
    assert main(["tradeoff", "--config", path, "--output", str(base)]) == 0
    for label in ("single", "pair"):
        rows = read_rows(tmp_path / f"curve-{label}.csv")
        assert rows[0] == ["gamma", "log_arlfa", "wadd", "wadd_se"]
        assert [row[0] for row in rows[1:]] == ["5.0", "20.0"]
        assert float(rows[1][1]) < float(rows[2][1])
    # with no extension the files get .csv, even below a dotted directory
    dotted = tmp_path / "run.d"
    dotted.mkdir()
    assert main(["tradeoff", "--config", path, "--trials", "5",
                 "--output", str(dotted / "curve")]) == 0
    assert sorted(p.name for p in dotted.iterdir()) == ["curve-pair.csv", "curve-single.csv"]


def test_tradeoff_labels_must_be_distinct_file_names(tmp_path, capsys):
    def config(policies):
        return {
            "scenario": scenario_dict(2, change_point=1),
            "simulation": {"trials": 10, "seed": 1},
            "tradeoff": {"gammas": [5.0], "policies": policies},
        }

    unlabelled_twice = [{"variant": "me-cusum", "budgets": {"1": 2}},
                        {"variant": "me-cusum", "budgets": {"1": 4}}]
    escaping = [{"label": "sub/../../x", "variant": "me-cusum", "budgets": {"1": 2}},
                {"label": "pair", "variant": "me-cusum", "budgets": {"1": 4}}]
    for name, policies in (("dup", unlabelled_twice), ("path", escaping)):
        with pytest.raises(ValueError):
            parse_config(config(policies))
        path = write_config(tmp_path, config(policies), f"{name}.json")
        assert main(["tradeoff", "--config", path,
                     "--output", str(tmp_path / "curve.csv")]) == 1
        assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.glob("curve*"))


def test_tradeoff_falls_back_to_main_policy(tmp_path):
    config = {
        "scenario": scenario_dict(1, change_point=1),
        "policy": {"variant": "cusum", "gamma": 10.0},
        "simulation": {"trials": 100, "seed": 12},
        "tradeoff": {"gammas": [5.0, 20.0]},
    }
    out = tmp_path / "solo.csv"
    path = write_config(tmp_path, config)
    assert main(["tradeoff", "--config", path, "--output", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 3


def test_tradeoff_unknown_model_ids(tmp_path, capsys):
    good = {"label": "pair", "variant": "me-cusum", "budgets": {"1": 2}}
    for name, ids in (("unknown", [7]), ("repeated", [2, 2])):
        bad = {"label": name, "variant": "cusum" if len(ids) == 1 else "me-cusum",
               "model_ids": ids}
        config = {
            "scenario": scenario_dict(2, change_point=1),
            "simulation": {"trials": 10, "seed": 1},
            "tradeoff": {"gammas": [5.0], "policies": [good, bad]},
        }
        with pytest.raises(ValueError, match=r"tradeoff\.policies\[1\]\.model_ids"):
            parse_config(config)
        path = write_config(tmp_path, config, f"{name}.json")
        assert main(["tradeoff", "--config", path,
                     "--output", str(tmp_path / "curve.csv")]) == 1
        assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.glob("curve*"))


def test_bad_configs_exit_one(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["trace", "--config", missing]) == 1
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["trace", "--config", str(broken)]) == 1
    no_policy = write_config(tmp_path, {"scenario": scenario_dict(2)}, "np.json")
    assert main(["trace", "--config", no_policy]) == 1
    capsys.readouterr()


def test_zero_horizon_is_an_error(tmp_path, capsys):
    config = {
        "scenario": scenario_dict(2),
        "policy": {"variant": "me-cusum", "A": 3.0, "budgets": {"1": 2}},
        "simulation": {"trials": 2, "horizon": 0},
    }
    path = write_config(tmp_path, config)
    for command in (["trace"], ["evaluate", "por"]):
        assert main([*command, "--config", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "horizon" in captured.err


def _density_without_mean(data):
    data["scenario"]["models"][0]["pre"]["mean"] = None


# the path of the wrong value -> how to put it into a valid config
WRONG_TYPES = {
    "tradeoff.gammas": lambda d: d.update(tradeoff={"gammas": 5}),
    "tradeoff.policies[0]": lambda d: d.update(tradeoff={"gammas": [5.0], "policies": [5]}),
    "calibration.betas": lambda d: d.update(calibration={"gamma": 10.0, "betas": [1]}),
    "scenario.models": lambda d: d["scenario"].update(models=5),
    "policy": lambda d: d["policy"].update(A=None),
    "tradeoff.policies[0].model_ids": lambda d: d.update(tradeoff={
        "gammas": [5.0], "policies": [{"variant": "cusum", "model_ids": 1}]}),
    "simulation": lambda d: d.update(simulation=[]),
    "scenario.models[0].pre.mean": _density_without_mean,
    "simulation.trials": lambda d: d["simulation"].update(trials=2.7),
    "policy.m": lambda d: d["policy"].update(m=True),
    "scenario.models[0].id": lambda d: d["scenario"]["models"][0].update(id=1.5),
}


@pytest.mark.parametrize("where", list(WRONG_TYPES))
def test_wrong_json_types_exit_one(tmp_path, capsys, where):
    config = {
        "scenario": scenario_dict(2),
        "policy": {"variant": "me-cusum", "A": 3.0, "budgets": {"1": 2}},
        "simulation": {"trials": 10, "seed": 1},
    }
    parse_config(config)
    WRONG_TYPES[where](config)
    with pytest.raises(ValueError) as info:
        parse_config(config)
    assert str(info.value).startswith(where)
    path = write_config(tmp_path, config)
    assert main(["evaluate", "arlfa", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}")
    assert "Traceback" not in err


def test_gamma_override_rethresholds_policy(tmp_path):
    config = {
        "scenario": scenario_dict(1, horizon=50),
        "policy": {"variant": "cusum", "A": 3.0},
        "simulation": {"seed": 13},
    }
    out = tmp_path / "g.csv"
    path = write_config(tmp_path, config)
    assert main(["trace", "--config", path, "--gamma", "50",
                 "--output", str(out)]) == 0
    comment = out.read_text().splitlines()[0]
    embedded = json.loads(comment[len("# config: "):])
    assert embedded["policy"]["A"] == math.log(50.0)


# Fixed-seed artifacts stay byte-identical across changes that keep the
# numbers: the sha256 of each command's stdout, per config. The traces at
# change points 40 and 200 each have a level-1 visit that spans the change.
ARTIFACT_CONFIGS = {
    "me-cusum": {
        "scenario": scenario_dict(2, change_point=40),
        "policy": {"variant": "me-cusum", "gamma": 1000.0, "budgets": {"1": 2.5}},
        "simulation": {"trials": 12, "seed": 21, "horizon": 10_000},
    },
    "de-me-cusum": {
        "scenario": scenario_dict(3, change_point=200),
        "policy": {"variant": "de-me-cusum", "gamma": 1000.0,
                   "budgets": {"0": 4, "1": 3, "2": 2.5}, "mu": 0.1},
        "simulation": {"trials": 8, "seed": 22, "horizon": 10_000},
    },
    "rss": {
        "scenario": scenario_dict(2, change_point=70),
        "policy": {"variant": "rss", "gamma": 1000.0, "p_hi": 0.5},
        "simulation": {"trials": 12, "seed": 23, "horizon": 10_000},
        "tradeoff": {"gammas": [10.0, 100.0], "policies": [
            {"label": "rss", "variant": "rss", "p_hi": 0.5},
            {"label": "pair", "variant": "me-cusum", "budgets": {"1": 2.5}},
        ]},
    },
}
ARTIFACT_COMMANDS = (("trace",), ("evaluate", "arlfa"), ("evaluate", "wadd"),
                     ("evaluate", "por"), ("tradeoff",))
ARTIFACT_DIGESTS = {
    "me-cusum": {
        "trace": "cb8164026351eda719f2b4de9acd114b744566718d8b7f780a96d8328f42f808",
        "evaluate arlfa": "e26da284eb75bbf044ecf997de9596960d26d9c1307bc625a23f009cc0d93118",
        "evaluate wadd": "bb3910c40e626394c5aa26499840b32efa3a5502cdf7a98d475292a41e82db32",
        "evaluate por": "e95f6bcd9ce0906e6c16b3a7e307688ececd7b86d885faeee380fe83cb4ef416",
    },
    "de-me-cusum": {
        "trace": "4ae76d2ed3092f58339fe136dd0c647e575cd1b06d2ca2326a122b4faffe08c8",
        "evaluate arlfa": "5f2d6a7416e1cba5ae08b53f2aa34e943fdd4c1192c4fa5075ec8a0390c5b15c",
        "evaluate wadd": "ad6724d0cd9b229af87a96a0c29cae6b45ff11b865f8da03bc357e7beac2d919",
        "evaluate por": "f0e8f81f42dc2054e2c36b7969442a6522de3b2070c96fc973ec8a67ea83469c",
    },
    "rss": {
        "trace": "6b2db738610acd399543c1a4c263ae3eb3db8fe0a4158541ed10713bdc6296cd",
        "evaluate arlfa": "e34fdb412ce4fbca46f68b1cfafd75a6d4f4fb2f4e59a5973ab0a5242e861337",
        "evaluate wadd": "02e3b99651101c8401d212018f30a18f2d9a6eff6de2a89e4fda0f24f6793c9d",
        "evaluate por": "42315065767a42f050925eb281b80365abd559b9840d39978088859c78092c52",
        "tradeoff": "2ddf5d43a8882a8daad3dd6d73974148da55d3381751c99a22a68672a0676074",
    },
}


@pytest.mark.parametrize("name", list(ARTIFACT_CONFIGS))
def test_fixed_seed_artifacts_are_pinned(tmp_path, capsys, name):
    path = write_config(tmp_path, ARTIFACT_CONFIGS[name])
    digests = {}
    for command in ARTIFACT_COMMANDS:
        if command == ("tradeoff",) and "tradeoff" not in ARTIFACT_CONFIGS[name]:
            continue
        assert main([*command, "--config", path]) == 0
        out = capsys.readouterr().out
        digests[" ".join(command)] = hashlib.sha256(out.encode()).hexdigest()
    assert digests == ARTIFACT_DIGESTS[name]
