"""Monte Carlo estimators: validation, pinned values, and route agreement."""

from __future__ import annotations

import gc
import itertools
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from mecusum import (
    CalibrationConfig,
    CalibrationTarget,
    DensitySpec,
    PolicyParams,
    RssParams,
    Scenario,
    calibrate,
    episode_summary,
    estimate_arlfa,
    estimate_por_direct,
    estimate_por_renewal,
    estimate_wadd,
    init,
    run_episode,
    resolve_truncation,
    run_rss,
    set_threshold,
    step,
    tradeoff_curve,
    wadd_penalty,
)
import mecusum
from mecusum import engine, metrics, simulate
from mecusum.metrics import _trial_table, _z_value
from conftest import assert_rows_are_episodes, gaussian_model


def test_wadd_penalty_budget_products(models2):
    assert wadd_penalty(PolicyParams(m=1, A=3.0)) == 0.0
    assert wadd_penalty(RssParams(A=3.0, p_hi=0.5)) == 0.0
    assert wadd_penalty(
        PolicyParams(m=2, A=3.0, scales={2: 1.0}, budgets={1: 2})
    ) == 2.0
    assert wadd_penalty(
        PolicyParams(m=3, A=3.0, scales={2: 1.0, 3: 1.0}, budgets={1: 3, 2: 2})
    ) == 8.0
    assert wadd_penalty(
        PolicyParams(m=2, A=3.0, scales={1: 1.0, 2: 1.0}, budgets={0: 3, 1: 2},
                     mu=0.1, data_efficient=True)
    ) == 8.0


def test_estimate_arlfa_validation():
    models = (gaussian_model(1, 1.0),)
    params = PolicyParams(m=1, A=3.0)
    with pytest.raises(ValueError):
        estimate_arlfa(params, models, 0, 1)
    with pytest.raises(ValueError):
        estimate_arlfa(PolicyParams(m=1, A=math.inf), models, 10, 1)
    with pytest.raises(ValueError):
        estimate_arlfa(params, models, 10, 1, confidence=1.5)


# a batch handed to the scalar loops at time 0, and one that runs in lockstep
_TRIAL_COUNTS = (10, simulate._HANDOFF_ROWS + 1)


def test_bad_confidence_fails_before_any_trial(models2, monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before checking confidence")

    monkeypatch.setattr("mecusum.metrics._lockstep", no_simulation)
    monkeypatch.setattr("mecusum.metrics._RenewalKernel", no_simulation)
    params = PolicyParams(m=2, A=3.0, scales={2: 1.0}, budgets={1: 2})
    for n in _TRIAL_COUNTS:
        calls = (
            lambda c: estimate_arlfa(params, models2, n, 1, confidence=c),
            lambda c: estimate_wadd(params, models2, n, 1, confidence=c),
            lambda c: estimate_por_direct(params, models2, 10_000, n, 1, confidence=c),
            lambda c: estimate_por_renewal(params, models2, 100, 1, confidence=c),
            lambda c: tradeoff_curve(params, models2, [5.0, 20.0], n, 1, confidence=c),
        )
        for call, confidence in itertools.product(calls, (0.0, 1.0, 2.0)):
            with pytest.raises(ValueError, match="confidence"):
                call(confidence)


def test_bad_seed_fails_before_any_trial(models2, monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before checking the seed")

    monkeypatch.setattr("mecusum.metrics._lockstep", no_simulation)
    params = PolicyParams(m=2, A=3.0, scales={2: 1.0}, budgets={1: 2})
    for n in _TRIAL_COUNTS:
        calls = (
            lambda s: estimate_arlfa(params, models2, n, s),
            lambda s: estimate_wadd(params, models2, n, s),
            lambda s: estimate_por_direct(params, models2, 10_000, n, s),
            lambda s: estimate_por_renewal(params, models2, 100, s),
            lambda s: tradeoff_curve(params, models2, [5.0, 20.0], n, s),
        )
        for call, seed in itertools.product(calls, ((1.5, 2), (True, 2), 2.5, "12")):
            with pytest.raises(ValueError, match="seed"):
                call(seed)


@pytest.mark.parametrize("chunk", [4096, 7])
def test_keyed_episodes_equal_fresh_ones(models2, models3, monkeypatch, chunk, trial_path):
    # the estimators' re-keyed generators against fresh ones per episode, on
    # the scalar and the lockstep path; a 7-trial chunk makes the table
    # re-hash many times within a run, and the lockstep runner step 7-trial
    # batches. Horizon 5000 lets pre-change runs cross refills, and change
    # point 300 falls inside level visits
    monkeypatch.setattr(simulate, "_KEY_CHUNK", chunk)
    horizons = (60, 5000) if chunk == 4096 else (60,)
    one = (gaussian_model(1, 1.0),)
    two = PolicyParams(m=2, A=3.0, scales={2: 1.0}, budgets={1: 2})
    policies = [
        (PolicyParams(m=1, A=3.0), one),
        (two, models2),
        (PolicyParams(m=3, A=3.0, scales={2: 1.0, 3: 1.0}, budgets={1: 3, 2: 1.5}), models3),
        (PolicyParams(m=2, A=3.0, scales={1: 1.0, 2: 1.0}, budgets={0: 2.5, 1: 1.5},
                      mu=0.1, data_efficient=True), models2),
        (replace(two, top_truncation=0.5), models2),
        (replace(two, top_truncation=40.5), models2),
        (RssParams(A=3.0, p_hi=0.5), models2),
    ]
    base = (2**40 + 3, 7)
    stops = set()
    for params, models in policies:
        for change_point, horizon in itertools.product((1, 7, 300, math.inf), horizons):
            scenario = Scenario(models, change_point, horizon=horizon)
            table = _trial_table(params, models, change_point, horizon, 200, base, 0.95)
            fresh = assert_rows_are_episodes(table, params, scenario, base)
            stops.update((s.stop_reason, s.stopping_time == 0) for s in fresh)
    assert stops == {("threshold", False), ("truncation", False), ("truncation", True),
                     (None, False)}

    with pytest.raises(ValueError):
        simulate.EpisodeKeys(base, 2**32 + 1)  # a trial number past one uint32 word


def test_z_value_matches_normal_quantiles():
    # scipy.stats.norm.ppf(0.5 + c / 2) at each confidence c
    quantiles = {
        0.8: 1.2815515655446004,
        0.9: 1.6448536269514722,
        0.95: 1.959963984540054,
        0.99: 2.5758293035489004,
    }
    for confidence, z in quantiles.items():
        assert _z_value(confidence) == pytest.approx(z, rel=1e-15)


def test_import_loads_no_third_party_module_but_numpy():
    # the runtime dependency list is numpy alone: importing the package adds
    # no other top-level module outside the standard library (the diff leaves
    # out what the interpreter had loaded at start)
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import mecusum\n"
            "added = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
            "print(sorted(added - sys.stdlib_module_names - {'mecusum', 'numpy'}))")
    # the child finds the package where this interpreter found it, with or
    # without PYTHONPATH set
    path = os.path.dirname(os.path.dirname(mecusum.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, (path, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "[]"


def test_arlfa_meets_target():
    models = (gaussian_model(1, 1.0),)
    gamma = 50.0
    params = PolicyParams(m=1, A=math.log(gamma))
    est = estimate_arlfa(params, models, 400, base_seed=60)
    assert est.trials == 400
    assert est.horizon_hits == 0
    assert est.mean - 2.0 * est.std_error >= gamma
    assert est.ci[0] < est.mean < est.ci[1]


def test_arlfa_safety_horizon_flags_cut_episodes():
    models = (gaussian_model(1, 1.0),)
    params = PolicyParams(m=1, A=math.log(50.0))
    est = estimate_arlfa(params, models, 50, base_seed=61, safety_horizon=5)
    assert est.horizon_hits > 0
    assert est.mean <= 5.0


def test_wadd_adds_penalty_to_simulated_mean(models2):
    params = PolicyParams(m=2, A=math.log(100.0), scales={2: 1.0}, budgets={1: 2})
    # an explicit horizon bounds the run should a kernel fault make the walk cycle
    est = estimate_wadd(params, models2, 500, base_seed=62, safety_horizon=1000)
    assert est.horizon_hits == 0
    assert est.penalty == 2.0
    assert est.mean == est.sim_mean + est.penalty
    assert est.ci[0] < est.mean < est.ci[1]
    assert (est.ci[0] + est.ci[1]) / 2.0 == pytest.approx(est.mean, abs=1e-9)
    # the informative stream alone must detect faster on average
    single = estimate_wadd(PolicyParams(m=1, A=math.log(100.0)),
                           (gaussian_model(1, 1.0),), 500, base_seed=62, safety_horizon=1000)
    assert single.horizon_hits == 0
    assert single.penalty == 0.0
    assert single.mean < est.mean


def test_por_direct_validation(models2):
    params = PolicyParams(m=2, A=3.0, scales={2: 1.0}, budgets={1: 2})
    with pytest.raises(ValueError):
        estimate_por_direct(params, models2, 5000, 2, 1)
    with pytest.raises(ValueError):
        estimate_por_direct(params, models2, 20_000, 0, 1)


def test_por_direct_fractions_sum_to_one(models2):
    params = PolicyParams(m=2, A=3.0, scales={2: 1.0}, budgets={1: 2},
                          top_truncation=5.0)
    por = estimate_por_direct(params, models2, 20_000, 2, base_seed=63)
    assert set(por.components) == {1, 2}
    total = sum(por.means().values())
    assert total == pytest.approx(1.0, abs=1e-12)
    assert por[1].mean > 0.0
    assert por[2].mean > 0.0


def test_por_direct_includes_idle_fraction(models2):
    params = PolicyParams(m=2, A=3.0, scales={1: 1.0, 2: 1.0},
                          budgets={0: 3, 1: 2}, mu=0.1, data_efficient=True)
    por = estimate_por_direct(params, models2, 20_000, 2, base_seed=64)
    assert set(por.components) == {0, 1, 2}
    assert sum(por.means().values()) == pytest.approx(1.0, abs=1e-12)
    assert por[0].mean > 0.0


def test_por_renewal_validation(models2):
    params = PolicyParams(m=2, A=3.0, scales={2: 1.0}, budgets={1: 2})
    with pytest.raises(ValueError):
        estimate_por_renewal(RssParams(A=3.0, p_hi=0.5), models2, 1000, 1)
    with pytest.raises(ValueError):
        estimate_por_renewal(params, models2, 50, 1)
    truncated = PolicyParams(m=2, A=3.0, scales={2: 1.0}, budgets={1: 2},
                             top_truncation=10.0)
    with pytest.raises(ValueError):
        estimate_por_renewal(truncated, models2, 1000, 1)


_POLICY2 = PolicyParams(m=2, A=3.0, scales={2: 1.0}, budgets={1: 2})
_SMALL_CALIBRATION = CalibrationConfig(search_cycles=100, final_cycles=100)
# every route that takes a model set, each checking it before any work
_ROUTES = {
    "step": lambda models: step(init(_POLICY2), _POLICY2, models, 0.5),
    "episode_summary": lambda models: episode_summary(
        _POLICY2, Scenario(models, 1, horizon=50), 0),
    "run_episode": lambda models: run_episode(_POLICY2, Scenario(models, 1, horizon=50), 0),
    "estimate_wadd": lambda models: estimate_wadd(_POLICY2, models, 2, 0),
    "estimate_arlfa": lambda models: estimate_arlfa(_POLICY2, models, 2, 0),
    "estimate_por_direct": lambda models: estimate_por_direct(_POLICY2, models, 10_000, 1, 0),
    "tradeoff_curve": lambda models: tradeoff_curve(_POLICY2, models, [10.0], 2, 0),
    "estimate_por_renewal": lambda models: estimate_por_renewal(_POLICY2, models, 1000, 1),
    "run_rss": lambda models: run_rss(RssParams(A=3.0, p_hi=0.5), models,
                                      lambda e, n: 0.0, np.random.default_rng(0)),
    "Scenario": lambda models: Scenario(models, 1),
    "calibrate": lambda models: calibrate(CalibrationTarget(100.0, {2: 0.5}), models,
                                          _SMALL_CALIBRATION),
}
# routes that build a scenario first, which takes m from the set itself
_SCENARIO_FIRST = {"episode_summary", "run_episode", "estimate_wadd", "estimate_arlfa",
                   "estimate_por_direct", "tradeoff_curve", "Scenario", "calibrate"}
_MODEL_SETS = {
    "empty": (),
    "three": (gaussian_model(1, 0.5), gaussian_model(2, 0.75), gaussian_model(3, 1.0)),
    "one": (gaussian_model(1, 1.0),),
    "ids23": (gaussian_model(2, 0.75), gaussian_model(3, 1.0)),
    "ids11": (gaussian_model(1, 0.75), gaussian_model(1, 1.0)),
    "reversed": (gaussian_model(1, 1.0), gaussian_model(2, 0.75)),
}
# a set of one or three ordered models is a valid scenario
_SKIP = {("Scenario", "three"), ("calibrate", "three"), ("Scenario", "one"),
         ("calibrate", "one")}


@pytest.mark.parametrize("route, case", [
    pytest.param(route, case, id=f"{route}-{case}")
    for route in _ROUTES for case in _MODEL_SETS if (route, case) not in _SKIP
])
def test_every_route_rejects_a_bad_model_set_alike(route, case):
    # one check in densities: the same set gets the same message everywhere
    models = _MODEL_SETS[case]
    if case == "reversed":
        message = "experiments (1, 2) violate the quality ordering: KL 0.5 > 0.28125"
    else:
        # an empty set has no m of its own: a scenario checks it with m = 1
        m = 1 if not models and route in _SCENARIO_FIRST else 2
        message = (f"policy with m={m} needs experiment models with ids 1..{m}, "
                   f"got {[mdl.id for mdl in models]}")
    with pytest.raises(ValueError) as info:
        _ROUTES[route](models)
    assert str(info.value) == message


_NOT_MODEL_SETS = {
    "none": lambda: None,
    "ints": lambda: [1, 2],
    "str": lambda: "ab",
    "generator": lambda: (gaussian_model(i, 0.5 + 0.25 * i) for i in (1, 2)),
}


@pytest.mark.parametrize("route", _ROUTES)
@pytest.mark.parametrize("case", _NOT_MODEL_SETS)
def test_every_route_rejects_what_is_no_model_set(route, case):
    # a set that is no list or tuple, or holds anything but ExperimentModel,
    # fails in densities' one check with its name, not an AttributeError
    # or TypeError of the first use
    message = "^models must be a list or tuple of ExperimentModel, got "
    with pytest.raises(ValueError, match=message):
        _ROUTES[route](_NOT_MODEL_SETS[case]())


@pytest.mark.parametrize("params", [RssParams(A=3.0, p_hi=0.5), _POLICY2],
                         ids=["rss", "2e"])
def test_an_estimate_checks_its_model_set_once(monkeypatch, models2, params):
    # the scenario checks the set; its 50 episodes reuse that check
    calls = []
    check = simulate.check_models

    def counted(*args):
        calls.append(args)
        return check(*args)

    for module in (simulate, engine):
        monkeypatch.setattr(module, "check_models", counted)
    estimate_wadd(params, models2, 50, 0)
    assert len(calls) == 1


_BAD_COUNTS = {
    "trials-bool": (lambda models: estimate_wadd(_POLICY2, models, True, 0), ("trials", 1)),
    "trials-fraction": (lambda models: estimate_wadd(_POLICY2, models, 10.5, 0), ("trials", 1)),
    "direct-trials-bool": (lambda models: estimate_por_direct(_POLICY2, models, 10_000, True, 0),
                           ("trials", 1)),
    "safety-horizon-bool": (lambda models: estimate_arlfa(_POLICY2, models, 2, 0,
                                                          safety_horizon=True),
                            ("safety_horizon", 1)),
    "safety-horizon-fraction": (lambda models: estimate_wadd(_POLICY2, models, 2, 0,
                                                             safety_horizon=100.5),
                                ("safety_horizon", 1)),
    "cycles-fraction": (lambda models: estimate_por_renewal(_POLICY2, models, 150.5, 0),
                        ("cycles", 100)),
    "cycles-bool": (lambda models: estimate_por_renewal(_POLICY2, models, True, 0),
                    ("cycles", 100)),
    "scenario-horizon-bool": (lambda models: Scenario(models, 1, horizon=True), ("horizon", 1)),
    # a level key is a count too: 1.5 and True are no level, 3.0 is level 3
    "budgets-key-fraction": (lambda models: PolicyParams(m=2, A=3.0, scales={2: 1.0},
                                                         budgets={1.5: 2.0}), ("budgets key", 0)),
    "budgets-key-bool": (lambda models: PolicyParams(m=2, A=3.0, scales={2: 1.0},
                                                     budgets={True: 2.0}), ("budgets key", 0)),
    "scales-key-fraction": (lambda models: PolicyParams(m=2, A=3.0, scales={2.9: 1.0},
                                                        budgets={1: 2.0}), ("scales key", 0)),
    # a value that is not a real number fails with the same message, not
    # with the TypeError of a comparison or of float()
    "trials-str": (lambda models: estimate_wadd(_POLICY2, models, "3", 0), ("trials", 1)),
    "trials-none": (lambda models: estimate_wadd(_POLICY2, models, None, 0), ("trials", 1)),
    "cycles-word": (lambda models: estimate_por_renewal(_POLICY2, models, "abc", 0),
                    ("cycles", 100)),
    "safety-horizon-complex": (lambda models: estimate_arlfa(_POLICY2, models, 2, 0,
                                                             safety_horizon=3 + 0j),
                               ("safety_horizon", 1)),
    "scenario-horizon-list": (lambda models: Scenario(models, 1, horizon=[5]), ("horizon", 1)),
    # the direct route names its own bound, 10000, for every bad horizon
    "direct-horizon-none": (lambda models: estimate_por_direct(_POLICY2, models, None, 2, 0),
                            ("horizon", 10_000)),
    "direct-horizon-str": (lambda models: estimate_por_direct(_POLICY2, models, "20000", 2, 0),
                           ("horizon", 10_000)),
    "direct-horizon-fraction": (lambda models: estimate_por_direct(_POLICY2, models, 10000.5,
                                                                   2, 0),
                                ("horizon", 10_000)),
}


@pytest.mark.parametrize("case", _BAD_COUNTS)
def test_counts_must_be_integers(models2, case):
    # a bool is not a count, nor is a fraction or a string: each names its
    # argument and its bound
    call, (name, low) = _BAD_COUNTS[case]
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= {low}, got "):
        call(models2)


_DE2 = dict(m=2, A=3.0, scales={1: 1.0, 2: 1.0}, budgets={0: 1, 1: 1}, data_efficient=True)
_BAD_REALS = {
    "threshold-bool": (lambda models: PolicyParams(m=1, A=True), "threshold A"),
    "threshold-str": (lambda models: PolicyParams(m=1, A="3"), "threshold A"),
    "budget-bool": (lambda models: PolicyParams(m=2, A=3.0, scales={2: 1.0}, budgets={1: True}),
                    "budget N_1"),
    "budget-str": (lambda models: PolicyParams(m=2, A=3.0, scales={2: 1.0}, budgets={1: "2"}),
                   "budget N_1"),
    "scale-bool": (lambda models: PolicyParams(m=2, A=3.0, scales={2: True}, budgets={1: 2}),
                   "scale a_2"),
    "top-truncation-bool": (lambda models: PolicyParams(m=1, A=3.0, top_truncation=True),
                            "top_truncation"),
    "top-truncation-str": (lambda models: PolicyParams(m=1, A=3.0, top_truncation="40"),
                           "top_truncation"),
    "mu-bool": (lambda models: PolicyParams(**_DE2, mu=True), "mu"),
    "rss-threshold-bool": (lambda models: RssParams(A=True, p_hi=0.5), "threshold A"),
    "p-hi-bool": (lambda models: RssParams(A=3.0, p_hi=True), "p_hi"),
    "p-hi-str": (lambda models: RssParams(A=3.0, p_hi="0.5"), "p_hi"),
    "density-mean-bool": (lambda models: DensitySpec("gaussian", True, 1.0), "mean"),
    "density-std-bool": (lambda models: DensitySpec("gaussian", 0.0, True), "std"),
    "density-std-str": (lambda models: DensitySpec("gaussian", 0.0, "1"), "std"),
    "gamma-bool": (lambda models: set_threshold(True), "gamma"),
    "gamma-str": (lambda models: set_threshold("1000"), "gamma"),
    "budget-to-resolve-bool": (lambda models: resolve_truncation(True), "budget"),
    "budget-to-resolve-str": (lambda models: resolve_truncation("2"), "budget"),
    "gamma-grid-str": (lambda models: tradeoff_curve(_POLICY2, models, "ab", 2, 0), "gamma"),
    "gamma-grid-mixed": (lambda models: tradeoff_curve(_POLICY2, models, [10.0, "ab"], 2, 0),
                         "gamma"),
    "change-point-str": (lambda models: Scenario(models, "3"), "change_point"),
    "change-point-none": (lambda models: Scenario(models, None), "change_point"),
    "confidence-str": (lambda models: estimate_wadd(_POLICY2, models, 2, 0, confidence="x"),
                       "confidence"),
}


@pytest.mark.parametrize("case", _BAD_REALS)
def test_reals_must_be_numbers(models2, case):
    # a bool is not a real number, though float(True) is 1.0, nor is a
    # string: each fails with the name of its field or argument, as the CLI's
    # config check does, and not with the TypeError of a comparison
    call, name = _BAD_REALS[case]
    with pytest.raises(ValueError, match=f"^{name} must be a real number, got "):
        call(models2)


def test_integral_float_counts_are_accepted(models2):
    assert estimate_wadd(_POLICY2, models2, 5.0, 0, safety_horizon=1000.0) == \
        estimate_wadd(_POLICY2, models2, 5, 0, safety_horizon=1000)
    assert Scenario(models2, 1, horizon=7.0).horizon == 7


def test_por_renewal_zero_budget_is_all_top(models2):
    params = PolicyParams(m=2, A=3.0, scales={2: 1.0}, budgets={1: 0})
    por = estimate_por_renewal(params, models2, 1000, base_seed=65)
    assert por[2].mean == 1.0
    assert por[2].std_error == 0.0
    assert por[1].mean == 0.0


def test_por_renewal_even_split_design(models2):
    # with a unit scale and a budget of two cheap observations per excursion,
    # the two experiments split the pre-change time almost evenly
    params = PolicyParams(m=2, A=3.0, scales={2: 1.0}, budgets={1: 2})
    por = estimate_por_renewal(params, models2, 200_000, base_seed=66)
    assert por[1].mean == pytest.approx(0.503, abs=0.01)
    assert por[2].mean == pytest.approx(0.497, abs=0.01)
    assert sum(por.means().values()) == pytest.approx(1.0, abs=1e-9)
    assert por[1].std_error < 0.005


def test_por_routes_agree(models2):
    params = PolicyParams(m=2, A=5.0, scales={2: 1.3}, budgets={1: 1.7})
    renewal = estimate_por_renewal(params, models2, 50_000, base_seed=67)
    direct = estimate_por_direct(params, models2, 100_000, 3, base_seed=68)
    for key in (1, 2):
        assert direct[key].mean == pytest.approx(renewal[key].mean, abs=0.015)


def test_estimators_leave_no_cyclic_garbage(models2, trial_path):
    # the renewal kernel's visit closures go when its call returns, with
    # nothing that refers back to them: no estimator leaves a reference
    # cycle for the collector, on either trial path
    params = PolicyParams(m=2, A=3.0, scales={1: 0.7, 2: 1.3}, budgets={0: 1.5, 1: 2.5},
                          mu=0.2, data_efficient=True)
    target = CalibrationTarget(100.0, {1: 0.3, 2: 0.4}, data_efficient=True)
    config = CalibrationConfig(search_cycles=500, final_cycles=1000)
    calls = {
        "estimate_arlfa": lambda: estimate_arlfa(params, models2, 20, 3),
        "estimate_por_renewal": lambda: estimate_por_renewal(params, models2, 1000, 3),
        "calibrate": lambda: calibrate(target, models2, config, 3),
    }
    gc.collect()
    gc.disable()
    try:
        for name, call in calls.items():
            call()
            assert (name, gc.collect()) == (name, 0)
    finally:
        gc.enable()


def test_tradeoff_curve_validation(models2, monkeypatch):
    params = PolicyParams(m=2, A=3.0, scales={2: 1.0}, budgets={1: 2})
    # each gamma goes through set_threshold: gamma = 1 warns
    with pytest.warns(UserWarning, match="gamma = 1"):
        tradeoff_curve(params, models2, [1.0], 2, 1)
    # and a bad one fails before the first estimate runs
    monkeypatch.setattr(metrics, "estimate_arlfa", lambda *args, **kwargs: pytest.fail())
    with pytest.raises(ValueError):
        tradeoff_curve(params, models2, [], 10, 1)
    with pytest.raises(ValueError):
        tradeoff_curve(params, models2, [10.0, 10.0], 10, 1)
    with pytest.raises(ValueError):
        tradeoff_curve(params, models2, [20.0, 10.0], 10, 1)
    with pytest.raises(ValueError):
        tradeoff_curve(params, models2, [0.5, 10.0], 10, 1)
    with pytest.raises(ValueError, match="gamma must be >= 1, got nan"):
        tradeoff_curve(params, models2, [10.0, math.nan], 10, 1)
    # a grid that is no sequence fails with its name, not a TypeError of len()
    for grid in (5.0, None, (g for g in (10.0, 20.0)), {10.0, 20.0}, np.array(10.0)):
        with pytest.raises(ValueError, match="^the gamma grid must be a sequence of numbers"):
            tradeoff_curve(params, models2, grid, 10, 1)


def test_tradeoff_curve_monotone_smoke():
    models = (gaussian_model(1, 1.0),)
    params = PolicyParams(m=1, A=1.0)
    gammas = (5.0, 20.0, 100.0)
    points = tradeoff_curve(params, models, gammas, 400, base_seed=69)
    assert [p.gamma for p in points] == list(gammas)
    for p in points:
        assert p.log_arlfa == math.log(p.arlfa.mean)
        assert p.wadd == p.wadd_estimate.mean
        assert p.wadd_se == p.wadd_estimate.std_error
    assert points[0].log_arlfa < points[1].log_arlfa < points[2].log_arlfa
    assert points[0].wadd < points[1].wadd < points[2].wadd


# (mean, std_error, horizon_hits) of estimate_wadd (200 trials, seed (5, 1))
# and of estimate_arlfa (100 trials, seed (5, 2), safety horizon 400), recorded
# before the stream blocks became geometric and the generators lazy; stream
# changes that keep every seed's values must reproduce them exactly
PINNED = {
    "2e": ((10.55, 0.3551310891097276, 0), (205.01, 13.4546863526611, 18)),
    "3e": ((14.19, 0.441524881638088, 0), (276.88, 13.745348377549476, 44)),
    "de2e": ((17.155, 0.4598501776988329, 0), (268.57, 13.94934019655381, 42)),
    "rss": ((7.695, 0.3281742933780324, 0), (137.35, 11.399755225087914, 5)),
}
# (mean, std_error) per key of estimate_por_direct (horizon 10000, 3 trials,
# seed (5, 3)), recorded before its loop was shared with the stopping times
PINNED_DIRECT = {
    "2e": {1: (0.5487000000000001, 0.0020647840887931417),
           2: (0.4513, 0.0020647840887931413)},
    "de2e": {0: (0.46186666666666665, 0.004745992461482041),
             1: (0.2674666666666667, 0.002395365896429553),
             2: (0.27066666666666667, 0.003578329840085234)},
    "rss": {1: (0.5054333333333334, 0.0050081045427498045),
            2: (0.49456666666666665, 0.005008104542749781)},
}
PINNED_RENEWAL = {  # estimate_por_renewal on 3e, 300 cycles, seed 9
    1: (0.43354991139988186, 0.012482245542627942),
    2: (0.2563496751329002, 0.006918532591841829),
    3: (0.31010041346721795, 0.013615111173135193),
}
# estimate_por_renewal with fractional budgets (300 cycles, seed 9) on de2e
# and on a 3e whose level 1 reflects, and one small calibrate (500 search and
# 2000 final cycles, seed 9), recorded before the renewal kernel became one
# locals loop per visit; PINNED_CALIBRATE re-recorded when each level's search
# began at cap 16 instead of budget_cap, which reads the level's stream differently
PINNED_RENEWAL_FRACTIONAL = {
    "de2e": {0: (0.40240050536955146, 0.015456619029561166),
             1: (0.2520530638029059, 0.008916234075984795),
             2: (0.34554643082754266, 0.020610486465328984)},
    "3e": {1: (0.5182119205298014, 0.01146477185143637),
           2: (0.2644867549668874, 0.006157538852068592),
           3: (0.21730132450331127, 0.010806243329813713)},
}
PINNED_CALIBRATE = (  # budgets, scales, achieved means, evaluations (search passes)
    {0: 1.4508293838862563, 1: 1.3256207674943563},
    {1: 1.0, 2: 1.0},
    {0: 0.25093336350265866, 1: 0.2916619527095825, 2: 0.4574046837877588},
    2,
)


def test_fixed_seed_estimates_are_pinned(models2, models3, trial_path):
    policies = {
        "2e": (PolicyParams(m=2, A=3.0, scales={2: 1.0}, budgets={1: 2.5}), models2),
        "3e": (PolicyParams(m=3, A=3.0, scales={2: 1.0, 3: 1.0}, budgets={1: 3, 2: 1.5}),
               models3),
        "de2e": (PolicyParams(m=2, A=3.0, scales={1: 1.0, 2: 1.0}, budgets={0: 3, 1: 2},
                              mu=0.1, data_efficient=True), models2),
        "rss": (RssParams(A=3.0, p_hi=0.5), models2),
    }
    for label, (params, models) in policies.items():
        wadd = estimate_wadd(params, models, 200, (5, 1))
        arlfa = estimate_arlfa(params, models, 100, (5, 2), safety_horizon=400)
        got = tuple((e.mean, e.std_error, e.horizon_hits) for e in (wadd, arlfa))
        assert got == PINNED[label], label
        if label in PINNED_DIRECT:
            direct = estimate_por_direct(params, models, 10_000, 3, (5, 3))
            assert {k: (c.mean, c.std_error) for k, c in direct.components.items()} \
                == PINNED_DIRECT[label], label
    renewal = estimate_por_renewal(policies["3e"][0], models3, 300, 9)
    assert {k: (c.mean, c.std_error) for k, c in renewal.components.items()} == PINNED_RENEWAL
    renewal_policies = {
        "de2e": (PolicyParams(m=2, A=3.0, scales={1: 1.0, 2: 1.0}, budgets={0: 2.6, 1: 1.4},
                              mu=0.1, data_efficient=True), models2),
        "3e": (PolicyParams(m=3, A=3.0, scales={2: 1.5, 3: 2.0}, budgets={1: 3.5, 2: 2.25}),
               models3),
    }
    for label, (params, models) in renewal_policies.items():
        renewal = estimate_por_renewal(params, models, 300, 9)
        assert {k: (c.mean, c.std_error) for k, c in renewal.components.items()} \
            == PINNED_RENEWAL_FRACTIONAL[label], label
    result = calibrate(CalibrationTarget(1000.0, {1: 0.3, 2: 0.4}, data_efficient=True), models2,
                       CalibrationConfig(search_cycles=500, final_cycles=2000), base_seed=9)
    assert (result.params.budgets, result.params.scales, result.achieved.means(),
            result.evaluations) == PINNED_CALIBRATE
