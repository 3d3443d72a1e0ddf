"""Level-stack transitions, budget resolution, and the random-switch baseline."""

from __future__ import annotations

import math
import pickle
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from mecusum import (
    Action,
    EngineState,
    LevelState,
    PolicyParams,
    RssParams,
    init,
    next_action,
    resolve_truncation,
    run_rss,
    step,
)
from mecusum import engine
from mecusum.densities import check_models, llr_from_terms, llr_terms
from mecusum.engine import STOP, StepResult, _EngineCore, _frozen, _observed
from conftest import gaussian_model, obs_for


def make_params2(**overrides):
    base = dict(m=2, A=5.0, scales={2: 1.0}, budgets={1: 2})
    base.update(overrides)
    return PolicyParams(**base)


def test_policy_params_validation():
    with pytest.raises(ValueError):
        PolicyParams(m=0, A=1.0)
    with pytest.raises(ValueError, match="^m must be an integer"):
        PolicyParams(m=True, A=1.0)  # True == 1, but a bool is no count
    with pytest.raises(ValueError):
        PolicyParams(m=1, A=-0.5)
    with pytest.raises(ValueError):
        PolicyParams(m=1, A=math.nan)
    # scale/budget key sets must match m and the data-efficient flag
    with pytest.raises(ValueError):
        PolicyParams(m=2, A=1.0, scales={}, budgets={1: 1})
    with pytest.raises(ValueError):
        PolicyParams(m=2, A=1.0, scales={2: 1.0, 3: 1.0}, budgets={1: 1})
    with pytest.raises(ValueError):
        PolicyParams(m=2, A=1.0, scales={2: 1.0}, budgets={})
    with pytest.raises(ValueError):
        PolicyParams(m=2, A=1.0, scales={2: 1.0}, budgets={1: 1, 0: 1})
    with pytest.raises(ValueError):
        PolicyParams(m=2, A=1.0, scales={2: 0.0}, budgets={1: 1})
    with pytest.raises(ValueError):
        PolicyParams(m=2, A=1.0, scales={2: 1.0}, budgets={1: -1})
    with pytest.raises(ValueError):
        PolicyParams(m=2, A=1.0, scales={2: 1.0}, budgets={1: math.inf})
    # mu is required exactly when data-efficient
    with pytest.raises(ValueError):
        PolicyParams(m=1, A=1.0, mu=0.1)
    with pytest.raises(ValueError):
        PolicyParams(m=2, A=1.0, scales={1: 1.0, 2: 1.0},
                     budgets={0: 1, 1: 1}, data_efficient=True)
    with pytest.raises(ValueError):
        PolicyParams(m=2, A=1.0, scales={1: 1.0, 2: 1.0},
                     budgets={0: 1, 1: 1}, mu=-0.1, data_efficient=True)
    with pytest.raises(ValueError):
        PolicyParams(m=2, A=1.0, scales={2: 1.0}, budgets={1: 1}, top_truncation=-2)
    ok = PolicyParams(m=2, A=1.0, scales={1: 0.5, 2: 1.0},
                      budgets={0: 2, 1: 1}, mu=0.1, data_efficient=True)
    assert ok.mu == 0.1
    assert init(ok).stack[0].remaining == math.inf


def test_policy_params_maps_must_be_mappings():
    # scales and budgets map levels to values: anything else fails with
    # the field's name, not an AttributeError of .items()
    for scales, budgets, name in (
        (None, {1: 2.0}, "scales"),
        ([1.0], {1: 2.0}, "scales"),
        ({2: 1.0}, [2.0], "budgets"),
        ({2: 1.0}, None, "budgets"),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be a mapping of level to value"):
            PolicyParams(m=2, A=3.0, scales=scales, budgets=budgets)


def test_rss_params_validation():
    with pytest.raises(ValueError):
        RssParams(A=0.0, p_hi=0.5)
    with pytest.raises(ValueError):
        RssParams(A=math.nan, p_hi=0.5)
    with pytest.raises(ValueError):
        RssParams(A=1.0, p_hi=1.5)
    with pytest.raises(ValueError):
        RssParams(A=1.0, p_hi=-0.1)
    assert RssParams(A=1.0, p_hi=0.0).p_hi == 0.0


def test_init_and_next_action(models2):
    params = make_params2()
    state = init(params)
    assert state.statistic == 0.0
    assert state.stopped is False
    assert state.stop_reason is None
    assert state.time == 0
    assert len(state.stack) == 1
    assert state.stack[0].level == 2
    assert state.stack[0].floor == 0.0
    assert state.stack[0].remaining == math.inf
    assert next_action(state) == Action("sample", 2)


def test_single_level_reflects_at_zero():
    params = PolicyParams(m=1, A=5.0)
    models = (gaussian_model(1, 1.0),)
    s = init(params)
    r = step(s, params, models, obs_for(models[0], 0.3))
    assert r.state.statistic == pytest.approx(0.3, abs=1e-12)
    assert r.event == ""
    r = step(r.state, params, models, obs_for(models[0], -0.5))
    assert r.state.statistic == 0.0
    assert r.event == "reflect"
    assert r.state.time == 2
    assert r.action == Action("sample", 1)


def test_threshold_stop():
    params = PolicyParams(m=1, A=5.0)
    models = (gaussian_model(1, 1.0),)
    r = step(init(params), params, models, obs_for(models[0], 5.5))
    assert r.state.stopped is True
    assert r.state.stop_reason == "threshold"
    assert r.event == "stop"
    assert r.action.kind == "stop"
    assert r.state.statistic == pytest.approx(5.5, abs=1e-12)
    with pytest.raises(RuntimeError):
        step(r.state, params, models, 0.0)
    with pytest.raises(RuntimeError):
        next_action(r.state)


def test_two_level_descend_reflect_ascend(models2):
    params = make_params2()
    r = step(init(params), params, models2, obs_for(models2[1], -0.8))
    assert r.event == "descend"
    assert r.state.statistic == pytest.approx(-0.8, abs=1e-12)
    assert [s.level for s in r.state.stack] == [2, 1]
    assert r.state.stack[-1].floor == r.state.statistic
    assert r.state.stack[-1].remaining == 2.0
    assert r.action == Action("sample", 1)
    floor = r.state.stack[-1].floor

    # the bottom level reflects at its own floor while budget remains
    r = step(r.state, params, models2, obs_for(models2[0], -2.0))
    assert r.event == "reflect"
    assert r.state.statistic == floor
    assert r.state.stack[-1].remaining == 1.0

    # the budget-consuming observation pops back to the top at its floor
    r = step(r.state, params, models2, obs_for(models2[0], -2.0))
    assert r.event == "ascend"
    assert r.state.statistic == 0.0
    assert [s.level for s in r.state.stack] == [2]
    assert r.action == Action("sample", 2)


def test_two_level_early_ascent_discards_overshoot(models2):
    params = make_params2()
    r = step(init(params), params, models2, obs_for(models2[1], -0.8))
    r = step(r.state, params, models2, obs_for(models2[0], 1.0))
    assert r.event == "ascend"
    assert r.state.statistic == 0.0
    assert [s.level for s in r.state.stack] == [2]


def test_zero_budget_bounces_at_top(models2):
    params = make_params2(budgets={1: 0})
    r = step(init(params), params, models2, obs_for(models2[1], -0.8))
    assert r.event == "bounce"
    assert r.state.statistic == 0.0
    assert [s.level for s in r.state.stack] == [2]
    assert r.action == Action("sample", 2)


def test_scaled_descent_floor(models2):
    params = make_params2(scales={2: 2.5})
    r = step(init(params), params, models2, obs_for(models2[1], -0.8))
    assert r.event == "descend"
    assert r.state.stack[-1].floor == pytest.approx(-2.0, abs=1e-12)
    assert r.state.statistic == r.state.stack[-1].floor


def test_idle_level_climbs_then_pops(models2):
    params = PolicyParams(m=2, A=5.0, scales={1: 1.0, 2: 1.0},
                          budgets={0: 3, 1: 5}, mu=0.1, data_efficient=True)
    r = step(init(params), params, models2, obs_for(models2[1], -0.8))
    assert r.event == "descend"
    b1 = r.state.stack[-1].floor
    r = step(r.state, params, models2, obs_for(models2[0], -0.7))
    assert r.event == "descend"
    assert [s.level for s in r.state.stack] == [2, 1, 0]
    assert r.state.statistic == pytest.approx(-1.5, abs=1e-12)
    assert r.state.stack[-1].remaining == 3.0
    assert r.action == Action("idle")

    r = step(r.state, params, models2, None)
    assert r.event == ""
    assert r.state.statistic == pytest.approx(-1.4, abs=1e-12)
    r = step(r.state, params, models2, None)
    assert r.state.statistic == pytest.approx(-1.3, abs=1e-12)
    # third idle step exhausts the budget and lands on the level-1 floor
    r = step(r.state, params, models2, None)
    assert r.event == "ascend"
    assert r.state.statistic == b1
    assert [s.level for s in r.state.stack] == [2, 1]
    assert r.state.stack[-1].remaining == 4.0
    assert r.action == Action("sample", 1)


def test_idle_early_pop_on_crossing(models2):
    params = PolicyParams(m=2, A=5.0, scales={1: 1.0, 2: 1.0},
                          budgets={0: 50, 1: 5}, mu=0.2, data_efficient=True)
    r = step(init(params), params, models2, obs_for(models2[1], -0.5))
    r = step(r.state, params, models2, obs_for(models2[0], -0.3))
    assert r.action == Action("idle")
    b1 = r.state.stack[1].floor
    # climb from -0.8: -0.6, then -0.4 crosses the -0.5 floor and pops
    r = step(r.state, params, models2, None)
    assert r.event == ""
    r = step(r.state, params, models2, None)
    assert r.event == "ascend"
    assert r.state.statistic == b1


def test_undershoot_on_last_budgeted_observation_still_descends(models3):
    params = PolicyParams(m=3, A=math.inf, scales={2: 1.0, 3: 1.0},
                          budgets={1: 1, 2: 1})
    r = step(init(params), params, models3, obs_for(models3[2], -0.5))
    assert r.event == "descend"
    # this observation consumes the last of level 2's budget AND undershoots:
    # the child level still opens; the pop waits until the child closes
    r = step(r.state, params, models3, obs_for(models3[1], -0.3))
    assert r.event == "descend"
    assert [s.level for s in r.state.stack] == [3, 2, 1]
    assert r.state.stack[1].remaining == 0.0
    assert r.state.statistic == pytest.approx(-0.8, abs=1e-12)
    assert r.action == Action("sample", 1)

    # closing level 1 lands on the exhausted level 2, which closes too
    r = step(r.state, params, models3, obs_for(models3[0], 0.1))
    assert r.event == "ascend"
    assert [s.level for s in r.state.stack] == [3]
    assert r.state.statistic == 0.0


def test_pop_cascade_from_reflected_bottom(models3):
    params = PolicyParams(m=3, A=math.inf, scales={2: 1.0, 3: 1.0},
                          budgets={1: 1, 2: 1})
    r = step(init(params), params, models3, obs_for(models3[2], -0.5))
    r = step(r.state, params, models3, obs_for(models3[1], -0.3))
    # bottom reflection on its only budgeted observation, then cascade to top
    r = step(r.state, params, models3, obs_for(models3[0], -5.0))
    assert r.event == "ascend"
    assert [s.level for s in r.state.stack] == [3]
    assert r.state.statistic == 0.0


def test_zero_budget_bounce_with_exhausted_parent_cascades(models3):
    params = PolicyParams(m=3, A=math.inf, scales={2: 1.0, 3: 1.0},
                          budgets={1: 0, 2: 1})
    r = step(init(params), params, models3, obs_for(models3[2], -0.5))
    assert r.event == "descend"
    r = step(r.state, params, models3, obs_for(models3[1], -0.3))
    assert r.event == "ascend"
    assert [s.level for s in r.state.stack] == [3]
    assert r.state.statistic == 0.0


def test_zero_budget_bounce_with_remaining_parent_stays(models3):
    params = PolicyParams(m=3, A=math.inf, scales={2: 1.0, 3: 1.0},
                          budgets={1: 0, 2: 2})
    r = step(init(params), params, models3, obs_for(models3[2], -0.5))
    floor2 = r.state.stack[-1].floor
    r = step(r.state, params, models3, obs_for(models3[1], -0.3))
    assert r.event == "bounce"
    assert [s.level for s in r.state.stack] == [3, 2]
    assert r.state.statistic == floor2
    assert r.state.stack[-1].remaining == 1.0


def test_step_snapshot_equals_one_built_fresh(models3):
    # step() reuses the entries of the levels above the one it starts at;
    # each must equal a snapshot built from the core's lists alone
    params = PolicyParams(m=3, A=math.inf, scales={2: 1.0, 3: 1.0},
                          budgets={1: 2, 2: 1})

    def fresh(state, x):
        core = _EngineCore(params, None, state)
        terms = models3[state.stack[-1].level - 1].terms
        core.run([_observed(x, terms)] * 4, True, state.time + 1)
        return core.snapshot()

    state = init(params)
    for x, event, levels in [
        (obs_for(models3[2], -0.5), "descend", [3, 2]),
        # consumes level 2's only observation and descends anyway
        (obs_for(models3[1], -0.3), "descend", [3, 2, 1]),
        (obs_for(models3[0], 0.1), "", [3, 2, 1]),
        # level 1 closes and lands on the exhausted level 2, which closes too
        (obs_for(models3[0], 0.3), "ascend", [3]),
    ]:
        r = step(state, params, models3, x)
        assert r.event == event
        assert [s.level for s in r.state.stack] == levels
        assert r.state == fresh(state, x)
        state = r.state
    assert r.state.stack == (LevelState(3, 0.0, math.inf),)
    assert r.action is next_action(r.state) == Action("sample", 3)


def test_resolve_truncation_integers_skip_rng():
    assert resolve_truncation(3.0) == 3
    assert resolve_truncation(0.0) == 0
    assert resolve_truncation(7) == 7


def test_resolve_truncation_rejects_bad_values():
    with pytest.raises(ValueError):
        resolve_truncation(-1.0)
    with pytest.raises(ValueError):
        resolve_truncation(math.inf)
    with pytest.raises(ValueError):
        resolve_truncation(math.nan)
    with pytest.raises(ValueError):
        resolve_truncation(0.5)  # fractional budgets need a generator


def test_resolve_truncation_fractional_mean():
    rng = np.random.default_rng(5)
    draws = [resolve_truncation(0.57, rng) for _ in range(100_000)]
    assert set(draws) <= {0, 1}
    assert abs(sum(draws) / len(draws) - 0.57) < 0.01
    draws = [resolve_truncation(2.25, rng) for _ in range(100_000)]
    assert set(draws) <= {2, 3}
    assert abs(sum(draws) / len(draws) - 2.25) < 0.01


def test_zero_top_truncation_stops_at_init():
    params = PolicyParams(m=1, A=5.0, top_truncation=0.0)
    state = init(params)
    assert state.stopped is True
    assert state.stop_reason == "truncation"
    assert state.time == 0
    with pytest.raises(RuntimeError):
        next_action(state)


def test_fractional_top_truncation_needs_rng():
    params = PolicyParams(m=1, A=5.0, top_truncation=0.5)
    with pytest.raises(ValueError):
        init(params)
    state = init(params, np.random.default_rng(3))
    assert state.stack[0].remaining in (0.0, 1.0)
    assert state.stopped == (state.stack[0].remaining == 0.0)


_NOT_RNGS = {"str": "x", "int": 5, "bool": True, "none": None}


def _init_coin(models, rng):
    return init(PolicyParams(m=1, A=5.0, top_truncation=0.5), rng)


def _descent_coin(models, rng):
    params = make_params2(budgets={1: 1.5})
    return step(init(params), params, models, obs_for(models[1], -1.0), rng)


@pytest.mark.parametrize("rng", _NOT_RNGS.values(), ids=list(_NOT_RNGS))
@pytest.mark.parametrize("call", [_init_coin, _descent_coin], ids=["init", "step"])
def test_fractional_budgets_need_a_real_rng(models2, call, rng):
    # init with a fractional top truncation, and step() on a descent into a
    # fractional budget, read a coin: an rng without random() fails there
    # with a ValueError that names rng, not with an AttributeError
    with pytest.raises(ValueError, match="^rng must be a random generator"):
        call(models2, rng)
    # an integer budget reads no coin, so the rng is never looked at
    params = make_params2()
    r = step(init(params), params, models2, obs_for(models2[1], -1.0), rng)
    assert (r.event, r.state.stack[-1]) == ("descend", LevelState(1, -1.0, 2.0))


def test_truncated_top_stops_on_budget():
    params = PolicyParams(m=1, A=100.0, top_truncation=2)
    models = (gaussian_model(1, 1.0),)
    state = init(params)
    assert state.stack[0].remaining == 2.0
    r = step(state, params, models, obs_for(models[0], 0.1))
    assert r.state.stopped is False
    r = step(r.state, params, models, obs_for(models[0], 0.1))
    assert r.state.stopped is True
    assert r.state.stop_reason == "truncation"
    assert r.state.time == 2


def test_threshold_beats_truncation_on_last_observation():
    params = PolicyParams(m=1, A=1.0, top_truncation=1)
    models = (gaussian_model(1, 1.0),)
    r = step(init(params), params, models, obs_for(models[0], 1.5))
    assert r.state.stop_reason == "threshold"


def test_step_observation_contract(models2):
    params = PolicyParams(m=2, A=5.0, scales={1: 1.0, 2: 1.0},
                          budgets={0: 3, 1: 5}, mu=0.1, data_efficient=True)
    state = init(params)
    with pytest.raises(ValueError):
        step(state, params, models2, None)
    # a bool or a string is named, not read as 1.0 or left to float()
    for bad in (math.inf, math.nan, True, np.bool_(True), "1.5", np.array(1.0)):
        with pytest.raises(ValueError, match="observation must be a finite real number"):
            step(state, params, models2, bad)
    # any other real number is an observation
    assert (step(state, params, models2, np.float32(0.5)).state
            == step(state, params, models2, Fraction(1, 2)).state
            == step(state, params, models2, 0.5).state)
    r = step(state, params, models2, obs_for(models2[1], -0.8))
    r = step(r.state, params, models2, obs_for(models2[0], -0.7))
    assert r.action == Action("idle")
    with pytest.raises(ValueError):
        step(r.state, params, models2, 1.0)


def test_mismatched_models_rejected(models2):
    params = PolicyParams(m=3, A=5.0, scales={2: 1.0, 3: 1.0}, budgets={1: 1, 2: 1})
    with pytest.raises(ValueError):
        step(init(params), params, models2, 0.0)


def test_state_of_another_policy_rejected(models2, models3):
    params2 = make_params2()
    params3 = PolicyParams(m=3, A=5.0, scales={2: 1.0, 3: 1.0}, budgets={1: 1, 2: 1})
    deep3 = step(step(init(params3), params3, models3, obs_for(models3[2], -0.5)).state,
                 params3, models3, obs_for(models3[1], -0.3)).state
    assert [s.level for s in deep3.stack] == [3, 2, 1]
    with pytest.raises(ValueError):
        step(deep3, params2, models2, 0.0)
    deep2 = step(init(params2), params2, models2, obs_for(models2[1], -0.8)).state
    assert [s.level for s in deep2.stack] == [2, 1]
    with pytest.raises(ValueError):
        step(deep2, params3, models3, -3.0)
    empty = EngineState(0.0, (), False, None, 0)
    with pytest.raises(ValueError):
        step(empty, params2, models2, 0.0)
    # level 0 exists only in data-efficient policies
    idle = EngineState(0.0, (LevelState(2, 0.0, math.inf), LevelState(1, -1.0, 1.0),
                             LevelState(0, -2.0, 1.0)), False, None, 2)
    with pytest.raises(ValueError):
        step(idle, params2, models2, None)



_TOP = LevelState(2, 0.0, math.inf)
_FINE = dict(statistic=0.5, stack=(_TOP,), stopped=False, stop_reason=None, time=3)


@pytest.mark.parametrize("field, build", [
    # each of these stepped on, or failed with a TypeError or an
    # AttributeError, before the states checked their fields
    ("statistic", lambda: EngineState(**{**_FINE, "statistic": math.nan})),
    ("time", lambda: EngineState(**{**_FINE, "time": -5})),
    ("time", lambda: EngineState(**{**_FINE, "time": 2.5})),
    ("time", lambda: EngineState(**{**_FINE, "time": "3"})),
    ("time", lambda: EngineState(**{**_FINE, "time": True})),
    ("stack", lambda: EngineState(**{**_FINE, "stack": [_TOP]})),
    ("stack", lambda: EngineState(**{**_FINE, "stack": ((2, 0.0, math.inf),)})),
    ("stopped", lambda: EngineState(**{**_FINE, "stopped": "no"})),
    ("stop_reason", lambda: EngineState(**{**_FINE, "stop_reason": "threshold"})),
    ("stop_reason", lambda: EngineState(**{**_FINE, "stopped": True})),
    ("stop_reason", lambda: EngineState(**{**_FINE, "stopped": True, "stop_reason": "bored"})),
    ("floor", lambda: LevelState(1, math.nan, 2.0)),
    ("floor", lambda: LevelState(1, "-1", 2.0)),
    ("level", lambda: LevelState(-1, -1.0, 2.0)),
    ("level", lambda: LevelState(True, -1.0, 2.0)),
    ("remaining", lambda: LevelState(1, -1.0, -1.0)),
    ("remaining", lambda: LevelState(1, -1.0, 1.5)),
    ("remaining", lambda: LevelState(1, -1.0, math.nan)),
    ("state", lambda: step(None, make_params2(), (), 0.0)),
    ("state", lambda: step(_TOP, make_params2(), (), 0.0)),
    ("params", lambda: step(EngineState(**_FINE), None, (), 0.0)),
    ("params", lambda: step(EngineState(**_FINE), RssParams(A=1.0, p_hi=0.5), (), 0.0)),
    ("params", lambda: init(RssParams(A=1.0, p_hi=0.5))),
    ("state", lambda: next_action(None)),
])
def test_hand_built_states_fail_loudly(field, build):
    with pytest.raises(ValueError, match=f"^{field} "):
        build()


def test_hand_built_states_take_any_real_numbers():
    # 3.0 reads as the time 3, an int 0 as the statistic 0.0; a state that
    # passes its checks steps like the one init builds
    params = make_params2()
    state = EngineState(np.float64(0.0), (LevelState(2.0, 0, math.inf),), False, None, 0.0)
    assert type(state.statistic) is float and type(state.time) is int
    assert state == init(params)
    assert type(state.stack[0].level) is int and type(state.stack[0].floor) is float


def test_step_checks_a_model_tuple_once_and_a_list_every_time(models2, monkeypatch):
    # the one-entry cache skips check_models for the tuple it checked last,
    # and for nothing else; the count, not a timing, is the guard
    calls = []

    def counting(models, m=None):
        calls.append(models)
        return check_models(models, m)

    monkeypatch.setattr(engine, "check_models", counting)
    params = make_params2()
    xs = np.random.default_rng(5).normal(0.5, 1.0, 40).tolist()

    def walk(models):
        state = init(params)
        for x in xs:
            if state.stopped:
                state = init(params)
            state = step(state, params, models, None if next_action(state).kind == "idle"
                         else x).state
        return state

    models = (models2[0], models2[1])  # a tuple no other test has stepped
    assert walk(models) == walk(list(models))
    assert calls == [models] + [list(models)] * len(xs)
    # a list can change between steps, so each step checks it again
    listed = list(models)
    state = step(init(params), params, listed, 0.5).state
    listed[:] = (gaussian_model(1, 1.0), gaussian_model(2, 0.75))
    with pytest.raises(ValueError, match="quality ordering"):
        step(state, params, listed, 0.5)
    # a set that fails is never kept: each call raises again
    bad = (gaussian_model(1, 1.0), gaussian_model(2, 0.75))
    del calls[:]
    for _ in range(3):
        with pytest.raises(ValueError, match="quality ordering"):
            step(state, params, bad, 0.5)
    assert calls == [bad] * 3
    # the cached tuple is checked again for another m
    params3 = PolicyParams(m=3, A=5.0, scales={2: 1.0, 3: 1.0}, budgets={1: 1, 2: 1})
    step(state, params, models, 0.5)
    with pytest.raises(ValueError, match="m=3"):
        step(init(params3), params3, models, 0.5)


@pytest.mark.parametrize("cls, fields", [
    (LevelState, dict(level=1, floor=-0.75, remaining=2.0)),
    (EngineState, dict(statistic=-0.75, stack=(_TOP, LevelState(1, -0.75, 2.0)),
                       stopped=False, stop_reason=None, time=4)),
    (EngineState, dict(statistic=5.5, stack=(_TOP,), stopped=True,
                       stop_reason="threshold", time=9)),
    (StepResult, dict(state=EngineState(**_FINE), event="", action=Action("sample", 2))),
    (StepResult, dict(state=EngineState(**_FINE), event="stop", action=STOP)),
], ids=["level", "engine", "stopped", "step", "step-stop"])
def test_frozen_builds_what_the_constructor_builds(cls, fields):
    built, made = _frozen(cls, **fields), cls(**fields)
    assert type(built) is cls
    assert built == made and hash(built) == hash(made) and repr(built) == repr(made)
    assert pickle.loads(pickle.dumps(built)) == made
    assert replace(built) == made
    name = next(iter(fields))
    assert replace(built, **{name: fields[name]}) == made


def test_untruncated_top_step_keeps_the_top_entry(models2):
    # a step leaves its starting level's floor alone, and the untruncated
    # top's budget at inf, so the new state holds the state's own entry
    params = make_params2()
    state = init(params)
    top = state.stack[0]
    r = step(state, params, models2, obs_for(models2[1], 0.5))
    assert r.event == "" and r.state.stack[0] is top
    r = step(r.state, params, models2, obs_for(models2[1], -1.0))
    assert r.event == "descend" and r.state.stack[0] is top
    # a level-1 step spends its budget: the entry is built again
    low = r.state.stack[1]
    r = step(r.state, params, models2, obs_for(models2[0], -0.2))
    assert r.state.stack[0] is top
    assert r.state.stack[1] is not low and r.state.stack[1] == LevelState(1, -0.5, 1.0)
    # so does a truncated top step
    truncated = make_params2(top_truncation=5)
    state = init(truncated)
    r = step(state, truncated, models2, obs_for(models2[1], 0.5))
    assert r.state.stack[0] is not state.stack[0]
    assert r.state.stack == (LevelState(2, 0.0, 4.0),)

def test_random_episode_invariants(models3):
    params_rng = np.random.default_rng(2024)
    # (m, data_efficient, truncated top), 120 episodes each
    kinds = [(3, True, False), (1, False, False), (2, False, False), (3, False, False),
             (2, True, True), (3, False, True), (1, False, True)]
    for episode in range(120 * len(kinds)):
        m, de, truncated = kinds[episode // 120]
        budgets = {j: float(params_rng.integers(1, 5)) if j == 0
                   else round(float(params_rng.uniform(0.0, 4.0)), 2)
                   for j in range(0 if de else 1, m)}
        scales = {i: round(float(params_rng.uniform(0.5, 2.0)), 2)
                  for i in range(1 if de else 2, m + 1)}
        mu = round(float(params_rng.uniform(0.05, 0.3)), 2) if de else None
        top = round(float(params_rng.uniform(0.0, 6.0)), 2) if truncated else None
        params = PolicyParams(m=m, A=2.0, scales=scales, budgets=budgets, mu=mu,
                              data_efficient=de, top_truncation=top)
        models = models3[:m]
        obs_rng = np.random.default_rng((episode, 17))
        trunc_rng = np.random.default_rng((episode, 23))
        state = init(params, trunc_rng)
        top_budget = state.stack[0].remaining
        if truncated:
            assert top_budget <= math.ceil(top)
        prev_time = 0
        steps = 0
        top_steps = 0
        while not state.stopped:
            steps += 1
            assert steps < 5000, "episode failed to stop"
            action = next_action(state)
            active = state.stack[-1].level
            if action.kind == "idle":
                assert active == 0
                obs = None
            else:
                assert action == Action("sample", active)
                obs = float(obs_rng.normal(0.8, 1.0))
            top_steps += active == m
            r = step(state, params, models, obs, trunc_rng)
            state = r.state
            assert state.time == prev_time + 1
            prev_time = state.time
            levels = [s.level for s in state.stack]
            assert levels == list(range(m, levels[-1] - 1, -1))
            assert levels[-1] >= (0 if de else 1)
            floors = [s.floor for s in state.stack]
            assert floors[0] == 0.0
            assert all(hi > lo for hi, lo in zip(floors, floors[1:]))
            assert all(s.remaining >= 0.0 for s in state.stack)
            assert r.event in ("", "reflect", "descend", "bounce", "ascend", "stop")
            if r.event in ("descend", "ascend"):
                assert state.statistic == state.stack[-1].floor
            if state.stop_reason != "truncation":
                # a truncation stop keeps the last statistic, even below 0
                assert state.statistic >= state.stack[-1].floor - 1e-12
            if not state.stopped:
                assert state.statistic <= params.A
        assert top_steps <= top_budget
        if state.stop_reason == "truncation":
            assert truncated and top_steps == top_budget
        else:
            assert state.stop_reason == "threshold"


def test_rss_needs_two_ordered_models(models3):
    params = RssParams(A=3.0, p_hi=0.5)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        run_rss(params, models3, lambda e, n: 0.0, rng)
    with pytest.raises(ValueError):
        run_rss(params, (gaussian_model(1, 1.0),), lambda e, n: 0.0, rng)
    backwards = (gaussian_model(1, 1.0), gaussian_model(2, 0.5))
    with pytest.raises(ValueError):
        run_rss(params, backwards, lambda e, n: 0.0, rng)


def test_rss_always_hi_matches_reflected_recursion(models2):
    params = RssParams(A=50.0, p_hi=1.0)
    xs = np.random.default_rng(11).normal(0.0, 1.0, 400).tolist()

    def next_obs(exp, n):
        assert exp == 2
        return xs[n - 1]

    rows = []
    run = run_rss(params, models2, next_obs, np.random.default_rng(1),
                  max_steps=400, record=lambda *row: rows.append(row))
    assert run.counts[1] == 0
    assert run.counts[2] == 400
    assert len(rows) == 400
    terms = llr_terms(models2[1])
    d = 0.0
    for (n, exp, x, stat, event), ref_x in zip(rows, xs):
        assert event == ""
        d = max(d + llr_from_terms(terms, ref_x), 0.0)
        assert exp == 2
        assert x == ref_x
        assert stat == d


def test_rss_never_hi_still_starts_hi(models2):
    params = RssParams(A=50.0, p_hi=0.0)
    rng = np.random.default_rng(19)
    xs = np.random.default_rng(12).normal(0.0, 1.0, 300).tolist()
    rows = []
    run = run_rss(params, models2, lambda e, n: xs[n - 1], rng,
                  max_steps=300, record=lambda *row: rows.append(row))
    assert run.counts[2] == 1
    assert run.counts[1] == 299
    assert rows[0][1] == 2
    # from the second step onward the trajectory is the reflected recursion
    # on the lower-quality stream, seeded from the statistic after step 1
    d = max(llr_from_terms(llr_terms(models2[1]), xs[0]), 0.0)
    assert rows[0][3] == d
    terms = llr_terms(models2[0])
    for n, exp, x, stat, event in rows[1:]:
        assert exp == 1
        d = max(d + llr_from_terms(terms, x), 0.0)
        assert stat == d


def test_rss_coin_fraction(models2):
    params = RssParams(A=1e9, p_hi=0.5)
    rng = np.random.default_rng(101)
    obs_rng = np.random.default_rng(102)
    events = Counter()
    run = run_rss(params, models2, lambda e, n: obs_rng.normal(0.0, 1.0), rng,
                  max_steps=200_000, record=lambda n, exp, x, stat, event: events.update([event]))
    assert run.stopping_time is None
    assert events == {"": 200_000}
    total = run.counts[1] + run.counts[2]
    assert total == 200_000
    assert abs(run.counts[2] / total - 0.5) < 0.01


def test_rss_stops_on_reaching_threshold_exactly(models2):
    params = RssParams(A=3.0, p_hi=1.0)
    rows = []
    run = run_rss(params, models2, lambda e, n: 1.5, np.random.default_rng(0),
                  record=lambda *row: rows.append(row))
    assert run.stopping_time == 3
    assert run.statistic == 3.0
    assert run.counts == {1: 0, 2: 3}
    assert rows[-1] == (3, 2, 1.5, 3.0, "stop")
    assert [row[4] for row in rows] == ["", "", "stop"]
