"""Level-stack transitions, budget resolution, and the random-switch baseline."""

from __future__ import annotations

import copy
import math
import pickle
import re
from collections import Counter
from dataclasses import asdict, replace
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
from mecusum.engine import STOP, StepResult, _frozen
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


@pytest.mark.parametrize("flag, plain", [("no", False), (None, True), (1, False)])
def test_policy_params_flag_must_be_a_bool(flag, plain):
    # each built a policy, data-efficient as its truth value gave it
    keys = (dict(scales={2: 1.0}, budgets={1: 2}) if plain else
            dict(scales={1: 1.0, 2: 1.0}, budgets={0: 3, 1: 2}, mu=0.1))
    with pytest.raises(ValueError, match="^data_efficient must be a bool"):
        PolicyParams(m=2, A=5.0, data_efficient=flag, **keys)


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


@pytest.mark.parametrize("write", [
    lambda p: p.budgets.__setitem__(1, 2.5),
    lambda p: p.scales.__setitem__(2, -5.0),
    lambda p: p.budgets.__delitem__(1),
    lambda p: p.scales.update({2: 3.0}),
    lambda p: p.budgets.__ior__({1: 2.5}),
    lambda p: p.budgets.pop(1),
    lambda p: p.scales.popitem(),
    lambda p: p.budgets.setdefault(0, 1.0),
    lambda p: p.scales.clear(),
])
def test_policy_params_maps_are_read_only(write):
    # each write was accepted: budgets[1] = 2.5 left fixed_budgets at
    # (None, 2.0), so the engine went on running the budget 2.0, and
    # scales[2] = -5.0 passed though construction rejects it
    params = PolicyParams(m=2, A=5.0, scales={2: 1.0}, budgets={1: 2.0})
    with pytest.raises(TypeError, match="read-only"):
        write(params)
    assert (params.scales, params.budgets, params.fixed_budgets) == ({2: 1.0}, {1: 2.0},
                                                                      (None, 2.0))


def test_read_only_policies_read_copy_and_pickle_as_before():
    params = PolicyParams(m=2, A=5.0, scales={2: 1.5}, budgets={1: 2.5}, top_truncation=9.5)
    assert params.scales[2] == 1.5 and params.budgets.get(1) == 2.5
    assert params.budgets == {1: 2.5} and {1: 2.5} == params.budgets
    assert repr(params) == ("PolicyParams(m=2, A=5.0, scales={2: 1.5}, budgets={1: 2.5}, "
                            "mu=None, data_efficient=False, top_truncation=9.5)")
    assert asdict(params)["budgets"] == {1: 2.5}
    with pytest.raises(TypeError):
        hash(params)  # as with plain dicts: a policy holds two maps
    # a pickle holds the maps as plain dicts, as it did before they were
    # read-only, and loads them read-only
    assert b"ReadOnly" not in pickle.dumps(params)
    for made in (pickle.loads(pickle.dumps(params)), copy.deepcopy(params), copy.copy(params),
                 replace(params), replace(params, A=6.0)):
        assert made == replace(params, A=made.A)
        assert made.fixed_budgets == (None, None)
        with pytest.raises(TypeError, match="read-only"):
            made.budgets[1] = 3.0
    for made in (copy.deepcopy(params.scales), pickle.loads(pickle.dumps(params.scales))):
        assert made == {2: 1.5}
        with pytest.raises(TypeError, match="read-only"):
            made[2] = 3.0
    # a copy of a map is a plain dict, as a new policy's map may be
    assert type(params.scales.copy()) is dict and type(dict(params.scales)) is dict


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
    # step() reuses the state's entries of the levels above the one it
    # starts at and builds the others with _frozen, past the checks; each
    # state must equal the one the checked EngineState and LevelState
    # constructors build from the same values, worked out here as the
    # engine's float operations give them
    params = PolicyParams(m=3, A=math.inf, scales={2: 1.0, 3: 1.0},
                          budgets={1: 2, 2: 1})
    levels = (3, 2, 1, 1)
    xs = (obs_for(models3[2], -0.5), obs_for(models3[1], -0.3),
          obs_for(models3[0], 0.1), obs_for(models3[0], 0.3))
    llr = [llr_from_terms(models3[j - 1].terms, x) for j, x in zip(levels, xs)]
    # below the top floor 0.0: level 2 opens at the scaled undershoot
    f2 = 0.0 + 1.0 * ((0.0 + llr[0]) - 0.0)
    # level 2's only observation undershoots its floor: level 1 opens anyway
    f1 = f2 + 1.0 * ((f2 + llr[1]) - f2)
    top = LevelState(3, 0.0, math.inf)
    expected = [
        ("descend", EngineState(f2, (top, LevelState(2, f2, 1.0)), False, None, 1)),
        ("descend", EngineState(f1, (top, LevelState(2, f2, 0.0), LevelState(1, f1, 2.0)),
                                False, None, 2)),
        ("", EngineState(f1 + llr[2], (top, LevelState(2, f2, 0.0), LevelState(1, f1, 1.0)),
                         False, None, 3)),
        # level 1 closes and lands on the exhausted level 2, which closes too
        ("ascend", EngineState(0.0, (top,), False, None, 4)),
    ]
    state = init(params)
    for x, (event, want) in zip(xs, expected):
        r = step(state, params, models3, x)
        assert r.event == event
        assert r.state == want
        assert r.action is next_action(r.state)
        assert r.state.stack[0] is state.stack[0]  # the top's entry is reused
        state = r.state
    assert r.action == Action("sample", 3)


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
    idle = EngineState(-1.5, (LevelState(2, 0.0, math.inf), LevelState(1, -1.0, 1.0),
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
    # these stepped on: a level-1 floor above the top floor to an ascend, a
    # top statistic above A to a stop below it, a top floor of 5.0 to a
    # statistic of 5.0 on the next ascent, a negative top statistic to a
    # descent, a level-1 statistic above the top floor
    pytest.param("stack", lambda: EngineState(0.0, (_TOP, LevelState(1, 5.0, 2.0)),
                                              False, None, 1), id="stack-rising-floor"),
    pytest.param("statistic", lambda: step(EngineState(9.0, (_TOP,), False, None, 1),
                                           make_params2(), (gaussian_model(1, 0.75),
                                                            gaussian_model(2, 1.0)), 0.0),
                 id="statistic-above-A"),
    pytest.param("stack", lambda: EngineState(0.0, (LevelState(2, 5.0, math.inf),),
                                              False, None, 1), id="stack-top-floor"),
    pytest.param("statistic", lambda: EngineState(-3.0, (_TOP,), False, None, 1),
                 id="statistic-below-floor"),
    pytest.param("statistic", lambda: EngineState(0.5, (_TOP, LevelState(1, -2.0, 2.0)),
                                                  False, None, 1), id="statistic-above-ceiling"),
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


# The online API fuzzed one argument at a time: each of these calls, with
# one argument swapped for one of _WRONG, must return a result, raise a
# ValueError that names the argument, or raise the RuntimeError of a
# stopped state. A state whose levels do not fit the policy fails with one
# message for either argument, which names both: "a policy with m=2 needs
# a state whose levels run ...". Two of the swaps failed otherwise: an int
# past the float range as the observation (an OverflowError from
# math.isfinite), and next_action() of a state with no levels (an
# IndexError).
_FRACTIONAL = PolicyParams(m=2, A=5.0, scales={2: 1.0}, budgets={1: 2.5}, top_truncation=10.5)
_IDLING = PolicyParams(m=2, A=5.0, scales={1: 1.0, 2: 1.0}, budgets={0: 2.5, 1: 1.5},
                       mu=0.1, data_efficient=True)
_FUZZ_MODELS = (gaussian_model(1, 0.75), gaussian_model(2, 1.0))
_AT_TOP = EngineState(0.0, (LevelState(2, 0.0, 10.0),), False, None, 0)
_AT_IDLE = EngineState(-1.5, (LevelState(2, 0.0, math.inf), LevelState(1, -1.0, 1.0),
                              LevelState(0, -2.0, 2.0)), False, None, 3)
_STOPPED = EngineState(6.0, (LevelState(2, 0.0, 9.0),), True, "threshold", 4)
_ONLINE_CALLS = {
    # an undershoot at the top: the descent reads a coin for level 1's budget
    "step-descent": (step, ("state", "params", "models", "observation", "rng"),
                     (_AT_TOP, _FRACTIONAL, _FUZZ_MODELS, obs_for(_FUZZ_MODELS[1], -1.0))),
    "step-idle": (step, ("state", "params", "models", "observation", "rng"),
                  (_AT_IDLE, _IDLING, _FUZZ_MODELS, None)),
    "step-stopped": (step, ("state", "params", "models", "observation", "rng"),
                     (_STOPPED, _FRACTIONAL, _FUZZ_MODELS, 0.5)),
    # the fractional top truncation reads a coin
    "init": (init, ("params", "rng"), (_FRACTIONAL,)),
    "next_action": (next_action, ("state",), (_AT_TOP,)),
    "next_action-stopped": (next_action, ("state",), (_STOPPED,)),
}
_WRONG = {
    "bool": True, "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "str": "1.0",
    "None": None, "object": object(), "empty-models": (), "huge-int": 10**400,
    "level": LevelState(1, -1.0, 1.0), "rss": RssParams(A=1.0, p_hi=0.5),
    "no-levels": EngineState(0.0, (), False, None, 0), "policy": _FRACTIONAL,
    "models": _FUZZ_MODELS, "one-model": [_FUZZ_MODELS[0]],
}


@pytest.mark.parametrize("wrong", _WRONG)
@pytest.mark.parametrize("call", _ONLINE_CALLS)
def test_online_api_fails_loudly_on_any_wrong_argument(call, wrong):
    fn, names, args = _ONLINE_CALLS[call]
    for at, name in enumerate(names):
        given = list(args)
        if "rng" in names:
            given.append(np.random.default_rng(0))
        given[at] = _WRONG[wrong]
        try:
            out = fn(*given)
        except ValueError as error:
            # the argument is named before the value it got
            named = "params|policy" if name == "params" else name
            assert re.search(rf"\b({named})\b", str(error).split(", got")[0]), (name, error)
        except RuntimeError as error:
            assert given[0] is _STOPPED and "stopped" in str(error), (name, error)
        else:
            assert isinstance(out, (StepResult, EngineState, Action)), (name, out)
