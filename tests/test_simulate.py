"""Seeded episode simulation: scenarios, traces, summaries, regime switch."""

from __future__ import annotations

import inspect
import math
import pickle
import sys
import time
from collections.abc import Iterable
from dataclasses import replace
from functools import partial
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mecusum import (
    Action,
    DensitySpec,
    ExperimentModel,
    PolicyParams,
    RssParams,
    Scenario,
    episode_summary,
    estimate_arlfa,
    estimate_wadd,
    init,
    run_episode,
    run_rss,
    step,
)
from mecusum import simulate
from mecusum.densities import llr_from_terms, llr_terms
from mecusum.metrics import _trial_table
from mecusum.simulate import (
    RENEWAL_TAG,
    EpisodeKeys,
    _RenewalKernel,
    control_generator,
    observation_generator,
    seed_entropy,
)
from mecusum.engine import _Stream
from conftest import assert_rows_are_episodes, gaussian_model


def make_scenario(models, change_point, horizon=None):
    return Scenario(tuple(models), change_point, horizon)


def test_scenario_validation(models2):
    with pytest.raises(ValueError):
        make_scenario(models2, 0)
    with pytest.raises(ValueError):
        make_scenario(models2, -2)
    with pytest.raises(ValueError):
        make_scenario(models2, 2.5)
    with pytest.raises(ValueError, match="^change_point must be an integer"):
        make_scenario(models2, True)  # True == 1, but a bool is no change point
    with pytest.raises(ValueError):
        make_scenario(models2, -math.inf)
    with pytest.raises(ValueError):
        make_scenario(models2, 1, horizon=0)
    with pytest.raises(ValueError):
        make_scenario(models2, 1, horizon=-5)
    backwards = (gaussian_model(1, 1.0), gaussian_model(2, 0.5))
    with pytest.raises(ValueError):
        make_scenario(backwards, 1)
    ok = make_scenario(models2, 3.0)
    assert ok.change_point == 3
    assert make_scenario(models2, math.inf, horizon=10).change_point == math.inf


def test_infinite_change_needs_horizon(models2):
    params = PolicyParams(m=2, A=5.0, scales={2: 1.0}, budgets={1: 2})
    with pytest.raises(ValueError):
        run_episode(params, make_scenario(models2, math.inf), seed=1)


def test_policy_model_count_mismatch(models2):
    params = PolicyParams(m=1, A=5.0)
    with pytest.raises(ValueError):
        run_episode(params, make_scenario(models2, 1), seed=1)


def test_same_seed_same_trace(models2):
    params = PolicyParams(m=2, A=3.0, scales={2: 1.0}, budgets={1: 2.5})
    scenario = make_scenario(models2, 1)
    a = run_episode(params, scenario, seed=42)
    b = run_episode(params, scenario, seed=42)
    assert a.stopping_time == b.stopping_time
    assert a.counts == b.counts
    assert [s.statistic for s in a.steps] == [s.statistic for s in b.steps]
    assert [s.observation for s in a.steps] == [s.observation for s in b.steps]
    c = run_episode(params, scenario, seed=43)
    assert [s.statistic for s in a.steps] != [s.statistic for s in c.steps]
    assert a.seed == 42


def test_pre_change_run_fills_horizon(models2):
    params = PolicyParams(m=2, A=50.0, scales={2: 1.0}, budgets={1: 2})
    trace = run_episode(params, make_scenario(models2, math.inf, horizon=5000), seed=7)
    assert trace.stopping_time is None
    assert trace.stop_reason is None
    assert len(trace.steps) == 5000
    assert sum(trace.counts.values()) == 5000
    assert [s.n for s in trace.steps[:3]] == [1, 2, 3]


def test_single_level_trace_matches_reflected_recursion():
    models = (gaussian_model(1, 1.0),)
    params = PolicyParams(m=1, A=math.log(20.0))
    terms = llr_terms(models[0])
    for seed in range(100):
        trace = run_episode(params, make_scenario(models, 1), seed=(seed, 50))
        d = 0.0
        for step_row in trace.steps:
            d = max(d + llr_from_terms(terms, step_row.observation), 0.0)
            if d > params.A:
                assert step_row.event == "stop"
                break
            assert step_row.statistic == d
        assert trace.stopping_time == len(trace.steps)
        assert trace.stop_reason == "threshold"
        assert trace.counts[1] == len(trace.steps)


def test_two_level_sampling_rule(models2):
    # the informative experiment is sampled exactly when the statistic is
    # at or above zero, i.e. while the top level is active
    params = PolicyParams(m=2, A=50.0, scales={2: 1.0}, budgets={1: 2.5})
    trace = run_episode(params, make_scenario(models2, math.inf, horizon=4000), seed=3)
    assert trace.steps[0].level == 2
    for prev, cur in zip(trace.steps, trace.steps[1:]):
        assert cur.level == (2 if prev.statistic >= 0.0 else 1)
        assert cur.action.experiment == cur.level
        assert set(trace.counts) == {0, 1, 2}
    assert trace.counts[0] == 0
    assert trace.counts[1] > 0
    assert trace.counts[2] > 0


def test_three_level_visits_all_levels(models3):
    params = PolicyParams(m=3, A=50.0, scales={2: 1.0, 3: 1.0},
                          budgets={1: 3, 2: 2})
    trace = run_episode(params, make_scenario(models3, math.inf, horizon=6000), seed=9)
    seen = {s.level for s in trace.steps}
    assert seen == {1, 2, 3}
    for s in trace.steps:
        assert s.action == Action("sample", s.level)
    assert sum(trace.counts.values()) == 6000


def test_idle_steps_climb_at_the_configured_rate(models2):
    params = PolicyParams(m=2, A=50.0, scales={1: 1.0, 2: 1.0},
                          budgets={0: 5, 1: 3}, mu=0.1, data_efficient=True)
    trace = run_episode(params, make_scenario(models2, math.inf, horizon=6000), seed=11)
    idle_rows = [s for s in trace.steps if s.level == 0]
    assert idle_rows
    assert all(s.action.kind == "idle" and s.observation is None for s in idle_rows)
    assert trace.counts[0] == len(idle_rows)
    climbing_pairs = 0
    for prev, cur in zip(trace.steps, trace.steps[1:]):
        if prev.level == 0 and prev.event == "" and cur.level == 0 and cur.event == "":
            assert cur.statistic - prev.statistic == pytest.approx(0.1, abs=1e-12)
            climbing_pairs += 1
    assert climbing_pairs > 0


def test_summary_matches_trace(models2):
    params = PolicyParams(m=2, A=3.0, scales={2: 1.0}, budgets={1: 2})
    scenario = make_scenario(models2, 1)
    trace = run_episode(params, scenario, seed=77)
    summary = episode_summary(params, scenario, seed=77)
    assert summary.stopping_time == trace.stopping_time
    assert summary.stop_reason == trace.stop_reason
    assert summary.counts == trace.counts
    assert summary.steps_run == len(trace.steps)


class Counted:
    """A control generator that counts its scalar draws."""

    def __init__(self, gen):
        self.gen, self.drawn = gen, 0

    def random(self):
        self.drawn += 1
        return self.gen.random()


def test_step_replays_run_episode(models2, models3):
    # the public step(), fed a trace's observations and the episode's control
    # stream, retraces the episode step for step, and episode_summary stops
    # where the trace stops. At A = 8 with a horizon of 2000 the episodes run
    # long enough that a level's stream crosses its 16 -> 32 -> 64 block
    # refills in the middle of a visit, and the control stream its 16 -> 32
    # refills. The A = 3 runs have a horizon too, so a kernel fault that
    # makes the walk cycle fails instead of running on
    policies = [
        (PolicyParams(m=1, A=3.0), (gaussian_model(1, 1.0),)),
        (PolicyParams(m=2, A=3.0, scales={2: 1.2}, budgets={1: 2.5}), models2),
        (PolicyParams(m=3, A=3.0, scales={2: 1.0, 3: 0.8}, budgets={1: 3.5, 2: 1.25}),
         models3),
        (PolicyParams(m=2, A=3.0, scales={1: 0.9, 2: 1.0}, budgets={0: 2.5, 1: 1.5},
                      mu=0.1, data_efficient=True), models2),
        (PolicyParams(m=2, A=3.0, scales={2: 1.0}, budgets={1: 2}, top_truncation=2.5),
         models2),
        (PolicyParams(m=1, A=3.0, top_truncation=0.5), (gaussian_model(1, 1.0),)),
    ]
    runs = [(3.0, (5,), 5000, range(20)), (8.0, (1, 5, math.inf), 2000, range(6))]
    stops = set()
    lower_draws = control_draws = 0
    for A, change_points, horizon, seeds in runs:
        for params, models in policies:
            params = replace(params, A=A)
            for nu in change_points:
                scenario = make_scenario(models, nu, horizon)
                for seed in seeds:
                    trace = run_episode(params, scenario, seed)
                    summary = episode_summary(params, scenario, seed)
                    assert ((summary.stopping_time, summary.stop_reason, summary.counts)
                            == (trace.stopping_time, trace.stop_reason, trace.counts))
                    lower_draws = max([lower_draws] + [trace.counts[j]
                                                       for j in range(1, params.m)])
                    rng = Counted(control_generator(seed))
                    state = init(params, rng)
                    for row in trace.steps:
                        assert not state.stopped
                        assert row.level == state.stack[-1].level
                        r = step(state, params, models, row.observation, rng)
                        state = r.state
                        assert (state.time, state.statistic, r.event) == (row.n, row.statistic,
                                                                          row.event)
                    assert state.stopped == (trace.stopping_time is not None)
                    if state.stopped:
                        assert (state.time, state.stop_reason) == (trace.stopping_time,
                                                                   trace.stop_reason)
                    else:
                        assert state.time == horizon
                    stops.add((state.stop_reason, state.time == 0))
                    control_draws = max(control_draws, rng.drawn)
    assert stops == {("threshold", False), ("truncation", False), ("truncation", True),
                     (None, False)}
    # some lower level drew past its third block, some control stream past
    # its second
    assert lower_draws > 16 + 32 + 64
    assert control_draws > 16 + 32


_MODELS3 = (gaussian_model(1, 0.5), gaussian_model(2, 0.75), gaussian_model(3, 1.0))
_MODELS4 = _MODELS3 + (gaussian_model(4, 1.25),)
_HORIZON = 600


@st.composite
def _policies(draw):
    m = draw(st.integers(1, 4))
    de = draw(st.booleans())
    # two decimals, so most budgets are fractional and some are integers
    budget = st.floats(0.0, 4.0).map(lambda b: round(b, 2))
    return PolicyParams(
        m=m,
        A=draw(st.floats(1.0, 6.0)),
        scales={i: draw(st.floats(0.5, 2.0)) for i in range(1 if de else 2, m + 1)},
        budgets={j: draw(budget) for j in range(0 if de else 1, m)},
        mu=draw(st.floats(0.05, 0.3)) if de else None,
        data_efficient=de,
        top_truncation=draw(st.one_of(st.none(), st.floats(0.0, 60.0).map(lambda t: round(t, 2)))),
    )


@settings(deadline=None, max_examples=150)
@given(params=_policies(), unbounded=st.integers(0, 4),
       change_point=st.one_of(st.sampled_from([1, 7, math.inf]), st.integers(2, 5000)),
       horizon=st.integers(1, 5000), seed=st.integers(0, 2**32 - 1))
def test_kernel_properties(params, unbounded, change_point, horizon, seed):
    # an unrecorded episode runs its pre-change steps on the renewal kernel's
    # visit recursion and hands the rest to the engine near min(nu - 1,
    # horizon); a recorded one runs every step on the engine. Horizons and
    # change points from 1 to 5000 put that handover at every distance from
    # the limit; at times A is infinite, as estimate_por_direct sets it
    if unbounded == 0:
        params = replace(params, A=math.inf)
    models = _MODELS4[:params.m]
    scenario = make_scenario(models, change_point, horizon)
    summary = episode_summary(params, scenario, seed)
    trace = run_episode(params, scenario, seed)
    assert ((summary.stopping_time, summary.stop_reason, summary.counts)
            == (trace.stopping_time, trace.stop_reason, trace.counts))
    # time equals the sum of the counts
    assert summary.steps_run == sum(summary.counts.values()) == len(trace.steps)
    assert [row.n for row in trace.steps] == list(range(1, summary.steps_run + 1))
    if summary.stopping_time is not None:
        assert summary.steps_run == summary.stopping_time
    else:
        assert summary.steps_run == horizon and summary.stop_reason is None
    if params.top_truncation is not None:
        assert summary.counts[params.m] <= math.ceil(params.top_truncation)
    # every state on the way keeps the level-stack invariants; step() replays
    # the first _HORIZON steps
    rng = control_generator(seed)
    state = init(params, rng)
    for row in trace.steps[:_HORIZON]:
        state = step(state, params, models, row.observation, rng).state
        assert state.statistic == row.statistic
        levels = [s.level for s in state.stack]
        assert levels == list(range(params.m, levels[-1] - 1, -1))
        assert levels[-1] >= (0 if params.data_efficient else 1)
        assert all(s.remaining >= 0.0 for s in state.stack)
        floors = [s.floor for s in state.stack] + [params.A]
        if state.stop_reason is None:
            # floor <= statistic <= the parent floor, or A at the top
            assert floors[-2] <= state.statistic <= floors[-1]
    if summary.steps_run <= _HORIZON:
        assert (state.time, state.stop_reason) == (summary.steps_run, summary.stop_reason)


@settings(deadline=None, max_examples=100)
@given(params=_policies(), change_point=st.sampled_from([1, 30, math.inf]),
       seed=st.integers(0, 2**32 - 1))
@example(params=PolicyParams(m=4, A=4.0, scales={1: 0.7, 2: 1.3, 3: 0.9, 4: 1.1},
                             budgets={0: 1.5, 1: 2.25, 2: 0.5, 3: 3.0}, mu=0.2,
                             data_efficient=True, top_truncation=40.5),
         change_point=math.inf, seed=3)
def test_step_replays_episodes_of_any_policy(params, change_point, seed):
    # step(), fed an episode's observations and its control generator, takes
    # each step as the episode's engine took it: the same statistic, event,
    # level and time, and the same control draws. A step draws one coin
    # when its statistic undershoots a floor below which a level with a
    # fractional budget would open (worked out here from the state and the
    # observation's LLR), and init one for a fractional top truncation
    models = _MODELS4[:params.m]
    trace = run_episode(params, make_scenario(models, change_point, 300), seed)
    rng = Counted(control_generator(seed))
    state = init(params, rng)
    top = params.top_truncation
    assert rng.drawn == (top is not None and not top.is_integer())
    lowest = 0 if params.data_efficient else 1
    for row in trace.steps:
        entry = state.stack[-1]
        level = entry.level
        assert (row.level, row.n) == (level, state.time + 1)
        if level == 0:
            d = state.statistic + params.mu
        else:
            d = state.statistic + llr_from_terms(models[level - 1].terms, row.observation)
        floor = 0.0 if level == params.m else entry.floor
        opens = (level > lowest and d < floor
                 and not (level == params.m and entry.remaining <= 1.0))
        drawn = rng.drawn
        r = step(state, params, models, row.observation, rng)
        state = r.state
        assert (state.statistic, r.event, state.time) == (row.statistic, row.event, row.n)
        assert rng.drawn - drawn == (opens and params.fixed_budgets[level - 1] is None)
    assert (state.stopped, state.stop_reason) == (trace.stopping_time is not None,
                                                  trace.stop_reason)
    assert state.time == len(trace.steps)


# the benchmark's false-alarm policies at gamma = 1000, each with a seed
# whose episode runs past the 16 -> 4096 block schedule (8176 values) and a
# 4096 refill at the top level, and the reason it stops for; the top
# truncations run on the kernel too, which leaves the step that spends the
# top budget to the engine
_MODELS2 = (gaussian_model(1, 0.75), gaussian_model(2, 1.0))
_TRUNCATED = PolicyParams(m=2, A=math.log(1000.0), scales={2: 1.0}, budgets={1: 2.5},
                          top_truncation=20000.5)
_FALSE_ALARM_CASES = {
    "cusum": (PolicyParams(m=1, A=math.log(1000.0)), (gaussian_model(1, 1.0),), 8, "threshold"),
    "2e": (PolicyParams(m=2, A=math.log(1000.0), scales={2: 1.0}, budgets={1: 2.0}),
           _MODELS2, 0, "threshold"),
    "3e": (PolicyParams(m=3, A=math.log(1000.0), scales={2: 1.0, 3: 1.0},
                        budgets={1: 3.0, 2: 2.0}), _MODELS3, 12, "threshold"),
    "de2e": (PolicyParams(m=2, A=math.log(1000.0), scales={1: 1.0, 2: 1.0},
                          budgets={0: 3.0, 1: 2.0}, mu=0.1, data_efficient=True),
             _MODELS2, 0, "threshold"),
    "2e-top-truncated": (_TRUNCATED, _MODELS2, 0, "threshold"),
    # the same episode, whose top budget now runs out first
    "2e-top-budget-spent": (replace(_TRUNCATED, top_truncation=3000.5), _MODELS2, 0,
                            "truncation"),
}


@pytest.mark.parametrize("name", _FALSE_ALARM_CASES)
def test_false_alarm_episodes_on_the_kernel_equal_the_engine(monkeypatch, name):
    params, models, seed, reason = _FALSE_ALARM_CASES[name]
    scenario = make_scenario(models, math.inf, 10**7)
    runs = []
    pre_change = _RenewalKernel.pre_change

    def counted(kernel, core, stop):
        runs.append(stop)
        return pre_change(kernel, core, stop)

    monkeypatch.setattr(_RenewalKernel, "pre_change", counted)
    summary = episode_summary(params, scenario, seed)
    trace = run_episode(params, scenario, seed)
    assert runs == [10**7]
    assert ((summary.stopping_time, summary.stop_reason, summary.counts)
            == (trace.stopping_time, trace.stop_reason, trace.counts))
    assert summary.stop_reason == reason
    if reason == "truncation":
        assert summary.counts[params.m] in (3000, 3001)
    else:
        assert summary.counts[params.m] > 8176 + 4096


def test_kernel_functions_are_compiled_once_per_shape():
    # two policies of one shape (m = 4, plain, budgets int/coin/int below
    # the top) share one compiled function; the numbers are arguments.
    # Each source is registered with linecache under a name giving its
    # shape, so inspect, tracebacks and profilers show its lines
    a = PolicyParams(m=4, A=5.0, scales={2: 1.0, 3: 1.5, 4: 2.0}, budgets={1: 2, 2: 0.5, 3: 3})
    b = PolicyParams(m=4, A=7.0, scales={2: 0.5, 3: 2.0, 4: 1.0}, budgets={1: 9, 2: 4.2, 3: 1})
    rows = []
    for params, seed in ((a, 1), (b, 2)):
        before = simulate._compiled.cache_info()
        rows.append(list(_RenewalKernel(params, _MODELS4, seed).run(40)))
        after = simulate._compiled.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    assert after.currsize <= after.maxsize
    assert rows[0] != rows[1]
    shape = simulate._layout(a)[0]
    assert shape == simulate._layout(b)[0] == (4, False, ("int", "coin", "int"), None)
    run = simulate._compiled("run", shape)
    assert run.__code__.co_filename == "<mecusum kernel run m=4 de=0 levels=int,coin,int rec=none>"
    assert inspect.getsource(run).startswith(
        "def run(cycles, put4, put3, put2, put1, s4, s3, s2, s1, cs, a4, g3,")


def test_episode_kernel_layout_is_built_once_per_policy(monkeypatch):
    # every episode of a policy with nu > 1 builds a kernel on its streams;
    # the layout (record -1) is built on the first and kept on the policy,
    # which a pickle, repr, equality and replace() do not see
    params = PolicyParams(m=3, A=5.0, scales={2: 1.0, 3: 1.5}, budgets={1: 2.5, 2: 2.0})
    pickled, shown = pickle.dumps(params), repr(params)
    built = []
    layout = simulate._layout

    def counted(params, record=-1):
        built.append(record)
        return layout(params, record)

    monkeypatch.setattr(simulate, "_layout", counted)
    first = episode_summary(params, make_scenario(_MODELS3, math.inf, 2000), 1)
    assert episode_summary(params, make_scenario(_MODELS3, 50, 2000), 2)
    kept = params.kernel_layout
    assert built == [-1, -1] and layout(params) is kept
    assert kept == ((3, False, ("int", "coin"), None), (1.5, 2, 1.0, 2, 3, 0.5), 2 + 2 * 3)
    # another record level is built afresh and not kept
    assert layout(params, 1)[0] == (3, False, ("int", "coin"), 1)
    assert params.kernel_layout is kept
    assert (pickle.dumps(params), repr(params)) == (pickled, shown)
    fresh = replace(params)
    assert fresh == params and not hasattr(fresh, "kernel_layout")
    assert episode_summary(fresh, make_scenario(_MODELS3, math.inf, 2000), 1) == first


@st.composite
def _lockstep_cases(draw):
    """A policy, or at times an RSS one; its models, whose post-change std
    differs from the pre-change one; a change point; a horizon."""
    params = draw(_policies())
    std = draw(st.floats(0.5, 2.0))
    # one post-change std and ascending means keep KL non-decreasing in id
    means = sorted(draw(st.lists(st.floats(0.25, 1.5), min_size=params.m, max_size=params.m)))
    models = tuple(ExperimentModel(i, DensitySpec("gaussian", 0.0, 1.0),
                                   DensitySpec("gaussian", mean, std))
                   for i, mean in enumerate(means, 1))
    if params.m == 2 and draw(st.booleans()):
        params = RssParams(A=params.A, p_hi=draw(st.floats(0.0, 1.0)))
    change_point = draw(st.one_of(st.integers(1, 150), st.just(math.inf)))
    return params, models, change_point, draw(st.integers(1, 400))


@settings(deadline=None, max_examples=60)
@given(case=_lockstep_cases(), seed=st.integers(0, 2**32 - 1), min_rows=st.integers(1, 40),
       handoff=st.integers(0, 40))
def test_lockstep_summaries_equal_scalar_episodes(case, seed, min_rows, handoff):
    # the lockstep runner steps 40 episodes together, compacting its rows
    # down to min_rows and handing the last handoff trials to the scalar
    # loops, or all 40 at time 0 from a handoff of 40 on; each row must be
    # the one its own scalar episode gives
    params, models, change_point, horizon = case
    scenario = make_scenario(models, change_point, horizon)
    with patch.object(simulate, "_MIN_ROWS", min_rows), \
            patch.object(simulate, "_HANDOFF_ROWS", handoff):
        lockstep = simulate._lockstep(params, scenario, EpisodeKeys((seed,), 40))
    assert_rows_are_episodes(lockstep, params, scenario, (seed,))


_HANDED_OFF = {
    "2e-fractional": PolicyParams(m=2, A=5.0, scales={2: 1.5}, budgets={1: 2.5},
                                  top_truncation=1500.5),
    "3e": PolicyParams(m=3, A=5.0, scales={2: 1.0, 3: 1.0}, budgets={1: 3.0, 2: 2.0}),
}


@pytest.mark.parametrize("handoff", [40, 20])
@pytest.mark.parametrize("nu", [math.inf, 2000])
@pytest.mark.parametrize("name", _HANDED_OFF)
def test_handed_off_trials_run_on_the_kernel(monkeypatch, models3, name, nu, handoff):
    # the lockstep runner hands each of its last trials to the scalar loops
    # at the top level, where the visit recursion takes its pre-change
    # steps. With every trial handed off, that is at time 0; with half of
    # them, each one once half have stopped and it is back at the top, its
    # streams part-way through a block
    params = _HANDED_OFF[name]
    scenario = make_scenario(models3[:params.m], nu, 5000)
    runs = []
    pre_change = _RenewalKernel.pre_change

    def counted(kernel, core, stop):
        time = core.time
        pre_change(kernel, core, stop)
        runs.append(core.time - time)

    monkeypatch.setattr(simulate, "_HANDOFF_ROWS", handoff)
    monkeypatch.setattr(_RenewalKernel, "pre_change", counted)
    lockstep = simulate._lockstep(params, scenario, EpisodeKeys((5,), 40))
    assert len(runs) == handoff
    if handoff == 40:
        assert min(runs) > 0
    assert_rows_are_episodes(lockstep, params, scenario, (5,))


@pytest.mark.parametrize("split", [False, True], ids=["one-batch", "split"])
@pytest.mark.parametrize("rss", [False, True])
def test_small_post_change_calls_run_on_the_scalar_loops(monkeypatch, models2, rss, split):
    # with the change at 1 no normals are kept, yet a call of at most
    # _HANDOFF_ROWS trials goes to the scalar loops at time 0, before any
    # batch array or stream is built: each trial runs its whole episode
    # there, and its core reads the top truncation coin itself, as a single
    # episode's core does. The rule goes by the call's trials, not a
    # batch's: split into batches of 32 and 8 against a hand-off size of 20,
    # both batches run in lockstep, and with no normals kept none is handed
    # off later
    if split:
        monkeypatch.setattr(simulate, "_KEY_CHUNK", 32)
        monkeypatch.setattr(simulate, "_MIN_ROWS", 4)
        monkeypatch.setattr(simulate, "_HANDOFF_ROWS", 20)
    params = (RssParams(A=3.0, p_hi=0.5) if rss else
              PolicyParams(m=2, A=3.0, scales={2: 1.0}, budgets={1: 2.5}, top_truncation=20.5))
    starts = []
    if rss:
        run_rss = simulate._run_rss

        def spy(params, streams, ctrl, nu, horizon, record=None, n=0, d=0.0, lows=0):
            starts.append((n, d, lows))
            return run_rss(params, streams, ctrl, nu, horizon, record, n, d, lows)

        monkeypatch.setattr(simulate, "_run_rss", spy)
    else:
        episode_runs = simulate._episode_runs

        def spy(params, core, *args, **kwargs):
            starts.append((core.time, core.D, core.level, tuple(core.counts)))
            return episode_runs(params, core, *args, **kwargs)

        monkeypatch.setattr(simulate, "_episode_runs", spy)
    trials = 40
    scenario = make_scenario(models2, 1, 500)
    table = simulate._lockstep(params, scenario, EpisodeKeys((7,), trials))
    start = (0, 0.0, 0) if rss else (0, 0.0, 2, (0, 0, 0))
    assert starts == ([] if split else [start] * trials)
    assert_rows_are_episodes(table, params, scenario, (7,))


def test_rss_episode_trace(models2):
    params = RssParams(A=3.0, p_hi=0.5)
    trace = run_episode(params, make_scenario(models2, 1), seed=21)
    assert trace.stop_reason == "threshold"
    assert trace.stopping_time == len(trace.steps)
    assert trace.steps[-1].event == "stop"
    assert all(s.level == s.action.experiment for s in trace.steps)
    assert trace.steps[0].level == 2
    assert trace.counts[1] + trace.counts[2] == len(trace.steps)
    # rows are written as the steps are taken: only the last one stops
    assert [s.event for s in trace.steps[:-1]] == [""] * (len(trace.steps) - 1)
    summary = episode_summary(params, make_scenario(models2, 1), seed=21)
    assert ((summary.stopping_time, summary.stop_reason, summary.counts)
            == (trace.stopping_time, trace.stop_reason, trace.counts))

    capped = run_episode(params, make_scenario(models2, math.inf, horizon=40),
                         seed=(21, 1))
    if capped.stopping_time is None:
        assert capped.stop_reason is None
        assert len(capped.steps) == 40


@settings(deadline=None, max_examples=120)
@given(seed=st.integers(0, 2**32 - 1), nu=st.sampled_from([1, 7, 40, 100, math.inf]),
       p_hi=st.sampled_from([0.0, 0.3, 1.0]), A=st.sampled_from([3.0, math.inf]),
       horizon=st.one_of(st.none(), st.integers(100, 300)))
def test_rss_episodes_match_the_public_run_rss(seed, nu, p_hi, A, horizon):
    # the episodes' private loop against the callback-fed run_rss, given the
    # episode's observation streams and one control-stream random() per coin.
    # An infinite A or change point runs to a horizon of at least 100 steps,
    # past the coin blocks that end at 16 and 48; change points 40 and 100
    # fall inside the coins' 32- and 64-value blocks
    if math.isinf(nu) or math.isinf(A):
        horizon = horizon or 100
    models = (gaussian_model(1, 0.75), gaussian_model(2, 1.0))
    params = RssParams(A=A, p_hi=p_hi)
    scenario = make_scenario(models, nu, horizon)
    trace = run_episode(params, scenario, seed)
    normals = {mdl.id: iter(observation_generator(seed, mdl.id).standard_normal(
        horizon or 10_000).tolist()) for mdl in models}

    def next_obs(exp, n):
        density = models[exp - 1].post if n >= nu else models[exp - 1].pre
        return density.mean + density.std * next(normals[exp])

    rows = []
    ref = run_rss(params, models, next_obs, control_generator(seed), max_steps=horizon,
                  record=lambda *row: rows.append(row))
    assert [(s.n, s.level, s.observation, s.statistic, s.event) for s in trace.steps] == rows
    assert all(s.action == Action("sample", s.level) for s in trace.steps)
    assert trace.stopping_time == ref.stopping_time
    assert trace.stop_reason == (None if ref.stopping_time is None else "threshold")
    assert trace.counts == {0: 0, **ref.counts}
    summary = episode_summary(params, scenario, seed)
    assert (summary.stopping_time, summary.counts) == (ref.stopping_time, trace.counts)


def test_finite_change_point_without_horizon_stops_at_the_safety_horizon(models2):
    # idle at a climb rate of 1e-9 with a budget of 1e9 steps, the walk would
    # not reach the change at 10**9 for hours; the episode is cut at
    # 1e4 * e^A = 27182 steps instead, reported like any horizon cut. Seed 0
    # reaches the idle level (seed 3 false-alarms at step 1).
    params = PolicyParams(m=2, A=1.0, scales={1: 1.0, 2: 1.0}, budgets={0: 1e9, 1: 1},
                          mu=1e-9, data_efficient=True)
    scenario = make_scenario(models2, 10**9)
    start = time.perf_counter()
    summary = episode_summary(params, scenario, seed=0)
    assert time.perf_counter() - start < 1.0
    assert (summary.stopping_time, summary.stop_reason) == (None, None)
    assert summary.steps_run == simulate._default_safety_horizon(1.0) == 27182
    assert summary.counts[0] > 27_000


def test_change_point_switches_the_observation_regime():
    models = (gaussian_model(1, 0.5),)
    params = PolicyParams(m=1, A=math.inf)
    scenario = make_scenario(models, 1001, horizon=2000)
    trace = run_episode(params, scenario, seed=13)
    before = [s.observation for s in trace.steps[:1000]]
    after = [s.observation for s in trace.steps[1000:]]
    assert abs(sum(before) / len(before)) < 0.15
    assert abs(sum(after) / len(after) - 0.5) < 0.15


def test_numpy_integer_seed_is_stored_as_int(models2):
    params = PolicyParams(m=2, A=3.0, scales={2: 1.0}, budgets={1: 2.5})
    scenario = make_scenario(models2, 1)
    plain = run_episode(params, scenario, seed=5)
    for seed in (np.int64(5), np.int32(5)):
        trace = run_episode(params, scenario, seed)
        assert trace.seed == 5 and type(trace.seed) is int
        assert trace.steps == plain.steps
        assert episode_summary(params, scenario, seed) == episode_summary(params, scenario, 5)
    assert run_episode(params, scenario, (np.int64(5), 1)).seed == (5, 1)


def test_streams_match_one_block_per_experiment():
    # a long pre-change run crosses every block size of the 16 -> 4096
    # schedule and several 4096 refills; the values must be the experiment's
    # substream read in one piece
    models = (gaussian_model(1, 1.0, pre_mean=0.25, std=1.5),
              gaussian_model(2, 1.0, pre_mean=-0.5, std=0.75))
    params = PolicyParams(m=2, A=math.inf, scales={2: 1.0}, budgets={1: 2})
    seed = (8, 3)
    trace = run_episode(params, make_scenario(models, math.inf, horizon=50_000), seed)
    # 16 + 32 + ... + 4096 = 8176 values, then at least two 4096 refills
    assert trace.counts[2] > 8176 + 2 * 4096
    assert trace.counts[1] > 8176 + 2 * 4096
    for mdl in models:
        got = [s.observation for s in trace.steps if s.level == mdl.id]
        z = observation_generator(seed, mdl.id).standard_normal(len(got)).tolist()
        assert got == [mdl.pre.mean + mdl.pre.std * v for v in z]

    # the renewal kernel's streams are scored: each value is the LLR of the
    # pre-change observation that the substream's normal maps to
    kernel = _RenewalKernel(params, models, seed)
    children = np.random.SeedSequence(seed_entropy(seed) + (RENEWAL_TAG,)).spawn(3)
    for mdl, child in zip(models, children):
        s, got = kernel.streams[mdl.id], []
        while len(got) < 500:
            s.refill()
            got += s.buf
        z = np.random.Generator(np.random.Philox(child)).standard_normal(len(got)).tolist()
        assert got == [llr_from_terms(mdl.terms, mdl.pre.mean + mdl.pre.std * v) for v in z]


_finite = partial(st.floats, allow_nan=False, allow_infinity=False, allow_subnormal=False)


@settings(deadline=None, max_examples=100)
@given(pre_mean=_finite(-5.0, 5.0), pre_std=_finite(0.1, 5.0),
       shift=_finite(0.05, 3.0) | _finite(-3.0, -0.05), post_std=_finite(0.1, 5.0), seed=st.integers(0, 2**32 - 1))
def test_scored_blocks_are_the_scalar_llrs(pre_mean, pre_std, shift, post_std, seed):
    # every block of the 16 -> 4096 schedule, and a 4096 refill past it, must
    # hold llr_from_terms(terms, pre_mean + pre_std * z) of the substream's
    # normals bit for bit: the numpy scoring follows the scalar operations
    mdl = ExperimentModel(1, DensitySpec("gaussian", pre_mean, pre_std),
                          DensitySpec("gaussian", pre_mean + shift, post_std))
    s = _RenewalKernel(PolicyParams(m=1, A=3.0), (mdl,), seed).streams[1]
    child = np.random.SeedSequence(seed_entropy(seed) + (RENEWAL_TAG,)).spawn(2)[0]
    z = np.random.Generator(np.random.Philox(child)).standard_normal(8176 + 4096).tolist()
    # an engine stream keeps the substream's normals in buf, and llrs
    # scores them to the same bits
    eng = _Stream(partial(observation_generator, seed, 1), mdl)
    normals = observation_generator(seed, 1).standard_normal(8176 + 4096).tolist()
    ctrl = _Stream(partial(control_generator, seed))
    start = 0
    for size in (16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 4096):
        s.refill()
        assert (s.pos, s.end) == (0, size)
        assert s.buf == [llr_from_terms(mdl.terms, pre_mean + pre_std * v)
                         for v in z[start:start + size]]
        eng.refill()
        assert (eng.pos, eng.end) == (0, size)
        assert eng.buf == normals[start:start + size]
        assert eng.llrs(np.array(eng.buf)).tolist() == [
            llr_from_terms(mdl.terms, pre_mean + pre_std * v) for v in eng.buf]
        ctrl.pos = ctrl.end
        ctrl.random()
        assert ctrl.end == size
        start += size
    # score() and unscore() in mid-block, as an episode's pre-change steps
    # go to the kernel and come back: the scored block is the scalar LLRs,
    # and unscoring gives back the normals at the same position; a refill
    # while scored scores the next block
    eng = _Stream(partial(observation_generator, seed, 1), mdl)
    eng.refill()
    eng.refill()
    eng.pos = 5
    eng.score()
    assert (eng.pos, eng.end) == (5, 32)
    assert eng.buf == [llr_from_terms(mdl.terms, pre_mean + pre_std * v)
                       for v in normals[16:48]]
    eng.unscore()
    assert (eng.pos, eng.end, eng.buf) == (5, 32, normals[16:48])
    eng.score()
    eng.refill()
    assert eng.buf == [llr_from_terms(mdl.terms, pre_mean + pre_std * v)
                       for v in normals[48:112]]
    eng.unscore()
    assert eng.buf == normals[48:112]


def _general_entropy(seed):
    # seed_entropy's rules for any seed, which its fast path for a tuple of
    # non-negative plain ints must agree with
    if isinstance(seed, (int, np.integer)):
        seed = (seed,)
    elif isinstance(seed, (str, bytes)) or not isinstance(seed, Iterable):
        raise ValueError(f"seed must be an int or a sequence of ints, got {seed!r}")
    parts = tuple(seed)
    if not parts:
        raise ValueError("seed must not be empty")
    for p in parts:
        if isinstance(p, bool) or not isinstance(p, (int, np.integer)) or p < 0:
            raise ValueError(f"seed components must be non-negative ints, got {p!r}")
    return tuple(int(p) for p in parts)


def _outcome(fn, seed):
    try:
        value = fn(seed)
    except ValueError as err:
        return "raises", str(err)
    return value, [type(p) for p in value]


_seed_part = st.one_of(st.integers(0, 2**70), st.integers(-3, -1), st.booleans(),
                       st.integers(-3, 2**62).map(np.int64), st.just(1.5), st.just(2.0),
                       st.none(), st.just("7"))


@settings(deadline=None, max_examples=300)
@given(seed=st.one_of(st.lists(st.integers(0, 2**70), min_size=1, max_size=4).map(tuple),
                      st.lists(_seed_part, max_size=4).map(tuple),
                      st.lists(_seed_part, max_size=4), _seed_part))
def test_seed_entropy_agrees_with_its_general_rules(seed):
    assert _outcome(seed_entropy, seed) == _outcome(_general_entropy, seed)


@pytest.fixture
def built(monkeypatch):
    """Generators built by episodes: an experiment id, or "control"."""
    log = []
    obs, ctrl = simulate.observation_generator, simulate.control_generator

    def counted_obs(seed, experiment_id):
        log.append(experiment_id)
        return obs(seed, experiment_id)

    def counted_ctrl(seed):
        log.append("control")
        return ctrl(seed)

    monkeypatch.setattr(simulate, "observation_generator", counted_obs)
    monkeypatch.setattr(simulate, "control_generator", counted_ctrl)
    return log


def test_episodes_build_only_the_generators_they_draw_from(models2, built):
    cusum = PolicyParams(m=1, A=3.0)
    run_episode(cusum, make_scenario((gaussian_model(1, 1.0),), 1), 0)
    assert built == [1]

    two = PolicyParams(m=2, A=3.0, scales={2: 1.0}, budgets={1: 2})
    descended = 0
    for seed in range(20):
        built.clear()
        summary = episode_summary(two, make_scenario(models2, 1), seed)
        descended += summary.counts[1] > 0
        assert sorted(built, key=str) == ([1, 2] if summary.counts[1] > 0 else [2])
    assert 0 < descended < 20

    rss = RssParams(A=3.0, p_hi=0.5)
    built.clear()
    summary = episode_summary(rss, make_scenario(models2, 1), 21)
    assert summary.counts[1] > 0 and summary.counts[2] > 0
    assert sorted(built, key=str) == [1, 2, "control"]


def test_bad_seed_fails_on_an_episode_that_never_draws(models2, built):
    params = PolicyParams(m=2, A=3.0, scales={2: 1.0}, budgets={1: 2}, top_truncation=0)
    scenario = make_scenario(models2, 1)
    assert episode_summary(params, scenario, 0).stop_reason == "truncation"
    for bad in (-1, (), "12", b"12", 2.5, (1.5, 2), (True, 2), True, None):
        with pytest.raises(ValueError):
            episode_summary(params, scenario, bad)
        with pytest.raises(ValueError):
            run_episode(params, scenario, bad)
    assert built == []


def test_estimator_episodes_rekey_only_the_streams_they_draw_from(models2, built, monkeypatch):
    # the scalar loops, which take every trial at time 0 here, re-key a
    # stream's slot once per episode that draws from it; the lockstep
    # passes re-key once per block of trials, so there only the tags drawn
    # from are checked
    rekeyed = []
    rekey = EpisodeKeys.rekey

    def spy(self, t, tag):
        rekeyed.append((t, tag))
        return rekey(self, t, tag)

    monkeypatch.setattr(EpisodeKeys, "rekey", spy)

    def table(params, models, trials):
        rekeyed.clear()
        out = _trial_table(params, models, 1, None, trials, 3, 0.95)
        assert built == []
        if scalar:
            assert len(set(rekeyed)) == len(rekeyed)  # a slot at most once per episode
        tags = {tag for _, tag in rekeyed}
        assert_rows_are_episodes(out, params, make_scenario(models, 1), (3,))
        built.clear()
        return tags, out[1]

    two = PolicyParams(m=2, A=3.0, scales={2: 1.0}, budgets={1: 2})
    for scalar in (True, False):
        monkeypatch.setattr(simulate, "_HANDOFF_ROWS", sys.maxsize if scalar else 2)
        tags, _ = table(PolicyParams(m=1, A=3.0), (gaussian_model(1, 1.0),), 50)
        assert tags == {(1, 1)}
        if scalar:
            assert rekeyed == [(t, (1, 1)) for t in range(50)]

        tags, counts = table(two, models2, 50)
        descended = (counts[:, 1] > 0).nonzero()[0].tolist()
        assert 0 < len(descended) < 50
        assert tags == {(1, 1), (1, 2)}
        if scalar:
            assert sorted(rekeyed) == sorted([(t, (1, 2)) for t in range(50)]
                                             + [(t, (1, 1)) for t in descended])

        tags, counts = table(RssParams(A=3.0, p_hi=0.5), models2, 20)
        assert tags == {(1, 1), (1, 2), (2,)}
        assert ((counts[:, 1] > 0) & (counts[:, 2] > 0)).any()

        estimate_wadd(two, models2, 20, 4)
        estimate_arlfa(RssParams(A=3.0, p_hi=0.5), models2, 5, 4, safety_horizon=100)
        assert built == []


def _state(bit_generator):
    return {k: (v.tolist() if isinstance(v, np.ndarray) else v)
            for k, v in {**bit_generator.state, **bit_generator.state["state"]}.items()
            if k != "state"}


_entropy_int = st.one_of(st.just(0), st.integers(0, 2**32 - 1), st.integers(2**32, 2**96))


@settings(deadline=None, max_examples=200)
@given(entropy=st.lists(_entropy_int, min_size=1, max_size=8).map(tuple),
       t=st.one_of(st.integers(0, 20), st.integers(0, 2**32 - 1)),
       experiment=st.one_of(st.none(), st.integers(1, 3), st.integers(2**32, 2**40)))
def test_vectorised_keys_are_seed_sequence_keys(entropy, t, experiment):
    words = np.array([simulate._seed_words(entropy)] * 3, dtype=np.uint32)
    want = np.random.SeedSequence(entropy).generate_state(2, np.uint64)
    assert simulate._philox_keys(words).tolist() == [want.tolist()] * 3

    # the table for the trials up to t keys t's generator like a fresh one
    base = entropy[:6]
    tag = (2,) if experiment is None else (1, experiment)
    gen = EpisodeKeys(base, t + 1).rekey(t, tag)
    assert _state(gen.bit_generator) == _state(np.random.Philox(base + (t,) + tag))
