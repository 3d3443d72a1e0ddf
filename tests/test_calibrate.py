"""Threshold mapping and the top-down budget search."""

from __future__ import annotations

import math
import warnings

import pytest

from mecusum import (
    CalibrationConfig,
    CalibrationTarget,
    calibrate,
    set_threshold,
)
from mecusum.calibrate import _budget_root
from conftest import gaussian_model

LIGHT = CalibrationConfig(search_cycles=20_000, final_cycles=60_000,
                          max_evaluations=200)


def test_set_threshold_is_natural_log():
    assert set_threshold(1000.0) == math.log(1000.0)
    assert set_threshold(1000.0) == pytest.approx(6.907755, abs=1e-6)
    assert set_threshold(math.e) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        set_threshold(0.5)
    with pytest.raises(ValueError):
        set_threshold(math.nan)
    with pytest.warns(UserWarning):
        assert set_threshold(1.0) == 0.0


def test_target_validation(models2):
    with pytest.raises(ValueError):
        CalibrationTarget(gamma=0.5, betas={1: 1.0})
    with pytest.raises(ValueError):
        CalibrationTarget(gamma=100.0, betas={0: 0.5, 1: 0.5})
    with pytest.raises(ValueError):
        CalibrationTarget(gamma=100.0, betas={1: -0.1, 2: 1.1})
    with pytest.raises(ValueError):
        CalibrationTarget(gamma=100.0, betas={1: 1.5})
    ok = CalibrationTarget(gamma=100.0, betas={1.0: 0.25, 2: 0.75})
    assert ok.betas == {1: 0.25, 2: 0.75}
    assert ok.threshold == set_threshold(100.0)
    # gamma is checked by set_threshold's rule, with its message
    with pytest.raises(ValueError, match="^the false-alarm target gamma must be >= 1, got nan$"):
        CalibrationTarget(math.nan, {1: 0.5})
    with pytest.warns(UserWarning, match="gamma = 1"):
        degenerate = CalibrationTarget(1.0, {1: 0.5, 2: 0.5})
    assert degenerate.threshold == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the target has warned once; calibrate does not
        result = calibrate(degenerate, models2,
                           CalibrationConfig(search_cycles=1000, final_cycles=1000))
    assert result.params.A == 0.0


@pytest.mark.parametrize("field, betas, de", [
    # each built a target: 1.5 and True read as experiment 1, "0.3" as 0.3,
    # True as 1.0, and "no" as data-efficient
    ("beta key", {1.5: 0.3, 2: 0.4}, False),
    ("beta key", {True: 0.3, 2: 0.4}, False),
    ("beta_1", {1: "0.3", 2: 0.4}, False),
    ("beta_1", {1: True, 2: 0.0}, False),
    ("data_efficient", {1: 0.3, 2: 0.4}, "no"),
    # these failed with an AttributeError of .items()
    ("betas", [0.3, 0.4], False),
    ("betas", None, False),
])
def test_target_rejects_loose_keys_values_and_flags(field, betas, de):
    with pytest.raises(ValueError, match=f"^{field} "):
        CalibrationTarget(1000.0, betas, de)


def test_config_rejects_non_integer_counts():
    # a fractional or bool count passes a bare >= check, then fails or
    # truncates inside the renewal kernel
    for name in ("search_cycles", "final_cycles", "max_evaluations"):
        for bad in (1000.5, 1.5, True, math.nan):
            with pytest.raises(ValueError, match=f"^{name} must be an integer"):
                CalibrationConfig(**{name: bad})
    config = CalibrationConfig(search_cycles=1000.0, final_cycles=2000.0, max_evaluations=3.0)
    assert [type(v) for v in (config.search_cycles, config.final_cycles,
                              config.max_evaluations)] == [int, int, int]


def test_infeasible_target_combinations(models2, models3):
    cases2 = [
        {1: 0.6, 2: 0.6},       # over-allocated
        {1: 0.5},               # no target for the top experiment
        {1: 1.0, 2: 0.0},       # top experiment must keep positive mass
        {1: 0.3, 2: 0.3},       # fully specified but not summing to one
    ]
    for betas in cases2:
        with pytest.raises(ValueError):
            calibrate(CalibrationTarget(100.0, betas), models2, LIGHT)
    with pytest.raises(ValueError):
        # two experiments left implicit
        calibrate(CalibrationTarget(100.0, {3: 0.5}), models3, LIGHT)
    with pytest.raises(ValueError):
        # a zero mid target makes the bottom target unreachable
        calibrate(CalibrationTarget(100.0, {1: 0.2, 2: 0.0, 3: 0.8}), models3, LIGHT)
    with pytest.raises(ValueError):
        # data-efficient targets must name every experiment
        calibrate(CalibrationTarget(100.0, {2: 0.4}, data_efficient=True),
                  models2, LIGHT)
    with pytest.raises(ValueError):
        # no mass left for the idle fraction
        calibrate(CalibrationTarget(100.0, {1: 0.5, 2: 0.5}, data_efficient=True),
                  models2, LIGHT)
    with pytest.raises(ValueError):
        # the idle phase opens below level 1, so beta_1 must be positive
        calibrate(CalibrationTarget(100.0, {1: 0.0, 2: 0.6}, data_efficient=True),
                  models2, LIGHT)
    backwards = (gaussian_model(1, 1.0), gaussian_model(2, 0.5))
    with pytest.raises(ValueError):
        calibrate(CalibrationTarget(100.0, {2: 1.0}), backwards, LIGHT)


def test_all_top_target_needs_no_search(models3):
    target = CalibrationTarget(1000.0, {1: 0.0, 2: 0.0, 3: 1.0})
    config = CalibrationConfig(search_cycles=1000, final_cycles=2000)
    result = calibrate(target, models3, config, base_seed=70)
    assert result.converged is True
    assert result.evaluations == 0
    assert result.passes == ()
    assert result.params.budgets == {1: 0.0, 2: 0.0}
    assert result.params.A == math.log(1000.0)
    assert result.achieved[3].mean == 1.0
    assert result.residuals == {1: 0.0, 2: 0.0, 3: 0.0}


def test_two_level_even_split_search(models2):
    target = CalibrationTarget(1000.0, {2: 0.5})
    result = calibrate(target, models2, LIGHT, base_seed=71)
    assert result.converged is True
    assert result.evaluations > 0
    assert abs(result.achieved[2].mean - 0.5) <= LIGHT.tolerance
    assert abs(result.achieved[1].mean - 0.5) <= LIGHT.tolerance
    assert 1.0 <= result.params.budgets[1] <= 3.0
    assert result.params.scales == {2: 1.0}
    assert result.params.data_efficient is False
    assert abs(result.residuals[2]) <= LIGHT.tolerance


def test_three_level_search_hits_known_budgets(models3):
    target = CalibrationTarget(1000.0, {1: 0.2, 2: 0.4, 3: 0.4})
    result = calibrate(target, models3, LIGHT, base_seed=72)
    assert result.converged is True
    for key, beta in ((1, 0.2), (2, 0.4), (3, 0.4)):
        assert abs(result.achieved[key].mean - beta) <= LIGHT.tolerance
    assert 1.5 <= result.params.budgets[2] <= 2.6
    assert 0.5 <= result.params.budgets[1] <= 1.2
    assert sum(result.achieved.means().values()) == pytest.approx(1.0, abs=1e-9)


def test_evaluation_budget_exhaustion_reports_not_raises(models3):
    # m = 3 needs one pass per sub-level, so a cap of one pass runs out
    target = CalibrationTarget(1000.0, {1: 0.2, 2: 0.4, 3: 0.4})
    config = CalibrationConfig(search_cycles=2000, final_cycles=2000,
                               max_evaluations=1)
    result = calibrate(target, models3, config, base_seed=73)
    assert result.converged is False
    assert result.evaluations == 1
    assert [p.level for p in result.passes] == [2]


def test_search_log_has_one_record_per_pass(models3):
    target = CalibrationTarget(1000.0, {1: 0.2, 2: 0.4, 3: 0.4})
    config = CalibrationConfig(search_cycles=2000, final_cycles=2000)
    result = calibrate(target, models3, config, base_seed=73)
    assert result.evaluations == len(result.passes) == 2
    assert [p.level for p in result.passes] == [2, 1]
    for p in result.passes:
        assert p.scales == {2: 1.0, 3: 1.0}
        # budgets of 1-3 steps: the first cap reaches them
        assert p.cap == 16.0
        assert p.budget == result.params.budgets[p.level]
        # the cap reaches past the target, whose ratio to the top is 1 and 1/2
        assert p.cap_ratio >= target.betas[p.level] / 0.4


def test_short_cap_escalates_the_scale_with_one_more_pass(models2):
    # with budgets of at most 3 at scale 1 the level-1 rate stays below
    # 0.59 / 0.41 of the top rate; the deeper floors of scale 10 clear it
    target = CalibrationTarget(1000.0, {1: 0.59, 2: 0.41})
    config = CalibrationConfig(search_cycles=2000, final_cycles=20_000, budget_cap=3.0)
    result = calibrate(target, models2, config, base_seed=74)
    want = 0.59 / 0.41
    assert result.params.scales == {2: 10.0}
    assert result.converged is True
    assert result.evaluations == 2
    first, second = result.passes
    assert (first.scales, first.budget) == ({2: 1.0}, None)
    assert first.cap_ratio < want <= second.cap_ratio
    assert second.scales == {2: 10.0}
    assert 0.0 < second.budget == result.params.budgets[1] <= 3.0


def test_long_budget_runs_the_whole_cap_schedule(models2):
    # a level-1 budget of several hundred steps: neither 16 nor 256 reaches
    # the goal of 9 level-1 steps per top step, budget_cap does
    target = CalibrationTarget(1000.0, {2: 0.1})
    config = CalibrationConfig(search_cycles=2000, final_cycles=2000)
    result = calibrate(target, models2, config, base_seed=5)
    assert [p.cap for p in result.passes] == [16.0, 256.0, 4096.0]
    assert [p.budget for p in result.passes] == [None, None, result.params.budgets[1]]
    assert all(p.scales == {2: 1.0} for p in result.passes)
    assert result.passes[1].cap_ratio < 9.0 <= result.passes[2].cap_ratio
    assert 256.0 < result.params.budgets[1] < 4096.0
    assert result.evaluations == 3 and result.converged is True


def test_cap_schedule_clips_to_the_budget_cap_and_restarts_after_an_escalation(models2):
    # caps 16 and 50 fall short of 7 level-1 steps per top step at scale 1;
    # the deeper floors of scale 10 reach it at the first cap again
    target = CalibrationTarget(1000.0, {2: 0.125})
    config = CalibrationConfig(search_cycles=2000, final_cycles=2000, budget_cap=50.0)
    result = calibrate(target, models2, config, base_seed=5)
    assert [(p.cap, p.scales) for p in result.passes] == \
        [(16.0, {2: 1.0}), (50.0, {2: 1.0}), (16.0, {2: 10.0})]
    assert [p.budget is None for p in result.passes] == [True, True, False]
    assert result.passes[1].cap_ratio < 7.0 <= result.passes[2].cap_ratio
    assert 0.0 < result.passes[2].budget == result.params.budgets[1] <= 16.0
    assert result.params.scales == {2: 10.0}


def test_large_scale_needs_one_short_pass(models2):
    # at scale 8 a level-1 visit opens far below its ceiling, so a pass at
    # budget_cap runs many visits out to 4096 steps; the first cap solves
    # the ~3-step budget from visits of at most 16 steps
    target = CalibrationTarget(1000.0, {2: 0.4})
    config = CalibrationConfig(search_cycles=20_000, final_cycles=20_000, initial_scale=8.0)
    result = calibrate(target, models2, config, base_seed=5)
    (only,) = result.passes
    assert (only.level, only.scales, only.cap) == (1, {2: 8.0}, 16.0)
    assert 2.0 < only.budget == result.params.budgets[1] < 4.0
    assert result.converged is True


def _expected_time(taus, b):
    # resolve_truncation's mean over the visits: floor(b) or ceil(b)
    low, frac = math.floor(b), b - math.floor(b)
    return sum((1.0 - frac) * min(low, t) + frac * min(low + 1, t) for t in taus)


@pytest.mark.parametrize("taus, goal, root", [
    ([1, 2, 3, 5], 7.0, 2.0),          # an integer root, on a tau
    ([1, 2, 3, 5], 8.0, 2.5),          # between taus, slope 2
    ([4, 1, 1, 6, 2], 9.0, 2.5),       # unsorted, ties; between taus, slope 2
    ([3, 3, 3], 4.5, 1.5),             # below the least tau, slope 3
    ([1, 1, 1], 0.3, 0.1),             # below one step
    ([2, 7, 4096, 4096], 8201.0, 4096.0),  # the cap: the whole sample
    ([2, 7, 4096, 4096], 8200.0, 4095.5),
])
def test_budget_root_is_exact_on_a_known_sample(taus, goal, root):
    b = _budget_root(taus, goal)
    assert b == pytest.approx(root, rel=1e-12)
    assert abs(_expected_time(taus, b) - goal) <= 1e-12 * goal
    # the least root: any smaller budget falls short
    assert _expected_time(taus, b * (1.0 - 1e-9)) < goal
