"""Shared fixtures: Gaussian model builders, observation crafting, the
two paths of the estimators' trial loop, and a check of its table."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from mecusum import DensitySpec, ExperimentModel, episode_summary, simulate


def gaussian_model(exp_id: int, post_mean: float, pre_mean: float = 0.0,
                   std: float = 1.0) -> ExperimentModel:
    return ExperimentModel(
        exp_id,
        DensitySpec("gaussian", pre_mean, std),
        DensitySpec("gaussian", post_mean, std),
    )


def obs_for(model: ExperimentModel, llr: float) -> float:
    """Observation whose log-likelihood ratio equals llr (equal-std pair)."""
    m0 = model.pre.mean
    m1 = model.post.mean
    if model.pre.std != model.post.std:
        raise ValueError("only equal-std pairs invert linearly")
    var = model.pre.std * model.pre.std
    return (llr * var + (m1 * m1 - m0 * m0) / 2.0) / (m1 - m0)


def assert_rows_are_episodes(table, params, scenario, base):
    """Row t of a trial table (times, counts) against episode_summary of
    the seed base + (t,): the stopping time, -1 for none, and the steps per
    experiment id. Returns the summaries."""
    times, counts = table
    fresh = [episode_summary(params, scenario, base + (t,)) for t in range(len(times))]
    assert times.dtype == counts.dtype == np.int64
    assert times.tolist() == [-1 if s.stopping_time is None else s.stopping_time for s in fresh]
    assert [dict(enumerate(row)) for row in counts.tolist()] == [s.counts for s in fresh]
    return fresh


@pytest.fixture
def models2():
    return (gaussian_model(1, 0.75), gaussian_model(2, 1.0))


@pytest.fixture
def models3():
    return (gaussian_model(1, 0.5), gaussian_model(2, 0.75), gaussian_model(3, 1.0))


@pytest.fixture(params=["scalar", "lockstep"])
def trial_path(request, monkeypatch):
    """Runs a test once on each path of the lockstep runner that
    metrics._trial_table calls: the scalar episode loops, with the hand-off
    size past any trial count, so every trial is handed off at time 0, and
    the lockstep passes, with the size lowered to 2. There the rows compact
    down to 4 and the last 2 trials go to the scalar loops, so that small
    batches compact and hand trials over as well."""
    if request.param == "lockstep":
        monkeypatch.setattr(simulate, "_MIN_ROWS", 4)
        monkeypatch.setattr(simulate, "_HANDOFF_ROWS", 2)
    else:
        monkeypatch.setattr(simulate, "_HANDOFF_ROWS", sys.maxsize)
    return request.param
