"""Shared fixtures: Gaussian model builders, observation crafting, and the
two paths of the estimators' trial loop."""

from __future__ import annotations

import sys

import pytest

from mecusum import DensitySpec, ExperimentModel, metrics, simulate


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


@pytest.fixture
def models2():
    return (gaussian_model(1, 0.75), gaussian_model(2, 1.0))


@pytest.fixture
def models3():
    return (gaussian_model(1, 0.5), gaussian_model(2, 0.75), gaussian_model(3, 1.0))


@pytest.fixture(params=["scalar", "lockstep"])
def trial_path(request, monkeypatch):
    """Runs a test once on each path of metrics._trial_summaries: the scalar
    episode loop, with the dispatch constant past any trial count, and the
    lockstep runner, with the constant lowered to 1. There the rows compact
    down to 4 and the last 2 trials go to the scalar loops, so that small
    batches compact and hand trials over as well."""
    if request.param == "lockstep":
        monkeypatch.setattr(metrics, "_LOCKSTEP_TRIALS", 1)
        monkeypatch.setattr(simulate, "_MIN_ROWS", 4)
        monkeypatch.setattr(simulate, "_HANDOFF_ROWS", 2)
    else:
        monkeypatch.setattr(metrics, "_LOCKSTEP_TRIALS", sys.maxsize)
    return request.param
