"""Density pairs: likelihood ratios, divergences, quality ordering."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecusum import (
    DensitySpec,
    ExperimentModel,
    OrderingViolation,
    kl_divergence,
    log_likelihood_ratio,
    validate_ordering,
)
from mecusum.densities import check_models, llr_from_terms, llr_terms
from conftest import gaussian_model, obs_for
from straightline import numeric_kl_gaussian


def test_llr_exact_unit_shift():
    # N(0,1) vs N(1,1): llr(x) = 0.5 x^2 - 0.5 (x-1)^2, exact at dyadic points
    model = gaussian_model(1, 1.0)
    assert log_likelihood_ratio(model, 0.5) == 0.0
    assert log_likelihood_ratio(model, 1.5) == 1.0
    assert log_likelihood_ratio(model, -0.5) == -1.0


def test_llr_exact_three_quarter_shift():
    model = gaussian_model(1, 0.75)
    assert log_likelihood_ratio(model, 0.0) == -0.28125


def test_llr_terms_match_direct():
    model = gaussian_model(1, 0.8, pre_mean=-0.2, std=1.3)
    terms = llr_terms(model)
    for x in (-2.0, -0.3, 0.0, 0.4, 1.9):
        direct = model.post.logpdf(x) - model.pre.logpdf(x)
        assert llr_from_terms(terms, x) == pytest.approx(direct, abs=1e-12)
        assert log_likelihood_ratio(model, x) == llr_from_terms(terms, x)


def test_llr_rejects_non_finite():
    model = gaussian_model(1, 1.0)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            log_likelihood_ratio(model, bad)


def test_obs_for_inverts_llr():
    model = gaussian_model(2, 1.0)
    for llr in (-0.8, -0.28125, 0.0, 0.3, 2.0):
        assert log_likelihood_ratio(model, obs_for(model, llr)) == pytest.approx(
            llr, abs=1e-12
        )


def test_kl_closed_form_exact():
    assert kl_divergence(gaussian_model(1, 1.0)) == 0.5
    assert kl_divergence(gaussian_model(1, 0.75)) == 0.28125
    assert kl_divergence(gaussian_model(1, 0.5)) == 0.125


def test_kl_closed_vs_numeric():
    cases = [
        gaussian_model(1, 1.0),
        gaussian_model(1, 0.75),
        ExperimentModel(
            1,
            DensitySpec("gaussian", 0.0, 1.0),
            DensitySpec("gaussian", 0.5, 2.0),
        ),
    ]
    for model in cases:
        numeric = numeric_kl_gaussian((model.pre.mean, model.pre.std),
                                      (model.post.mean, model.post.std))
        assert kl_divergence(model) == pytest.approx(numeric, abs=1e-6)


def test_density_spec_validation():
    with pytest.raises(ValueError):
        DensitySpec("laplace", 0.0, 1.0)
    with pytest.raises(ValueError):
        DensitySpec("gaussian", 0.0, 0.0)
    with pytest.raises(ValueError):
        DensitySpec("gaussian", 0.0, -1.0)
    with pytest.raises(ValueError):
        DensitySpec("gaussian", math.nan, 1.0)
    with pytest.raises(ValueError):
        DensitySpec("gaussian", 0.0, math.inf)


def test_model_validation():
    with pytest.raises(ValueError):
        gaussian_model(0, 1.0)
    with pytest.raises(ValueError):
        gaussian_model(-3, 1.0)
    with pytest.raises(ValueError, match="^experiment id must be an integer"):
        gaussian_model(True, 1.0)  # True == 1, but a bool is no id
    # identical pre/post has zero divergence: no detectable change
    with pytest.raises(ValueError):
        gaussian_model(1, 0.0)


def test_ordering_ok(models3):
    assert validate_ordering(models3) is None


def test_ordering_violation_reported_not_raised():
    models = (gaussian_model(1, 1.0), gaussian_model(2, 0.5))
    violation = validate_ordering(models)
    assert isinstance(violation, OrderingViolation)
    assert (violation.lower_id, violation.upper_id) == (1, 2)
    assert violation.lower_kl > violation.upper_kl
    assert "1, 2" in str(violation)


def test_ordering_structural_errors_raise():
    with pytest.raises(ValueError):
        validate_ordering(())
    with pytest.raises(ValueError):
        validate_ordering((gaussian_model(2, 1.0),))
    with pytest.raises(ValueError):
        validate_ordering((gaussian_model(1, 0.5), gaussian_model(3, 1.0)))
    with pytest.raises(ValueError):
        validate_ordering((gaussian_model(1, 0.5), gaussian_model(1, 1.0)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 5), st.floats(0.1, 2.0)), max_size=4))
def test_check_models_raises_what_validate_ordering_reports(specs):
    # ExperimentModel rejects ids below 1, so ids run 1..5: repeats, gaps and
    # ids above m all occur
    models = tuple(gaussian_model(i, mu) for i, mu in specs)
    by_id = sorted(models, key=lambda mdl: mdl.id)
    layout_ok = bool(models) and [mdl.id for mdl in by_id] == list(range(1, len(models) + 1))
    try:
        violation = validate_ordering(models)
    except ValueError as layout:
        assert not layout_ok
        with pytest.raises(ValueError) as info:
            check_models(models)
        assert str(info.value) == str(layout)
        return
    assert layout_ok
    # the first adjacent pair, in id order, whose KL divergence falls
    first_bad = next(((lo.id, up.id) for lo, up in zip(by_id, by_id[1:]) if up.kl < lo.kl), None)
    if violation is None:
        assert first_bad is None
        assert check_models(models) == [None] + by_id
    else:
        assert (violation.lower_id, violation.upper_id) == first_bad
        with pytest.raises(ValueError) as info:
            check_models(models)
        assert str(info.value) == str(violation)
