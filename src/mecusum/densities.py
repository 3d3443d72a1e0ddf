"""Observation models: density pairs, likelihood ratios, divergences.

Each experiment is a pre-change / post-change density pair. Everything else in
the package touches observations only through the log-likelihood ratio, so
this module is the single home for that arithmetic. It also holds the one
check of a model set, check_models, which every route calls (step() once per
tuple of models, and on every call with a list): m models carry the ids
1..m in quality order, a higher id having a larger KL divergence.
validate_ordering reports a disorder instead of raising.
_count and _real, the checks of an integer and of a real argument, live
here because every module imports this one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from typing import Sequence

GAUSSIAN = "gaussian"

_FAMILIES = (GAUSSIAN,)


def _count(name: str, value, low: int) -> int:
    """value as an int, or ValueError unless it is a real number that is an
    integer >= low (a bool is not, nor is 2.5 or "3"; 3.0 is)."""
    if (isinstance(value, bool) or not isinstance(value, Real)
            or not (float(value).is_integer() and value >= low)):
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def _real(name: str, value) -> float:
    """value as a float, or ValueError unless it is a real number (a bool is
    not, though float(True) is 1.0, nor is "3")."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class DensitySpec:
    """A single observation density. Gaussian is the only family."""

    family: str
    mean: float
    std: float

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unsupported density family {self.family!r}")
        if not math.isfinite(_real("mean", self.mean)):
            raise ValueError(f"mean must be finite, got {self.mean}")
        if not (math.isfinite(_real("std", self.std)) and self.std > 0.0):
            raise ValueError(f"std must be positive and finite, got {self.std}")

    def logpdf(self, x: float) -> float:
        z = (x - self.mean) / self.std
        return -0.5 * z * z - math.log(self.std) - 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class ExperimentModel:
    """Pre/post-change density pair for one experiment.

    A higher id means higher information quality, i.e. a larger KL divergence
    between the post- and pre-change densities; check_models checks this
    across a set of experiments. kl (kl_divergence) and terms (llr_terms) are
    built once here, as plain attributes, not fields, so equality, hashing,
    repr, asdict and dataclasses.replace see only the densities.
    """

    id: int
    pre: DensitySpec
    post: DensitySpec

    def __post_init__(self) -> None:
        object.__setattr__(self, "id", _count("experiment id", self.id, 1))
        kl = kl_divergence(self)
        if not (math.isfinite(kl) and kl > 0.0):
            raise ValueError(
                f"experiment {self.id}: KL(post || pre) must be strictly positive "
                f"and finite, got {kl}"
            )
        object.__setattr__(self, "kl", kl)
        object.__setattr__(self, "terms", llr_terms(self))


def llr_terms(model: ExperimentModel) -> tuple[float, float, float, float, float]:
    """Constants (c, q0, m0, q1, m1) with llr(x) = c + q0*(x-m0)^2 - q1*(x-m1)^2.

    Shared by log_likelihood_ratio and the simulation hot loops so every code
    path computes bit-identical ratios.
    """
    pre, post = model.pre, model.post
    return (
        math.log(pre.std / post.std),
        0.5 / (pre.std * pre.std),
        pre.mean,
        0.5 / (post.std * post.std),
        post.mean,
    )


def llr_from_terms(terms: tuple[float, float, float, float, float], x: float) -> float:
    c, q0, m0, q1, m1 = terms
    d0 = x - m0
    d1 = x - m1
    return c + q0 * d0 * d0 - q1 * d1 * d1


def log_likelihood_ratio(model: ExperimentModel, x: float) -> float:
    """log(f1(x) / f0(x)) for one observation. Rejects non-finite input."""
    if not math.isfinite(x):
        raise ValueError(f"observation must be finite, got {x}")
    return llr_from_terms(model.terms, x)


def kl_divergence(model: ExperimentModel) -> float:
    """D(f1 || f0) for the experiment's post/pre pair, in closed form."""
    pre, post = model.pre, model.post
    dm = post.mean - pre.mean
    v0 = pre.std * pre.std
    v1 = post.std * post.std
    return math.log(pre.std / post.std) + (v1 + dm * dm) / (2.0 * v0) - 0.5


@dataclass(frozen=True)
class OrderingViolation:
    """Adjacent pair of experiments whose KL divergences decrease with id."""

    lower_id: int
    upper_id: int
    lower_kl: float
    upper_kl: float

    def __str__(self) -> str:
        return (
            f"experiments ({self.lower_id}, {self.upper_id}) violate the quality "
            f"ordering: KL {self.lower_kl:.6g} > {self.upper_kl:.6g}"
        )


def _layout(models: Sequence[ExperimentModel], m: int | None) -> list:
    # step() calls this per observation when the models are a list (a tuple
    # it checks once): concrete type checks, not ABCs, in one pass
    wrong = "models must be a list or tuple of ExperimentModel, got {!r}"
    if not isinstance(models, (tuple, list)):
        raise ValueError(wrong.format(models))
    if m is None:
        m = len(models) or 1
    slots = [None] * (m + 1)
    filled = 0
    for mdl in models:
        if not isinstance(mdl, ExperimentModel):
            raise ValueError(wrong.format(models))
        if 0 < mdl.id <= m and slots[mdl.id] is None:
            slots[mdl.id] = mdl
            filled += 1
    # m models filling the slots 1..m have the ids 1..m (is: == calls __eq__)
    if filled != m or len(models) != m:
        ids = [mdl.id for mdl in models]
        raise ValueError(f"policy with m={m} needs experiment models with ids 1..{m}, got {ids}")
    return slots


def _violation(slots: list) -> OrderingViolation | None:
    # the first adjacent pair whose KL divergence falls as the id rises
    lower = slots[1]
    for upper in slots[2:]:
        if upper.kl < lower.kl:
            return OrderingViolation(lower.id, upper.id, lower.kl, upper.kl)
        lower = upper
    return None


def validate_ordering(models: Sequence[ExperimentModel]) -> OrderingViolation | None:
    """Check ids are contiguous 1..m and KL divergence is non-decreasing in id.
    A bad id layout raises as in check_models; a disorder is returned, not raised."""
    return _violation(_layout(models, None))


def check_models(models: Sequence[ExperimentModel], m: int | None = None) -> list:
    """[None, model 1, ..., model m], or ValueError unless models are a list
    or tuple of m ExperimentModel with the ids 1..m, KL non-decreasing in
    id. m defaults to the number of models, or 1 for none. Every route that
    takes models calls it once."""
    slots = _layout(models, m)
    violation = _violation(slots)
    if violation is not None:
        raise ValueError(str(violation))
    return slots
