"""Domain types: bounded hypothesis sets, data points, convex loss families.

Everything here is immutable after construction and safe to share across
threads. Feature vectors are normalized to the unit ball on ingestion so that
every loss family is 1-Lipschitz in the hypothesis under its space's norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

L2_BALL = "l2-ball"
SIMPLEX = "simplex"

NULL_OUTCOME = -1


class InvalidConfigError(ValueError):
    """Inconsistent or out-of-range configuration."""


# ---------------------------------------------------------------------------
# Hypothesis spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HypothesisSpace:
    """A bounded convex hypothesis set: an l2 ball or the probability simplex.

    ``reg_bound`` is the supremum of the associated regularizer over the set
    (radius^2 / 2 for the ball under the half-squared-norm regularizer, ln(dim)
    for the simplex under shifted negative entropy). It is what makes the
    learner's regret guarantee finite, so boundedness is mandatory.
    """

    kind: str
    dim: int
    radius: float = 1.0

    def __post_init__(self):
        if self.kind not in (L2_BALL, SIMPLEX):
            raise InvalidConfigError(f"unknown space kind {self.kind!r}")
        if self.dim < 1:
            raise InvalidConfigError("dimension must be >= 1")
        if self.kind == L2_BALL and not self.radius > 0:
            raise InvalidConfigError("ball radius must be positive")

    @property
    def reg_bound(self) -> float:
        if self.kind == L2_BALL:
            return 0.5 * self.radius * self.radius
        return math.log(self.dim)

    @property
    def norm_kind(self) -> str:
        """Primal norm the space's regularizer is strongly convex under."""
        return "l2" if self.kind == L2_BALL else "l1"

    @property
    def regularizer(self) -> str:
        return "euclidean" if self.kind == L2_BALL else "neg-entropy"

    def contains(self, coords: np.ndarray, tol: float = 1e-9) -> bool:
        if coords.shape != (self.dim,):
            return False
        if self.kind == L2_BALL:
            return float(np.linalg.norm(coords)) <= self.radius + tol
        return bool(coords.min() >= -tol and abs(float(coords.sum()) - 1.0) <= tol)


def l2_ball(dim: int, radius: float = 1.0) -> HypothesisSpace:
    return HypothesisSpace(L2_BALL, dim, radius)


def simplex(dim: int) -> HypothesisSpace:
    return HypothesisSpace(SIMPLEX, dim)


@dataclass(frozen=True)
class Hypothesis:
    """A point of a hypothesis space. Coordinates are copied and frozen."""

    space: HypothesisSpace
    coords: np.ndarray

    def __post_init__(self):
        coords = np.array(self.coords, dtype=np.float64)
        if coords.shape != (self.space.dim,):
            raise ValueError(
                f"coordinates of length {coords.shape} do not match dimension {self.space.dim}"
            )
        if not self.space.contains(coords):
            raise ValueError("coordinates lie outside the hypothesis space")
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)


# ---------------------------------------------------------------------------
# Norms and projections
# ---------------------------------------------------------------------------


def dual_norm(norm_kind: str, v: np.ndarray) -> float:
    """Dual norm of ``v``: l2 is self-dual, the dual of l1 is the max norm."""
    if norm_kind == "l2":
        return float(np.linalg.norm(v))
    if norm_kind == "l1":
        return float(np.max(np.abs(v))) if len(v) else 0.0
    raise ValueError(f"unknown norm kind {norm_kind!r}")


def primal_norm(norm_kind: str, v: np.ndarray) -> float:
    if norm_kind == "l2":
        return float(np.linalg.norm(v))
    if norm_kind == "l1":
        return float(np.sum(np.abs(v)))
    raise ValueError(f"unknown norm kind {norm_kind!r}")


def simplex_projection(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    v = np.asarray(v, dtype=np.float64)
    u = np.sort(v)[::-1]
    cumulative = np.cumsum(u) - 1.0
    indices = np.arange(1, v.size + 1)
    positive = u - cumulative / indices > 0
    rho = indices[positive][-1]
    theta = cumulative[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


def project_coords(space: HypothesisSpace, v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (space.dim,):
        raise ValueError("vector length does not match space dimension")
    if space.kind == L2_BALL:
        norm = float(np.linalg.norm(v))
        if norm <= space.radius:
            return v.copy()
        return v * (space.radius / norm)
    return simplex_projection(v)


def project(space: HypothesisSpace, v: np.ndarray) -> Hypothesis:
    return Hypothesis(space, project_coords(space, v))


# ---------------------------------------------------------------------------
# Data points and arrivals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DataPoint:
    """One observable data item.

    Exactly one payload form is populated: a labelled feature vector, a vertex
    outcome index, or nothing at all (a filler point whose loss is identically
    one and whose gradient vanishes).
    """

    features: Optional[np.ndarray] = None
    label: int = 0
    outcome: int = NULL_OUTCOME
    feature_norm: float = 0.0

    @property
    def is_null(self) -> bool:
        return self.features is None and self.outcome == NULL_OUTCOME


def feature_point(x: np.ndarray, y: int) -> DataPoint:
    """Build a labelled feature point, scaling the vector into the unit ball."""
    if y not in (-1, 1):
        raise ValueError("label must be -1 or +1")
    x = np.array(x, dtype=np.float64)
    norm = float(np.linalg.norm(x))
    if norm > 1.0:
        x /= norm
        norm = 1.0
    x.setflags(write=False)
    return DataPoint(features=x, label=int(y), feature_norm=norm)


def outcome_point(index: int) -> DataPoint:
    if index < 0:
        raise ValueError("outcome index must be nonnegative")
    return DataPoint(outcome=int(index))


def null_point() -> DataPoint:
    return DataPoint()


@dataclass(frozen=True)
class Arrival:
    """One agent's (cost, data) pair."""

    cost: float
    data: DataPoint

    def __post_init__(self):
        if not self.cost >= 0.0:
            raise ValueError("arrival cost must be nonnegative")


# ---------------------------------------------------------------------------
# Loss families
# ---------------------------------------------------------------------------


class LossFamily:
    """A family of convex losses, one instance per data point.

    ``norm_kind`` names the primal norm under which every member is
    1-Lipschitz in the hypothesis (given unit-ball features). The row-range
    kernel ``loss_delta_rows`` serves the mechanism's array windows and the
    scalar methods serve the rounds it plays one by one; for the families a
    config can select (hinge and linear-simplex) the two agree bit for bit.
    The whole-dataset methods serve oracles and metrics and agree to
    rounding.
    """

    kind: str = ""
    norm_kind: str = "l2"

    def loss(self, w: np.ndarray, point: DataPoint) -> float:
        raise NotImplementedError

    def grad(self, w: np.ndarray, point: DataPoint) -> np.ndarray:
        raise NotImplementedError

    def loss_delta(self, w: np.ndarray, point: DataPoint) -> tuple[float, float]:
        """Loss value and dual norm of the gradient, without materializing it."""
        value = self.loss(w, point)
        return value, dual_norm(self.norm_kind, self.grad(w, point))

    def grad_dual_norm(self, w: np.ndarray, point: DataPoint) -> float:
        return self.loss_delta(w, point)[1]

    def loss_delta_rows(
        self, w: np.ndarray, instance, start: int, stop: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """``loss_delta`` of every arrival ``start <= t < stop`` of a
        ``ProblemInstance`` at one hypothesis, as two arrays."""
        raise NotImplementedError


class FeatureLoss(LossFamily):
    """Margin losses phi(y * <w, x>) over labelled feature vectors.

    The per-round margin is the row sum ``(x * w).sum()``, and the row-range
    kernel ``loss_delta_rows`` takes ``(X * w).sum(axis=1)`` over a block of
    rows: numpy reduces each row of the block in the same order as the lone
    row, so the two agree bit for bit at every dimension and block size (a
    test pins this).
    ``np.dot`` (and BLAS matvec) sums in a different order and differs from
    both in the last digits for a large share of rows. The whole-dataset
    forms (``values``, ``grad_norms``, ``mean_grad``) that the offline oracle
    and the risk metrics call many times keep the faster ``X @ w``.
    """

    norm_kind = "l2"

    # scalar margin calculus (plain-float fast path)
    def _value(self, m: float) -> float:
        raise NotImplementedError

    def _slope(self, m: float) -> float:
        raise NotImplementedError

    # vectorized margin calculus
    def margin_value(self, m: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def margin_slope(self, m: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def loss(self, w, point):
        if point.features is None:
            return 1.0
        return self._value(point.label * float((point.features * w).sum()))

    def grad(self, w, point):
        if point.features is None:
            return np.zeros_like(w)
        m = point.label * float((point.features * w).sum())
        return (self._slope(m) * point.label) * point.features

    def loss_delta(self, w, point):
        if point.features is None:
            return 1.0, 0.0
        m = point.label * float((point.features * w).sum())
        return self._value(m), abs(self._slope(m)) * point.feature_norm

    def loss_delta_rows(self, w, instance, start, stop):
        m = instance.labels[start:stop] * (instance.features[start:stop] * w).sum(axis=1)
        delta = np.abs(self.margin_slope(m)) * instance.feature_norms[start:stop]
        return self.margin_value(m), delta

    # batch forms over a dataset (X rows already unit-ball normalized)
    def values(self, w, X, y) -> np.ndarray:
        return self.margin_value(y * (X @ w))

    def grad_norms(self, w, X, y, feature_norms) -> np.ndarray:
        return np.abs(self.margin_slope(y * (X @ w))) * feature_norms

    def mean_grad(self, w, X, y) -> np.ndarray:
        coeff = self.margin_slope(y * (X @ w)) * y
        return (X.T @ coeff) / len(y)


class HingeLoss(FeatureLoss):
    """max(0, 1 - margin); the subgradient at the kink is zero."""

    kind = "hinge"

    def _value(self, m):
        return 1.0 - m if m < 1.0 else 0.0

    def _slope(self, m):
        return -1.0 if m < 1.0 else 0.0

    def margin_value(self, m):
        return np.maximum(0.0, 1.0 - m)

    def margin_slope(self, m):
        return np.where(m < 1.0, -1.0, 0.0)


class LogisticLoss(FeatureLoss):
    kind = "logistic"

    def _value(self, m):
        if m < -35.0:
            return -m
        return math.log1p(math.exp(-m))

    def _slope(self, m):
        if m > 35.0:
            return -math.exp(-m)
        return -1.0 / (1.0 + math.exp(m))

    def margin_value(self, m):
        return np.logaddexp(0.0, -np.asarray(m, dtype=np.float64))

    def margin_slope(self, m):
        return -1.0 / (1.0 + np.exp(np.clip(m, -500.0, 500.0)))


class SquaredHingeLoss(FeatureLoss):
    """Squared hinge scaled by 1/(2(1+radius)) so it stays 1-Lipschitz on the ball.

    The raw squared hinge has gradient norm up to 2(1+radius) on a ball of the
    given radius; the scaling restores the Lipschitz contract and keeps the
    loss smooth (gradient itself 1-Lipschitz).
    """

    kind = "squared-hinge"

    def __init__(self, radius: float):
        if not radius > 0:
            raise InvalidConfigError("squared hinge needs the ball radius")
        self.scale = 1.0 / (2.0 * (1.0 + radius))

    def _value(self, m):
        gap = 1.0 - m
        return self.scale * gap * gap if gap > 0.0 else 0.0

    def _slope(self, m):
        gap = 1.0 - m
        return -2.0 * self.scale * gap if gap > 0.0 else 0.0

    def margin_value(self, m):
        gap = np.maximum(0.0, 1.0 - m)
        return self.scale * gap * gap

    def margin_slope(self, m):
        return -2.0 * self.scale * np.maximum(0.0, 1.0 - m)


class VertexLoss(LossFamily):
    """Linear loss 1 - w[outcome] on the simplex; filler points cost 1 flat."""

    kind = "linear-simplex"
    norm_kind = "l1"

    def loss(self, w, point):
        i = point.outcome
        if i < 0:
            return 1.0
        if i >= len(w):
            raise ValueError("outcome index exceeds dimension")
        return 1.0 - float(w[i])

    def grad(self, w, point):
        g = np.zeros_like(w)
        i = point.outcome
        if i >= 0:
            if i >= len(w):
                raise ValueError("outcome index exceeds dimension")
            g[i] = -1.0
        return g

    def loss_delta(self, w, point):
        i = point.outcome
        if i < 0:
            return 1.0, 0.0
        return 1.0 - float(w[i]), 1.0

    def loss_delta_rows(self, w, instance, start, stop):
        outcomes = instance.outcomes[start:stop]
        return self.values(w, outcomes), self.grad_norms(outcomes)

    def values(self, w, outcomes) -> np.ndarray:
        out = np.ones(len(outcomes))
        observed = outcomes >= 0
        out[observed] = 1.0 - w[outcomes[observed]]
        return out

    def grad_norms(self, outcomes) -> np.ndarray:
        return (outcomes >= 0).astype(np.float64)


_FEATURE_FAMILIES = {"hinge": HingeLoss, "logistic": LogisticLoss}


def make_family(kind: str, space: HypothesisSpace) -> LossFamily:
    """Instantiate a loss family compatible with the given space."""
    if kind == "linear-simplex":
        if space.kind != SIMPLEX:
            raise InvalidConfigError("linear-simplex losses need a simplex space")
        return VertexLoss()
    if space.kind != L2_BALL:
        raise InvalidConfigError(f"{kind} losses need an l2-ball space")
    if kind == "squared-hinge":
        return SquaredHingeLoss(space.radius)
    if kind in _FEATURE_FAMILIES:
        return _FEATURE_FAMILIES[kind]()
    raise InvalidConfigError(f"unknown loss family {kind!r}")


def eval_loss(family: LossFamily, h: Hypothesis, z: DataPoint) -> float:
    """Loss of hypothesis ``h`` on data point ``z``."""
    _check_compat(family, h, z)
    return family.loss(h.coords, z)


def eval_gradient(family: LossFamily, h: Hypothesis, z: DataPoint) -> np.ndarray:
    """A subgradient of the loss at ``h``."""
    _check_compat(family, h, z)
    return family.grad(h.coords, z)


def _check_compat(family: LossFamily, h: Hypothesis, z: DataPoint) -> None:
    if z.features is not None and z.features.shape != h.coords.shape:
        raise ValueError(
            f"feature length {z.features.shape[0]} does not match dimension {h.coords.shape[0]}"
        )
    if z.outcome >= h.space.dim:
        raise ValueError("outcome index exceeds dimension")
