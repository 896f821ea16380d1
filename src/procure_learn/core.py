"""Domain types: bounded hypothesis sets and convex loss families.

Everything here is immutable after construction and safe to share across
threads. Loss families read their data from a ``ProblemInstance``'s columns,
whose feature rows lie in the unit ball, so every family is 1-Lipschitz in
the hypothesis under its space's norm.
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
# Data points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DataPoint:
    """One arrival's data as ``ProblemInstance.data_point`` hands it out: a
    labelled feature row with its norm, an outcome index, or neither (a
    filler point)."""

    features: Optional[np.ndarray] = None
    label: int = 0
    outcome: int = NULL_OUTCOME
    feature_norm: float = 0.0


# ---------------------------------------------------------------------------
# Loss families
# ---------------------------------------------------------------------------


class LossFamily:
    """A family of convex losses, one member per arrival.

    ``norm_kind`` names the primal norm under which every member is
    1-Lipschitz in the hypothesis (given unit-ball features). The mechanism
    reads arrivals straight from a ``ProblemInstance``'s columns: the
    row-range kernel ``loss_delta_rows`` serves its array windows and the
    one-row kernel ``loss_delta_row`` the rounds it plays one by one. Both
    return the loss, delta (the dual norm of the gradient) and gradient
    coefficient from one margin per row, and agree bit for bit;
    ``row_gradient`` turns a coefficient into the gradient. The
    whole-dataset methods serve oracles and metrics and agree with them to
    rounding.
    """

    kind: str = ""
    norm_kind: str = "l2"

    def loss_delta_row(self, w: np.ndarray, instance, t: int) -> tuple[float, float, float]:
        """Loss and delta of arrival ``t`` of a ``ProblemInstance``, and the
        coefficient that ``row_gradient`` scales into its gradient."""
        raise NotImplementedError

    def loss_delta_rows(
        self, w: np.ndarray, instance, start: int, stop: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``loss_delta_row`` of every arrival ``start <= t < stop`` at one
        hypothesis, as three arrays."""
        raise NotImplementedError

    def row_gradient(self, instance, t: int, coefficient: float) -> np.ndarray:
        """The gradient at arrival ``t`` whose coefficient ``loss_delta_row``
        gave; it is zero when the coefficient is."""
        raise NotImplementedError


class FeatureLoss(LossFamily):
    """Margin losses phi(y * <w, x>) over labelled feature vectors.

    The per-round margin is the row sum ``(x * w).sum()``, and the row-range
    kernel ``loss_delta_rows`` takes ``(X * w).sum(axis=1)`` over a block of
    rows: numpy reduces each row of the block in the same order as the lone
    row, so the two agree bit for bit at every dimension and block size (a
    test pins this). The gradient coefficient is ``slope * label``, and the
    gradient is that coefficient times the row.
    ``np.dot`` (and BLAS matvec) sums in a different order and differs from
    both in the last digits for a large share of rows. The whole-dataset
    forms (``values``, ``grad_norms``, ``mean_grad``) that the risk metrics
    call, and the offline oracle, keep the faster ``X @ w``.
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

    def loss_delta_row(self, w, instance, t):
        y = int(instance.labels[t])
        m = y * float((instance.features[t] * w).sum())
        slope = self._slope(m)
        return self._value(m), abs(slope) * float(instance.feature_norms[t]), slope * y

    def loss_delta_rows(self, w, instance, start, stop):
        y = instance.labels[start:stop]
        m = y * (instance.features[start:stop] * w).sum(axis=1)
        slope = self.margin_slope(m)
        delta = np.abs(slope) * instance.feature_norms[start:stop]
        return self.margin_value(m), delta, slope * y

    def row_gradient(self, instance, t, coefficient):
        # (slope * label) * x
        return coefficient * instance.features[t]

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


class VertexLoss(LossFamily):
    """Linear loss 1 - w[outcome] on the simplex; filler points cost 1 flat."""

    kind = "linear-simplex"
    norm_kind = "l1"

    def loss_delta_row(self, w, instance, t):
        i = int(instance.outcomes[t])
        if i < 0:
            return 1.0, 0.0, 0.0
        return 1.0 - float(w[i]), 1.0, -1.0

    def loss_delta_rows(self, w, instance, start, stop):
        outcomes = instance.outcomes[start:stop]
        delta = self.grad_norms(outcomes)
        return self.values(w, outcomes), delta, -delta  # -0.0 on null rows

    def row_gradient(self, instance, t, coefficient):
        g = np.zeros(instance.space.dim)
        g[instance.outcomes[t]] = coefficient
        return g

    def values(self, w, outcomes) -> np.ndarray:
        out = np.ones(len(outcomes))
        observed = outcomes >= 0
        out[observed] = 1.0 - w[outcomes[observed]]
        return out

    def grad_norms(self, outcomes) -> np.ndarray:
        return (outcomes >= 0).astype(np.float64)


def make_family(kind: str, space: HypothesisSpace) -> LossFamily:
    """Instantiate a loss family compatible with the given space."""
    if kind == "linear-simplex":
        if space.kind != SIMPLEX:
            raise InvalidConfigError("linear-simplex losses need a simplex space")
        return VertexLoss()
    if space.kind != L2_BALL:
        raise InvalidConfigError(f"{kind} losses need an l2-ball space")
    if kind == "hinge":
        return HingeLoss()
    raise InvalidConfigError(f"unknown loss family {kind!r}")
