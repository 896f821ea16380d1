"""Domain types: bounded hypothesis sets, their norms and projections, and
the data point an instance hands out.

Everything here is immutable after construction and safe to share across
threads. The losses are read off a ``ProblemInstance``'s columns, whose
feature rows lie in the unit ball, so every loss is 1-Lipschitz in the
hypothesis under its space's norm.
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
        if self.kind == L2_BALL and not 0 < self.radius < math.inf:  # NaN fails both
            raise InvalidConfigError("ball radius must be positive and finite")

    @property
    def reg_bound(self) -> float:
        if self.kind == L2_BALL:
            return 0.5 * self.radius * self.radius
        return math.log(self.dim)

    @property
    def norm_kind(self) -> str:
        """Primal norm the space's regularizer is strongly convex under."""
        return "l2" if self.kind == L2_BALL else "l1"

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


def _project_ball(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection of a contiguous float vector onto the ball of
    ``radius``: ``v`` itself when it lies inside, so pass a vector nothing
    else holds. The norm ``math.sqrt(v.dot(v))`` is what ``np.linalg.norm``
    computes for such a vector, without its dispatch; ``v @ v`` gives the
    same bits through the slower matmul dispatch."""
    norm = math.sqrt(v.dot(v))
    if norm <= radius:
        return v
    return v * (radius / norm)


def _project_ball_rows(Z: np.ndarray, radius: float) -> np.ndarray:
    """``_project_ball`` of each row of the float block ``Z``, in place,
    bit for bit the one-row form: ``np.vecdot`` takes each row's squared
    norm with the same dot kernel as ``v.dot(v)`` (a test pins this), where
    ``einsum`` and ``(Z * Z).sum(axis=1)`` sum in other orders. A row inside
    the ball is multiplied by exactly 1.0, which changes none of its bits,
    and a zero row is never divided by."""
    norms = np.sqrt(np.vecdot(Z, Z))
    Z *= (radius / np.maximum(norms, radius))[:, None]
    return Z


def project_coords(space: HypothesisSpace, v: np.ndarray) -> np.ndarray:
    """Euclidean projection of ``v`` onto ``space``, as a new array."""
    v = np.array(v, dtype=np.float64)  # a contiguous copy, which may be the result
    if v.shape != (space.dim,):
        raise ValueError("vector length does not match space dimension")
    if space.kind == L2_BALL:
        return _project_ball(v, space.radius)
    return simplex_projection(v)


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
