"""Follow-the-regularized-leader learners with importance-weighted feeding.

The learner posts the minimizer of (regularizer / learning_rate) + cumulative
linearized loss. Both instantiations have closed forms: lazy projection onto
the ball for the euclidean regularizer, and a softmax of the negated gradient
sum for negative entropy on the simplex. Updates are linearized at the posted
hypothesis, which can only overestimate the regret of the true convex losses.

Alongside the iterates the learner accumulates sum((delta / q)^2) over the
functions it was actually fed; ``regret_bound`` turns that into the realized
path bound reg_bound / lr + 2 * lr * sum. With every observation probability
equal to one this is a deterministic upper bound on realized regret; under
partial observation its expectation matches the guaranteed bound.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .core import (
    L2_BALL,
    Hypothesis,
    HypothesisSpace,
    InvalidConfigError,
    dual_norm,
    project_coords,
)

EUCLIDEAN = "euclidean"
NEG_ENTROPY = "neg-entropy"

_PAIRING = {L2_BALL: EUCLIDEAN, "simplex": NEG_ENTROPY}


class FtrlLearner:
    """Mutable per-run learner state; owned by a single run, never shared."""

    def __init__(
        self,
        space: HypothesisSpace,
        learning_rate: float,
        regularizer: Optional[str] = None,
    ):
        if regularizer is None:
            regularizer = _PAIRING[space.kind]
        if _PAIRING[space.kind] != regularizer:
            raise InvalidConfigError(
                f"regularizer {regularizer!r} does not match space kind {space.kind!r}"
            )
        if not learning_rate > 0:
            raise InvalidConfigError("learning rate must be positive")
        self.space = space
        self.regularizer = regularizer
        self.learning_rate = learning_rate
        self.grad_sum = np.zeros(space.dim)
        self.bound_sum = 0.0
        self._coords = self._argmin_regularizer()

    def _argmin_regularizer(self) -> np.ndarray:
        if self.regularizer == EUCLIDEAN:
            return np.zeros(self.space.dim)
        return np.full(self.space.dim, 1.0 / self.space.dim)

    @property
    def coords(self) -> np.ndarray:
        """Current hypothesis as a raw vector; treat as read-only."""
        return self._coords

    def post(self) -> Hypothesis:
        """The hypothesis played this round."""
        return Hypothesis(self.space, self._coords)

    def feed_zero(self) -> None:
        """Observe the zero function: state is unchanged by construction."""

    def feed_gradient(
        self,
        gradient: np.ndarray,
        inverse_weight: float = 1.0,
        delta: Optional[float] = None,
    ) -> None:
        gradient = np.asarray(gradient, dtype=np.float64)
        if gradient.shape != (self.space.dim,):
            raise ValueError("gradient length does not match space dimension")
        if not np.all(np.isfinite(gradient)):
            raise ValueError("non-finite gradient")
        if inverse_weight < 1.0 - 1e-12:
            raise ValueError("inverse weight must be at least 1")
        if delta is None:
            delta = dual_norm(self.space.norm_kind, gradient)
        self.grad_sum += gradient * inverse_weight
        weighted = delta * inverse_weight
        self.bound_sum += weighted * weighted
        self._recompute()

    def _recompute(self) -> None:
        z = self.grad_sum * (-self.learning_rate)
        if self.regularizer == EUCLIDEAN:
            self._coords = project_coords(self.space, z)
        else:
            z -= z.max()  # overflow guard; softmax is shift-invariant
            np.exp(z, out=z)
            z /= z.sum()
            self._coords = z

    def iw_feed(
        self,
        q: float,
        obtained: bool,
        gradient: Optional[np.ndarray] = None,
        delta: Optional[float] = None,
    ) -> None:
        """Importance-weighted observation with probability-q acquisition.

        An obtained function is fed scaled by 1/q; a missed one feeds zero.
        """
        if not obtained:
            self.feed_zero()
            return
        if not q > 0.0:
            raise ValueError("obtained observations need q > 0")
        if q > 1.0 + 1e-12:
            raise ValueError("q must be a probability")
        if gradient is None:
            raise ValueError("obtained observations need a gradient")
        self.feed_gradient(gradient, 1.0 / min(q, 1.0), delta)

    def regret_bound(self) -> float:
        """Realized-path regret bound for the functions fed so far."""
        return (
            self.space.reg_bound / self.learning_rate
            + 2.0 * self.learning_rate * self.bound_sum
        )
