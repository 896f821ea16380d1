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

from .core import HypothesisSpace, InvalidConfigError, L2_BALL, _project_ball, dual_norm


class FtrlLearner:
    """Mutable per-run learner state; owned by a single run, never shared.
    The regularizer is the space's own: euclidean on the ball, negative
    entropy on the simplex.

    The learner is lazy (McMahan, "A Survey of Algorithms and Analysis for
    Adaptive Online Learning", JMLR 2017): its whole state is the gradient
    sum and the bound sum, so its iterates are a function of the sequence of
    fed gradients alone. A run that has decided all its purchases before
    learning, as a vertex run does, replays them in one block with
    ``_feed_rows``: the sums by a cumulative sum down the rows, which adds
    them in feed order, and the iterates by the row-wise softmax kernel that
    a single feed applies to a batch of one. The block therefore ends bit
    for bit where the feeds one at a time would. ``feed_gradient`` and
    ``iw_feed`` check their inputs; the mechanism's ``_feed`` and
    ``_feed_rows`` do only the update.
    """

    def __init__(self, space: HypothesisSpace, learning_rate: float):
        if not learning_rate > 0:
            raise InvalidConfigError("learning rate must be positive")
        self.space = space
        self.learning_rate = learning_rate
        self._negative_rate = np.array(-learning_rate)  # a 0-d array multiplies faster
        self.grad_sum = np.zeros(space.dim)
        self.bound_sum = 0.0
        self._coords = self._argmin_regularizer()

    def _argmin_regularizer(self) -> np.ndarray:
        if self.space.kind == L2_BALL:
            return np.zeros(self.space.dim)
        return np.full(self.space.dim, 1.0 / self.space.dim)

    @property
    def coords(self) -> np.ndarray:
        """Current hypothesis as a raw vector; treat as read-only. A feed
        replaces the array rather than writing into it."""
        return self._coords

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
        self._feed(gradient, inverse_weight, delta)

    def _feed(
        self, gradient: np.ndarray, inverse_weight: float, delta: float, negate: bool = False
    ) -> None:
        """``feed_gradient`` without its checks, of ``-gradient`` when
        ``negate``, for a mechanism whose instance was checked when built.
        Skipping a weight of one and subtracting keep the bits."""
        if inverse_weight != 1.0:
            gradient = gradient * inverse_weight
        if negate:
            self.grad_sum -= gradient
        else:
            self.grad_sum += gradient
        weighted = delta * inverse_weight
        self.bound_sum += weighted * weighted
        z = self.grad_sum * self._negative_rate  # a fresh array, so it needs no copy
        if self.space.kind == L2_BALL:
            self._coords = _project_ball(z, self.space.radius)
        else:
            self._coords = _softmax_rows(z[None])[0]

    def _feed_rows(
        self, gradients: np.ndarray, inverse_weights: np.ndarray, deltas: np.ndarray
    ) -> np.ndarray:
        """``_feed`` of each row of ``gradients`` in turn, as one block on the
        simplex. Returns the hypotheses posted before the first feed and
        after each, one row each; the learner ends with the sums and
        coordinates the feeds one at a time would leave."""
        n, dim = gradients.shape
        # cumsum along axis 0 adds the rows in order, as the feeds do
        block = np.empty((n + 1, dim + 1))
        block[0, :dim] = self.grad_sum
        block[0, dim] = self.bound_sum
        block[1:, :dim] = gradients * inverse_weights[:, None]
        weighted = deltas * inverse_weights
        block[1:, dim] = weighted * weighted
        sums = block.cumsum(axis=0)
        posted = np.empty((n + 1, dim))
        posted[0] = self._coords
        posted[1:] = _softmax_rows(sums[1:, :dim] * (-self.learning_rate))
        self.grad_sum = sums[-1, :dim].copy()
        self.bound_sum = float(sums[-1, dim])
        self._coords = posted[-1].copy()
        return posted

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


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    """Softmax of each row of ``z``, in place: the simplex learner's
    hypothesis at the negated, rate-scaled gradient sums. One feed is a
    batch of one row."""
    z -= z.max(axis=1, keepdims=True)  # overflow guard; softmax is shift-invariant
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z
