"""Follow-the-regularized-leader learners with importance-weighted feeding.

The learner posts the minimizer of (regularizer / learning_rate) + cumulative
linearized loss. Both instantiations have closed forms: lazy projection onto
the ball for the euclidean regularizer, and a softmax of the negated gradient
sum for negative entropy on the simplex. Updates are linearized at the posted
hypothesis, which can only overestimate the regret of the true convex losses.

The learning rate is a ``FixedRate`` or the self-tuned ``TheoryRate``,
which reads the bound sum: sum((delta / q)^2) over the functions the learner
was actually fed. ``regret_bound`` turns the rates and that sum into a
realized path bound. With every observation probability equal to one this
is a deterministic upper bound on realized regret; under partial
observation its expectation matches the guaranteed bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .core import (
    HypothesisSpace,
    InvalidConfigError,
    L2_BALL,
    _project_ball,
    _project_ball_rows,
    dual_norm,
)


@dataclass(frozen=True)
class FixedRate:
    value: float

    def __post_init__(self):
        if not 0 < self.value < math.inf:  # NaN fails both
            raise InvalidConfigError(f"learning rate must be positive and finite, got {self.value}")


@dataclass(frozen=True)
class TheoryRate:
    """The self-tuned rate (McMahan, JMLR 2017; Streeter and McMahan, "Less
    Regret via Online Conditioning", 2010): after the bound sum S of the
    feeds so far, sqrt(2 * reg_bound / max(S, 1)). It reads no budget,
    horizon or price scale, and only falls as the learner is fed."""


RatePolicy = Union[FixedRate, TheoryRate]


class FtrlLearner:
    """Mutable per-run learner state; owned by a single run, never shared.
    The regularizer is the space's own: euclidean on the ball, negative
    entropy on the simplex.

    The learner is lazy (McMahan, "A Survey of Algorithms and Analysis for
    Adaptive Online Learning", JMLR 2017): its whole state is the gradient
    sum and the bound sum, so its iterates are a function of the sequence of
    fed gradients alone. A block of feeds is therefore one ``_feed_rows``:
    the sums by a cumulative sum down the rows, which adds them in feed
    order, and the iterates by the row-wise softmax kernel that a single
    feed applies to a batch of one, or by the row-wise ball projection with
    the one-row projection's bits. The block ends bit for bit where the
    feeds one at a time would. A vertex run replays all its purchases in
    one block; a feature run feeds blocks of guessed feeds and keeps the
    prefix that its guesses got right. ``feed_gradient`` checks its
    inputs; the mechanism's ``_feed`` and ``_feed_rows`` do only the
    update. A rejected round feeds nothing: the zero function leaves the
    sums as they are.

    ``learning_rate`` is the rate the current hypothesis was posted at. A
    ``TheoryRate`` takes it of the bound sum, with one ``math.sqrt`` a feed
    and one ``np.sqrt`` a row of a block; both are correctly rounded, as is
    the division before them, so a block keeps the bits of the feeds one at
    a time. ``rated_sum`` adds up each feed's (delta / q)^2 times the rate
    before it, for ``regret_bound``.
    """

    def __init__(self, space: HypothesisSpace, rate: RatePolicy):
        self.space = space
        self._tuned = isinstance(rate, TheoryRate)
        self._twice_reg = 2.0 * space.reg_bound
        self.learning_rate = math.sqrt(self._twice_reg) if self._tuned else rate.value
        self.grad_sum = np.zeros(space.dim)
        self.bound_sum = 0.0
        self.rated_sum = 0.0
        # the ball's radius, or None on the simplex
        self._radius = space.radius if space.kind == L2_BALL else None
        self._coords = self._argmin_regularizer()

    def _argmin_regularizer(self) -> np.ndarray:
        if self._radius is not None:
            return np.zeros(self.space.dim)
        return np.full(self.space.dim, 1.0 / self.space.dim)

    @property
    def coords(self) -> np.ndarray:
        """Current hypothesis as a raw vector; treat as read-only. A feed
        replaces the array rather than writing into it."""
        return self._coords

    def feed_gradient(
        self,
        gradient: np.ndarray,
        inverse_weight: float = 1.0,
        delta: Optional[float] = None,
    ) -> None:
        """Feed one function's ``gradient`` at ``inverse_weight``, 1/q for a
        purchase bought with probability q, checking every input; ``delta``
        defaults to the gradient's dual norm."""
        gradient = np.asarray(gradient, dtype=np.float64)
        if gradient.shape != (self.space.dim,):
            raise ValueError("gradient length does not match space dimension")
        if not np.all(np.isfinite(gradient)):
            raise ValueError("non-finite gradient")
        if not inverse_weight >= 1.0 - 1e-12:  # NaN fails too
            raise ValueError("inverse weight must be at least 1")
        if delta is None:
            delta = dual_norm(self.space.norm_kind, gradient)
        elif not 0.0 <= delta < math.inf:  # NaN fails both
            raise ValueError("delta must be finite and >= 0")
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
        square = weighted * weighted
        self.bound_sum += square
        self.rated_sum += self.learning_rate * square
        if self._tuned:
            self.learning_rate = math.sqrt(self._twice_reg / max(self.bound_sum, 1.0))
        z = self.grad_sum * -self.learning_rate  # a fresh array, so it needs no copy
        if self._radius is not None:
            self._coords = _project_ball(z, self._radius)
        else:
            self._coords = _softmax_rows(z[None])[0]

    def _feed_rows(
        self, gradients: np.ndarray, inverse_weights: np.ndarray, deltas: np.ndarray, keep=None
    ) -> np.ndarray:
        """``_feed`` of each row of ``gradients`` in turn, as one block in
        either space. Returns the hypotheses posted before the first feed
        and after each, one row each; the learner ends with the sums and
        coordinates the feeds one at a time would leave. ``keep(posted)``,
        if given, sees every row and returns how many leading feeds to
        keep: the learner then ends after those, as if fed only them, and
        the rows returned stop there too."""
        n, dim = gradients.shape
        block = np.empty((n + 1, dim + 1))
        block[0, :dim] = self.grad_sum
        block[0, dim] = self.bound_sum
        if (inverse_weights == 1.0).all():  # as ``_feed`` skips a weight of one
            block[1:, :dim] = gradients
        else:
            np.multiply(gradients, inverse_weights[:, None], out=block[1:, :dim])
        weighted = deltas * inverse_weights
        block[1:, dim] = weighted * weighted
        sums = np.add.accumulate(block)  # a cumulative sum down the rows adds them in order
        if self._tuned:
            rates = np.sqrt(self._twice_reg / np.maximum(sums[:, dim], 1.0))
            posted = sums[:, :dim] * -rates[:, None]
        else:  # one rate scales every row alike
            rates = np.full(n + 1, self.learning_rate)
            posted = sums[:, :dim] * -self.learning_rate
        rated = np.empty(n + 1)
        rated[0] = self.rated_sum
        np.multiply(rates[:-1], block[1:, dim], out=rated[1:])
        np.add.accumulate(rated, out=rated)
        if self._radius is not None:
            _project_ball_rows(posted, self._radius)
        else:
            _softmax_rows(posted)
        posted[0] = self._coords  # as it is: a fresh learner's need not be what its sums give
        if keep is not None:
            n = keep(posted)
        self.grad_sum = sums[n, :dim].copy()
        self.bound_sum = float(sums[n, dim])
        self.rated_sum = float(rated[n])
        self.learning_rate = float(rates[n])
        self._coords = posted[n].copy()
        return posted[: n + 1]

    def regret_bound(self) -> float:
        """Realized-path regret bound for the functions fed so far:
        reg_bound / eta_T + 2 * sum_t eta_{t-1} * (delta_t / q_t)^2, where
        eta_{t-1} is the rate that posted feed t's hypothesis and eta_T the
        rate after the last feed. At a fixed rate eta it is
        reg_bound / eta + 2 * eta * bound_sum.

        Derivation (McMahan, JMLR 2017, Theorem 1, for FTRL with
        non-negative incremental regularizers). The learner plays
        x_t = argmin <g_{1:t-1}, x> + r(x) / eta_{t-1}, with r shifted so
        that its minimum over the space is 0 and its maximum reg_bound.
        Both rates never rise: a fixed one is constant, and the theory rate
        falls as the bound sum grows. So each increment
        (1 / eta_t - 1 / eta_{t-1}) * r is non-negative, and r / eta_{t-1}
        is 1 / eta_{t-1}-strongly convex in the space's norm. The theorem
        then bounds the regret of the linearized losses <g_t, x> against
        any fixed u by r(u) / eta_{T-1} + (1 / 2) * sum_t eta_{t-1} *
        ||g_t||_*^2, and r(u) / eta_{T-1} <= reg_bound / eta_T. A fed
        function is g_t = gradient / q_t, with dual norm delta_t / q_t. The
        bound keeps the looser constant 2 in place of 1 / 2."""
        return self.space.reg_bound / self.learning_rate + 2.0 * self.rated_sum


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    """Softmax of each row of ``z``, in place: the simplex learner's
    hypothesis at the negated, rate-scaled gradient sums. One feed is a
    batch of one row."""
    z -= z.max(axis=1, keepdims=True)  # overflow guard; softmax is shift-invariant
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z
