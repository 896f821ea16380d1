"""Best-in-hindsight oracle, held-out risk, and the record of a run's
monetary-difficulty statistics.

Pure computations over instances and hypotheses. The vertex-loss oracle is
exact (enumeration); the feature-loss oracle is full-gradient projected
descent on the mean hinge loss with a best-iterate tracker and a
convergence flag rather than a hard failure at the iteration cap.

The feature-loss oracle takes most of a short linear trial, so each pass
is kept lean. It works on the signed rows ``Z = y * X``, built once,
writes its per-row arrays into buffers reused from pass to pass, and
projects with the ball kernel the learner uses. Its result is bit for bit
that of the plain loop (margins ``y * (X @ w)``, mean subgradient ``g``,
step ``w - (radius / sqrt(k)) * g``, objective ``.mean()``; a test keeps
that loop). Labels are +-1, so every product that changes is only negated,
and negation commutes with rounding: ``Z @ w`` is ``y * (X @ w)``,
``Z.T @ (u > 0)`` is ``-n * g`` before its division by ``n``, and adding
the negated step is subtracting the step. ``1 - m > 0`` holds exactly when
``m < 1``, and ``np.add.reduce`` followed by the division is what ``.mean()``
does."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Hypothesis, VertexLoss, _project_ball
from .environment import ProblemInstance


# relative improvement of the best objective that counts as progress
_TOL = 1e-8


@dataclass(frozen=True)
class OfflineSolution:
    hypothesis: Hypothesis
    total_loss: float
    converged: bool
    iterations: int


@dataclass(frozen=True)
class SequenceStats:
    """Realized monetary-difficulty statistics of one run.

    avg_value_cost: mean of delta * sqrt(cost) along the posted hypotheses.
    avg_value: the same with all costs set to one (mean delta).
    avg_sqrt_cost / avg_cost: cost-only summaries, hypothesis-free.
    opt_value_cost: mean delta * sqrt(cost) evaluated at the offline optimum.

    For unit-capped costs the chain avg_value_cost <= avg_value,
    avg_value_cost <= avg_sqrt_cost <= sqrt(avg_cost) always holds.
    """

    avg_value_cost: float
    avg_value: float
    avg_sqrt_cost: float
    avg_cost: float
    opt_value_cost: float


def offline_best(
    instance: ProblemInstance,
    iterations: int = 2000,
    patience: int = 50,
) -> OfflineSolution:
    """Best fixed hypothesis in hindsight for the whole arrival sequence.

    Vertex losses: exact minimizer by vertex enumeration. Feature losses:
    multi-pass projected (sub)gradient descent on the mean hinge loss with
    step radius/sqrt(k), stopping once the best objective stops improving
    by a relative ``_TOL`` for ``patience`` consecutive passes. Each pass
    computes the margins once, from the signed rows ``Z = y * X`` built
    before the first: ``u = 1 - Z @ w`` gives the objective, the mean of
    ``max(u, 0)``, and the next pass's step along ``Z.T @ (u > 0)``, the
    negated subgradient sum. ``u``, the active mask and ``max(u, 0)`` live
    in three buffers of length n that every pass reuses. The module
    docstring says why this equals the plain loop bit for bit.
    """
    space = instance.space
    if isinstance(instance.family, VertexLoss):
        observed = instance.outcomes[instance.outcomes >= 0]
        counts = np.bincount(observed, minlength=space.dim)
        best = int(np.argmax(counts))
        coords = np.zeros(space.dim)
        coords[best] = 1.0
        total = float(instance.horizon - counts[best])
        return OfflineSolution(Hypothesis(space, coords), total, True, 0)

    y = instance.labels
    n, radius = len(y), space.radius
    Z = y[:, None] * instance.features
    u = np.empty(n)  # 1 - margin
    active = np.empty(n)  # 1.0 where the hinge is active (u > 0), else 0.0
    hinge = np.empty(n)  # max(u, 0)
    w = np.zeros(space.dim)
    np.subtract(1.0, Z @ w, out=u)
    best_w = w
    best_obj = float(np.add.reduce(np.maximum(u, 0.0, out=hinge))) / n
    stale = 0
    k = 0
    for k in range(1, iterations + 1):
        np.greater(u, 0.0, out=active)
        w = _project_ball(w + (radius / math.sqrt(k)) * ((Z.T @ active) / n), radius)
        np.subtract(1.0, Z @ w, out=u)
        obj = float(np.add.reduce(np.maximum(u, 0.0, out=hinge))) / n
        if obj < best_obj - _TOL * max(1.0, abs(best_obj)):
            best_obj, best_w, stale = obj, w, 0
        else:
            stale += 1
            if stale >= patience:
                break
    converged = stale >= patience
    return OfflineSolution(Hypothesis(space, best_w), best_obj * n, converged, k)


def risk(
    instance: ProblemInstance, h: Hypothesis | np.ndarray, metric: str = "surrogate"
) -> float:
    """Mean loss (surrogate) or misclassification rate (zero-one, ties count
    as errors) of a hypothesis on an instance's held-out set."""
    if not instance.has_test_set:
        raise ValueError("empty test set")
    X, y = instance.test_features, instance.test_labels
    w = h.coords if isinstance(h, Hypothesis) else np.asarray(h)
    if metric == "surrogate":
        return float(instance.family.values(w, X, y).mean())
    if metric == "zero-one":
        return float(np.mean(y * (X @ w) <= 0.0))
    raise ValueError(f"unknown risk metric {metric!r}")
