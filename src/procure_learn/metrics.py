"""Best-in-hindsight oracle, held-out risk, and the record of a run's
monetary-difficulty statistics.

Pure computations over instances and hypotheses. The vertex-loss oracle is
exact (enumeration); the feature-loss oracle is full-gradient projected
descent with a best-iterate tracker and a convergence flag rather than a
hard failure at the iteration cap."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Hypothesis, VertexLoss, project_coords
from .environment import ProblemInstance


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
    tol: float = 1e-8,
    patience: int = 50,
) -> OfflineSolution:
    """Best fixed hypothesis in hindsight for the whole arrival sequence.

    Vertex losses: exact minimizer by vertex enumeration. Feature losses:
    multi-pass projected (sub)gradient descent with step radius/sqrt(k),
    stopping once the best objective stops improving by a relative ``tol``
    for ``patience`` consecutive passes. Each pass computes the margins
    ``y * (X @ w)`` once: their ``margin_value`` is the objective at ``w``
    and their ``margin_slope`` gives the next pass's mean gradient.
    """
    space, family = instance.space, instance.family
    if isinstance(family, VertexLoss):
        observed = instance.outcomes[instance.outcomes >= 0]
        counts = np.bincount(observed, minlength=space.dim)
        best = int(np.argmax(counts))
        coords = np.zeros(space.dim)
        coords[best] = 1.0
        total = float(instance.horizon - counts[best])
        return OfflineSolution(Hypothesis(space, coords), total, True, 0)

    X, y = instance.features, instance.labels
    n = len(y)
    w = np.zeros(space.dim)
    m = y * (X @ w)
    best_w = w
    best_obj = float(family.margin_value(m).mean())
    stale = 0
    k = 0
    for k in range(1, iterations + 1):
        g = (X.T @ (family.margin_slope(m) * y)) / n
        w = project_coords(space, w - (space.radius / math.sqrt(k)) * g)
        m = y * (X @ w)
        obj = float(family.margin_value(m).mean())
        if obj < best_obj - tol * max(1.0, abs(best_obj)):
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
