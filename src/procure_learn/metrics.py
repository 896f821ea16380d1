"""Best-in-hindsight oracle, held-out risk, and the record of a run's
monetary-difficulty statistics.

Pure computations over instances and hypotheses. The vertex-loss oracle is
exact (enumeration). The feature-loss oracle is projected subgradient
descent on the mean hinge loss, certified by weak duality (Boyd and
Vandenberghe, Convex Optimization, ch. 5): with ``z_i = y_i * x_i``, every
alpha in [0, 1]^n gives ``D(alpha) = sum(alpha) - radius * ||Z.T @ alpha||
<= min over ||w|| <= radius of sum_i max(0, 1 - z_i . w)``, since
``max(0, a)`` is the largest ``alpha * a`` and the min over the ball and the
max over the box swap one way. The oracle stops once its best objective is
within ``GAP`` of its best bound on the mean hinge (``GAP * T`` on the
total), or at its pass cap, where it reports the gap left.

Each pass is lean: signed rows ``Z = y * X`` built once, reused buffers,
the learner's ball kernel. The result is bit for bit that of the plain loop
(margins ``y * (X @ w)``, mean subgradient ``g``, step ``w - (radius /
sqrt(k)) * g``, objective ``.mean()``, bound ``count(m < 1) / n - radius *
||g||``; a test keeps that loop). Labels are +-1, so every changed product
is only negated, and negation commutes with rounding: ``Z @ w`` is ``y * (X
@ w)``, ``Z.T @ (u > 0)`` is ``-n * g`` before its division by ``n``, and
adding the negated step is subtracting the step. ``1 - m > 0`` holds
exactly when ``m < 1``, and ``np.add.reduce`` followed by the division is
what ``.mean()`` does."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Hypothesis, _project_ball
from .environment import ProblemInstance


# certified gap on the mean hinge loss at which the feature-loss oracle stops
GAP = 1e-4


@dataclass(frozen=True)
class OfflineSolution:
    """The smallest total loss lies in ``[lower_bound, total_loss]``;
    ``converged``: it is certified within ``GAP * T``. ``iterations``
    counts descent passes (0 for the exact vertex oracle)."""

    hypothesis: Hypothesis
    total_loss: float
    converged: bool
    iterations: int
    lower_bound: float


@dataclass(frozen=True)
class SequenceStats:
    """Realized monetary-difficulty statistics of one run.

    avg_value_cost: mean of delta * sqrt(cost) along the posted hypotheses.
    avg_value: the same with all costs set to one (mean delta).
    avg_sqrt_cost / avg_cost: cost-only summaries, hypothesis-free.
    opt_value_cost: mean delta * sqrt(cost) evaluated at the offline optimum.

    Costs lie in [0, 1] (money in units of the largest cost), so each
    statistic lies in [0, 1] and the chain avg_value_cost <= avg_value,
    avg_value_cost <= avg_sqrt_cost <= sqrt(avg_cost) always holds; the
    first two are the ``PriorKnowledge`` a from-knowledge scale reads.
    """

    avg_value_cost: float
    avg_value: float
    avg_sqrt_cost: float
    avg_cost: float
    opt_value_cost: float


def hindsight_stats(instance: ProblemInstance, solution: OfflineSolution) -> dict[str, float]:
    """The entries of ``SequenceStats`` that no run changes: the mean
    delta * sqrt(cost) at the offline optimum and the two cost summaries."""
    sqrt_costs = np.sqrt(instance.costs)
    star = instance.grad_norms_at(solution.hypothesis.coords)
    return {
        "opt_value_cost": float(np.mean(star * sqrt_costs)),
        "avg_sqrt_cost": float(np.mean(sqrt_costs)),
        "avg_cost": float(np.mean(instance.costs)),
    }


def offline_best(instance: ProblemInstance, iterations: int = 1500) -> OfflineSolution:
    """Best fixed hypothesis in hindsight for the whole arrival sequence.

    Vertex losses: exact enumeration. Feature losses: projected subgradient
    descent with step radius/sqrt(k), keeping the best iterate and the best
    bound ``D(active) / n``, ``active`` being the pass's mask of rows whose
    hinge is active; the step needs ``Z.T @ active`` anyway, so the bound
    costs one sum and one norm. Each pass computes ``u = 1 - Z @ w`` once,
    for the objective (the mean of ``max(u, 0)``) and the next step.
    """
    space = instance.space
    if instance.outcomes is not None:
        observed = instance.outcomes[instance.outcomes >= 0]
        counts = np.bincount(observed, minlength=space.dim)
        best = int(np.argmax(counts))
        coords = np.zeros(space.dim)
        coords[best] = 1.0
        total = float(instance.horizon - counts[best])
        return OfflineSolution(Hypothesis(space, coords), total, True, 0, total)

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
    bound = 0.0  # the best D seen; D(0) = 0
    k = 0
    while best_obj - bound > GAP and k < iterations:
        k += 1
        np.greater(u, 0.0, out=active)
        step = (Z.T @ active) / n  # the negated mean subgradient
        bound = max(bound, float(np.add.reduce(active)) / n - radius * math.sqrt(step @ step))
        w = _project_ball(w + (radius / math.sqrt(k)) * step, radius)
        np.subtract(1.0, Z @ w, out=u)
        obj = float(np.add.reduce(np.maximum(u, 0.0, out=hinge))) / n
        if obj < best_obj:
            best_obj, best_w = obj, w
    # an exact bound can round above the objective it equals
    lower = min(bound, best_obj) * n
    return OfflineSolution(Hypothesis(space, best_w), best_obj * n, best_obj - bound <= GAP, k, lower)


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
        return float(np.maximum(0.0, 1.0 - y * (X @ w)).mean())
    if metric == "zero-one":
        return float(np.mean(y * (X @ w) <= 0.0))
    raise ValueError(f"unknown risk metric {metric!r}")
