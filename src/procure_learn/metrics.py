"""Best-in-hindsight oracle, regret and risk, and monetary-difficulty stats.

Pure computations over instances, posted hypotheses, and transcripts. The
vertex-loss oracle is exact (enumeration); the feature-loss oracle is
full-gradient projected descent with a best-iterate tracker and a convergence
flag rather than a hard failure at the iteration cap."""

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
    and their ``margin_slope`` the next pass's gradient, the same arithmetic
    as ``values`` and ``mean_grad`` on the same margins.
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


def regret(transcript, instance: ProblemInstance, h_star: Hypothesis) -> float:
    """Total posted-hypothesis loss minus the loss of the fixed comparator.

    Losses count every round whether or not the arrival was purchased.
    """
    if len(transcript) != instance.horizon:
        raise ValueError(
            f"transcript covers {len(transcript)} rounds, instance has {instance.horizon}"
        )
    posted = float(np.sum(transcript.loss))
    return posted - float(instance.losses_at(h_star.coords).sum())


def loss_total(instance: ProblemInstance, hypotheses: np.ndarray) -> float:
    """Recompute the run's total loss from scratch given the posted iterates."""
    H = np.asarray(hypotheses)
    if H.shape != (instance.horizon, instance.space.dim):
        raise ValueError("need one posted hypothesis per round")
    if instance.outcomes is not None:
        observed = instance.outcomes >= 0
        picked = H[observed, instance.outcomes[observed]]
        return float(instance.horizon - picked.sum())
    margins = instance.labels * np.einsum("td,td->t", H, instance.features)
    return float(instance.family.margin_value(margins).sum())


def risk(
    family,
    h: Hypothesis | np.ndarray,
    X: np.ndarray,
    y: np.ndarray,
    metric: str = "surrogate",
) -> float:
    """Mean loss (surrogate) or misclassification rate (zero-one, ties count
    as errors) of a hypothesis on a held-out set."""
    if len(X) == 0:
        raise ValueError("empty test set")
    w = h.coords if isinstance(h, Hypothesis) else np.asarray(h)
    if metric == "surrogate":
        return float(family.values(w, X, y).mean())
    if metric == "zero-one":
        return float(np.mean(y * (X @ w) <= 0.0))
    raise ValueError(f"unknown risk metric {metric!r}")


def mean_round_risk(
    family, hypotheses: np.ndarray, X: np.ndarray, y: np.ndarray, chunk: int = 256
) -> float:
    """Mean over rounds of the surrogate test risk of each posted hypothesis."""
    H = np.asarray(hypotheses)
    total = 0.0
    for start in range(0, len(H), chunk):
        block = H[start : start + chunk]
        margins = (block @ X.T) * y
        total += float(family.margin_value(margins).mean(axis=1).sum())
    return total / len(H)


def deltas_along_run(instance: ProblemInstance, hypotheses: np.ndarray) -> np.ndarray:
    """Per-round gradient dual norms at the posted hypotheses."""
    H = np.asarray(hypotheses)
    if instance.outcomes is not None:
        return instance.family.grad_norms(instance.outcomes)
    margins = instance.labels * np.einsum("td,td->t", H, instance.features)
    return np.abs(instance.family.margin_slope(margins)) * instance.feature_norms


def sequence_stats(
    instance: ProblemInstance, hypotheses: np.ndarray, h_star: Hypothesis
) -> SequenceStats:
    """Difficulty statistics of an executed run (posted iterates required)."""
    deltas = deltas_along_run(instance, hypotheses)
    sqrt_costs = np.sqrt(instance.costs)
    star_deltas = instance.grad_norms_at(h_star.coords)
    return SequenceStats(
        avg_value_cost=float(np.mean(deltas * sqrt_costs)),
        avg_value=float(np.mean(deltas)),
        avg_sqrt_cost=float(np.mean(sqrt_costs)),
        avg_cost=float(np.mean(instance.costs)),
        opt_value_cost=float(np.mean(star_deltas * sqrt_costs)),
    )
