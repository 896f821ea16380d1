"""Independent recomputations that the tests check the package against.

Nothing in the package calls these. Each recomputes a result the package
produces another way: a lazy FTRL learner fed one purchase at a time, a
run's regret, total loss and difficulty statistics from its posted
iterates, the per-round iterates themselves by replaying a run's
purchases, a dataset's mean gradient, CSV fields formatted one value at a
time, and IDX files to load back.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from procure_learn.core import L2_BALL, Hypothesis, HypothesisSpace, project_coords
from procure_learn.environment import IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC, ProblemInstance
from procure_learn.ftrl import FixedRate
from procure_learn.metrics import SequenceStats


class LazyFtrl:
    """Lazy FTRL in plain numpy, one feed at a time: the gradient sum and the
    bound sum, and the hypothesis at the negated, rate-scaled gradient sum,
    projected onto the ball or softmaxed on the simplex. The rate is a
    ``FixedRate``'s value, or else the self-tuned
    sqrt(2 * reg_bound / max(bound_sum, 1)) after each feed. Each feed takes
    the steps of the package's learner in the same order, so the two end
    bit for bit alike; a rejected round is simply not fed."""

    def __init__(self, space: HypothesisSpace, rate):
        self.space, self.fixed, self.bound_sum = space, isinstance(rate, FixedRate), 0.0
        self.rate = rate.value if self.fixed else math.sqrt(2.0 * space.reg_bound)
        self.grad_sum = np.zeros(space.dim)
        self.coords = np.full(space.dim, 0.0 if space.kind == L2_BALL else 1.0 / space.dim)

    def feed(self, gradient: np.ndarray, q: float, delta: float) -> None:
        """Feed a purchase bought with probability ``q``: its gradient and
        delta weighted by 1 / q."""
        weight = 1.0 / q
        self.grad_sum = self.grad_sum + gradient * weight
        weighted = delta * weight
        self.bound_sum += weighted * weighted
        if not self.fixed:
            self.rate = math.sqrt(2.0 * self.space.reg_bound / max(self.bound_sum, 1.0))
        z = self.grad_sum * -self.rate
        if self.space.kind == L2_BALL:
            norm = math.sqrt(z.dot(z))
            self.coords = z if norm <= self.space.radius else z * (self.space.radius / norm)
        else:
            e = np.exp(z - z.max())
            self.coords = e / e.sum()


def hinge_row(instance: ProblemInstance, w: np.ndarray, t: int) -> tuple[float, float, float]:
    """Loss, delta and gradient coefficient (slope * label, which times the
    row is the gradient) of feature arrival ``t`` at ``w``: the instance's
    block kernel on a block of one row. The hinge is active, and its slope
    -1, exactly where the loss 1 - m is positive."""
    loss, delta = instance.at_posted(np.asarray(w)[None, :], t, t + 1)
    slope = -1.0 if loss[0] > 0.0 else 0.0
    return float(loss[0]), float(delta[0]), slope * float(instance.labels[t])


def posted_hypotheses(mech) -> np.ndarray:
    """The hypothesis a finished run posted in each round, one row per round.

    A fresh ``LazyFtrl`` at the run's rate policy is fed each purchase of the
    run's transcript as the mechanism fed it; between purchases the posted
    hypothesis does not change. The replay must end bit for bit where the
    run's own learner did.
    """
    instance, transcript = mech.instance, mech.transcript
    learner = LazyFtrl(instance.space, mech.config.learning_rate)
    bought = np.flatnonzero(transcript.accepted)
    posted = []
    for t in bought.tolist():
        w = learner.coords
        posted.append(w)
        if instance.outcomes is not None:  # linear loss 1 - w[outcome]
            if instance.outcomes[t] >= 0:  # filler points have no gradient
                gradient = np.zeros(instance.space.dim)
                gradient[instance.outcomes[t]] = -1.0
                learner.feed(gradient, transcript.q[t], 1.0)
            continue
        _, dlt, coefficient = hinge_row(instance, w, t)
        if coefficient != 0.0:
            gradient = coefficient * instance.features[t]
            learner.feed(gradient, transcript.q[t], dlt)
    posted.append(learner.coords)
    assert learner.coords.tobytes() == mech.learner.coords.tobytes()
    # round t posts what the purchases before it left
    rounds = np.diff(np.concatenate([[0], bought + 1, [mech.horizon]]))
    return np.repeat(np.vstack(posted), rounds, axis=0)


def regret(transcript, instance: ProblemInstance, h_star: Hypothesis) -> float:
    """Total posted-hypothesis loss minus the loss of the fixed comparator.

    Losses count every round whether or not the arrival was purchased.
    """
    if len(transcript) != instance.horizon:
        raise ValueError(
            f"transcript covers {len(transcript)} rounds, instance has {instance.horizon}"
        )
    posted = float(np.sum(transcript.loss))
    return posted - float(losses_at(instance, h_star.coords).sum())


def losses_at(instance: ProblemInstance, w: np.ndarray) -> np.ndarray:
    """Per-round loss of a fixed hypothesis over the whole sequence: 1 -
    w[outcome] (1 on filler points), or the hinge of the margin."""
    if instance.outcomes is not None:
        outcomes = instance.outcomes
        return np.where(outcomes >= 0, 1.0 - np.asarray(w)[np.maximum(outcomes, 0)], 1.0)
    return np.maximum(0.0, 1.0 - instance.labels * (instance.features @ w))


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
    return float(np.maximum(0.0, 1.0 - margins).sum())


def mean_round_risk(
    hypotheses: np.ndarray, X: np.ndarray, y: np.ndarray, chunk: int = 256
) -> float:
    """Mean over rounds of the surrogate test risk of each posted hypothesis."""
    H = np.asarray(hypotheses)
    total = 0.0
    for start in range(0, len(H), chunk):
        block = H[start : start + chunk]
        margins = (block @ X.T) * y
        total += float(np.maximum(0.0, 1.0 - margins).mean(axis=1).sum())
    return total / len(H)


def deltas_along_run(instance: ProblemInstance, hypotheses: np.ndarray) -> np.ndarray:
    """Per-round gradient dual norms at the posted hypotheses."""
    H = np.asarray(hypotheses)
    if instance.outcomes is not None:  # 1 on every outcome, 0 on filler points
        return np.where(instance.outcomes >= 0, 1.0, 0.0)
    margins = instance.labels * np.einsum("td,td->t", H, instance.features)
    return np.where(margins < 1.0, instance.feature_norms, 0.0)


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


def project(space: HypothesisSpace, v: np.ndarray) -> Hypothesis:
    return Hypothesis(space, project_coords(space, v))


def mean_grad(w, X, y) -> np.ndarray:
    """Mean hinge subgradient over a labelled dataset: -y * x where the
    margin is below 1, zero elsewhere (the kink included)."""
    coeff = np.where(y * (X @ w) < 1.0, -1.0, 0.0) * y
    return (X.T @ coeff) / len(y)


def _fmt(x) -> str:
    """One CSV field: bools as 1/0, ints and strings as themselves, anything
    else as a float with 17 significant digits."""
    if type(x) is float:
        return f"{x:.17g}"
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return f"{float(x):.17g}"


def write_idx_images(path: str, images: np.ndarray) -> None:
    images = np.asarray(images, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">iiii", IDX_IMAGE_MAGIC, *images.shape))
        f.write(images.tobytes())


def write_idx_labels(path: str, labels: np.ndarray) -> None:
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">ii", IDX_LABEL_MAGIC, len(labels)))
        f.write(labels.tobytes())
