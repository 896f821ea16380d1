"""Independent recomputations that the tests check the package against.

Nothing in the package calls these. Each recomputes a result the package
produces another way: a run's regret, total loss and difficulty statistics
from its posted iterates, the per-round iterates themselves by replaying a
run's purchases, a dataset's mean gradient, CSV fields formatted one value
at a time, and IDX files to load back.
"""

from __future__ import annotations

import struct

import numpy as np

from procure_learn.core import Hypothesis, HypothesisSpace, project_coords
from procure_learn.environment import IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC, ProblemInstance
from procure_learn.ftrl import FtrlLearner
from procure_learn.metrics import SequenceStats


def hinge_row(instance: ProblemInstance, w: np.ndarray, t: int) -> tuple[float, float, float]:
    """Loss, delta and gradient coefficient (slope * label, which times the
    row is the gradient) of feature arrival ``t`` at ``w``: the family's
    block kernels on a block of one row."""
    family = instance.family
    m = family.margins(w, instance, t, t + 1)
    loss, delta = family.loss_delta(m, instance.feature_norms[t : t + 1])
    return float(loss[0]), float(delta[0]), float(family.margin_slope(m)[0] * instance.labels[t])


def posted_hypotheses(mech) -> np.ndarray:
    """The hypothesis a finished run posted in each round, one row per round.

    A fresh learner at the run's rate is fed each purchase of the run's
    transcript as the mechanism fed it; between purchases the posted
    hypothesis does not change. The replay must end bit for bit where the
    run's own learner did.
    """
    instance, transcript = mech.instance, mech.transcript
    learner = FtrlLearner(instance.space, mech.learner.learning_rate)
    bought = np.flatnonzero(transcript.accepted)
    posted = []
    for t in bought.tolist():
        w = learner.coords
        posted.append(w)
        if instance.outcomes is not None:  # linear loss 1 - w[outcome]
            if instance.outcomes[t] >= 0:  # filler points have no gradient
                gradient = np.zeros(instance.space.dim)
                gradient[instance.outcomes[t]] = -1.0
                learner.iw_feed(transcript.q[t], True, gradient, 1.0)
            continue
        _, dlt, coefficient = hinge_row(instance, w, t)
        if coefficient != 0.0:
            gradient = coefficient * instance.features[t]
            learner.iw_feed(transcript.q[t], True, gradient, dlt)
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
    """Per-round loss of a fixed hypothesis over the whole sequence."""
    if instance.outcomes is not None:
        return instance.family.values(w, instance.outcomes)
    return instance.family.values(w, instance.features, instance.labels)


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


def project(space: HypothesisSpace, v: np.ndarray) -> Hypothesis:
    return Hypothesis(space, project_coords(space, v))


def mean_grad(family, w, X, y) -> np.ndarray:
    """Mean gradient of a feature loss family over a dataset."""
    coeff = family.margin_slope(y * (X @ w)) * y
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
