"""Problem-instance generation: adversarial coin streams, synthetic linear
classification tasks with configurable cost-data correlation, and IDX digit
ingestion.

Generators are pure functions of (parameters, seed): identical inputs give
byte-identical instances. Data and costs are drawn from separate child
streams so that changing the cost model never perturbs the data."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .core import (
    DataPoint,
    HingeLoss,
    HypothesisSpace,
    InvalidConfigError,
    L2_BALL,
    LossFamily,
    NULL_OUTCOME,
    SIMPLEX,
    VertexLoss,
    l2_ball,
    simplex,
)


class FormatError(ValueError):
    """Malformed binary input file."""


SeedLike = Union[int, np.random.SeedSequence, np.random.Generator]


def as_rng(seed: SeedLike) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _spawn(seed: SeedLike, n: int) -> list[np.random.Generator]:
    if isinstance(seed, np.random.Generator):
        return [seed] * n
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return [np.random.default_rng(s) for s in seed.spawn(n)]


# ---------------------------------------------------------------------------
# Cost models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantCost:
    value: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.value < math.inf:  # NaN fails both
            raise InvalidConfigError(f"constant cost must be finite and >= 0, got {self.value}")

    def draw(self, rng, n, groups=None):
        return np.full(n, float(self.value))

    def ceiling(self) -> tuple[str, float]:
        """The key and value of the highest cost the model draws."""
        return "value", self.value


@dataclass(frozen=True)
class UniformCost:
    low: float = 0.0
    high: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.low <= self.high < math.inf:  # NaN fails all
            raise InvalidConfigError(f"need finite 0 <= low <= high, got {self.low}, {self.high}")

    def draw(self, rng, n, groups=None):
        return rng.uniform(self.low, self.high, size=n)

    def ceiling(self) -> tuple[str, float]:
        return "high", self.high


@dataclass(frozen=True)
class TwoPointCost:
    """Cost ``high_cost`` with marginal probability ``p_high``, free otherwise.

    With ``target_groups`` set, the high-cost mass is concentrated on points
    whose group tag is listed, rescaling the within-group probability so the
    marginal is preserved; other points are always free.
    """

    p_high: float = 0.2
    high_cost: float = 1.0
    target_groups: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        if not 0.0 <= self.p_high <= 1.0:  # NaN fails both
            raise InvalidConfigError(f"p_high must be a probability, got {self.p_high}")
        if not 0.0 <= self.high_cost < math.inf:
            raise InvalidConfigError(f"high_cost must be finite and >= 0, got {self.high_cost}")

    def draw(self, rng, n, groups=None):
        if self.target_groups is None:
            high = rng.random(n) < self.p_high
        else:
            if groups is None:
                raise InvalidConfigError("correlated cost model needs group tags")
            mask = np.isin(groups, np.asarray(self.target_groups))
            fraction = float(mask.mean())
            if fraction * (1.0 + 1e-12) < self.p_high:
                raise InvalidConfigError(
                    f"target groups hold fraction {fraction:.4f} of the data, "
                    f"too small to carry marginal p_high={self.p_high}"
                )
            p_within = min(1.0, self.p_high / fraction)
            high = mask & (rng.random(n) < p_within)
        return np.where(high, float(self.high_cost), 0.0)

    def ceiling(self) -> tuple[str, float]:
        return "high_cost", self.high_cost if self.p_high > 0.0 else 0.0


CostModel = Union[ConstantCost, UniformCost, TwoPointCost]


# ---------------------------------------------------------------------------
# Problem instances
# ---------------------------------------------------------------------------


@dataclass
class ProblemInstance:
    """An arrival sequence plus optional held-out test data.

    The payload states the task, and the instance sets ``family`` from it.
    Feature tasks populate (features, labels, feature_norms) on an l2 ball,
    with every row in the unit ball and its norm, capped at 1, stored beside
    it; their family is ``HingeLoss``. Vertex tasks populate outcomes on the
    simplex, with -1 marking filler points; their family is ``VertexLoss``.
    The payload and its pairing with the space are checked when the instance
    is built; the costs are checked against ``c_max`` by the mechanism that
    runs on it. Treat all arrays as read-only once built.
    """

    space: HypothesisSpace
    costs: np.ndarray
    features: Optional[np.ndarray] = None
    labels: Optional[np.ndarray] = None
    feature_norms: Optional[np.ndarray] = None
    outcomes: Optional[np.ndarray] = None
    groups: Optional[np.ndarray] = None
    test_features: Optional[np.ndarray] = None
    test_labels: Optional[np.ndarray] = None
    family: LossFamily = field(init=False)

    def __post_init__(self):
        T, dim = len(self.costs), self.space.dim
        if T < 1:
            raise InvalidConfigError(f"an instance needs a horizon T >= 1, got T = {T}")
        if (self.outcomes is None) == (self.features is None):
            raise InvalidConfigError("an instance needs features or outcomes, not both")
        columns = ("features", "labels", "feature_norms", "outcomes", "groups")
        for name in columns:
            column = getattr(self, name)
            if column is not None and len(column) != T:
                raise InvalidConfigError(f"{name} has {len(column)} rows, costs {T}")
        if self.outcomes is not None:
            if self.space.kind != SIMPLEX:
                raise InvalidConfigError("outcome tasks need a simplex space")
            if not np.all((self.outcomes >= NULL_OUTCOME) & (self.outcomes < dim)):
                raise InvalidConfigError(f"outcomes must lie in [{NULL_OUTCOME}, {dim})")
            self.family = VertexLoss()
        else:
            if self.space.kind != L2_BALL:
                raise InvalidConfigError("feature tasks need an l2-ball space")
            if self.labels is None or self.feature_norms is None:
                raise InvalidConfigError("feature tasks need labels and feature norms")
            if self.features.shape != (T, dim) or not np.all(np.isfinite(self.features)):
                raise InvalidConfigError(f"features must be finite, of shape ({T}, {dim})")
            if not np.all((self.labels == 1) | (self.labels == -1)):
                raise InvalidConfigError("labels must be -1 or +1")
            if not np.all((self.feature_norms >= 0.0) & (self.feature_norms <= 1.0)):
                raise InvalidConfigError("feature norms must lie in [0, 1]")
            self.family = HingeLoss()

    @property
    def horizon(self) -> int:
        return len(self.costs)

    @property
    def has_test_set(self) -> bool:
        return self.test_features is not None and len(self.test_features) > 0

    def data_point(self, t: int) -> DataPoint:
        """The data of arrival ``t``: the stored row and norm, not re-normalized.

        The run reads the columns itself and never calls this; the
        benchmark's tracer still names it as a target.
        """
        if self.outcomes is not None:
            return DataPoint(outcome=int(self.outcomes[t]))
        return DataPoint(
            features=self.features[t],
            label=int(self.labels[t]),
            feature_norm=float(self.feature_norms[t]),
        )

    def grad_norms_at(self, w: np.ndarray) -> np.ndarray:
        if self.outcomes is not None:
            return self.family.grad_norms(self.outcomes)
        return self.family.grad_norms(w, self.features, self.labels, self.feature_norms)


# ---------------------------------------------------------------------------
# Adversarial coin streams
# ---------------------------------------------------------------------------


def coin_sequence(
    T: int, epsilon: float, bias: str = "heads", seed: SeedLike = 0
) -> ProblemInstance:
    """T i.i.d. flips of a coin biased by ``epsilon`` toward the given side.

    Unit costs, two-vertex simplex hypotheses, linear losses: the hard stream
    behind the no-data-no-regret scaling.
    """
    outcomes = _flips(T, epsilon, bias, seed)
    return ProblemInstance(space=simplex(2), costs=np.ones(T), outcomes=outcomes)


def _flips(n: int, epsilon: float, bias: str, seed: SeedLike) -> np.ndarray:
    """Outcomes of ``n`` flips of the biased coin: 0 = heads, 1 = tails."""
    if not 0.0 <= epsilon < 0.5:
        raise ValueError("epsilon must lie in [0, 0.5)")
    if bias not in ("heads", "tails"):
        raise ValueError("bias must be 'heads' or 'tails'")
    p_heads = 0.5 + (epsilon if bias == "heads" else -epsilon)
    return (as_rng(seed).random(n) >= p_heads).astype(np.int64)


def padded_coin_sequence(
    T: int,
    coin_fraction: float,
    epsilon: float,
    bias: str = "heads",
    seed: SeedLike = 0,
) -> ProblemInstance:
    """Free filler arrivals followed by unit-cost coin flips.

    The first (1 - coin_fraction) * T arrivals are filler points with cost 0
    (constant loss, zero gradient); the rest are coin flips with cost 1. The
    realized mean of delta * sqrt(cost) over the sequence equals
    ``coin_fraction`` for every hypothesis.
    """
    if not 0.0 < coin_fraction <= 1.0:
        raise ValueError("coin_fraction must lie in (0, 1]")
    n_coins = int(round(coin_fraction * T))
    n_null = T - n_coins
    flips = _flips(n_coins, epsilon, bias, seed)
    outcomes = np.concatenate([np.full(n_null, NULL_OUTCOME, dtype=np.int64), flips])
    costs = np.concatenate([np.zeros(n_null), np.ones(n_coins)])
    return ProblemInstance(space=simplex(2), costs=costs, outcomes=outcomes)


# ---------------------------------------------------------------------------
# Synthetic linear classification
# ---------------------------------------------------------------------------


def linear_task(
    dim: int,
    clusters: int,
    separation: float,
    T: int,
    T_test: int,
    cost_model: CostModel,
    seed: SeedLike = 0,
    *,
    radius: float = 3.0,
    spread: float = 0.35,
    noise: float = 0.1,
) -> ProblemInstance:
    """Gaussian cluster-pair classification with costs attached per model.

    Each class gets ``clusters`` blobs at depths separation * (j+1)/clusters
    from the boundary, fanned out sideways by ``spread``; group tag
    class_index * clusters + j identifies a blob (j = 0 is the boundary-hugging
    one), which is what correlated cost models target. Features are clipped to
    the unit ball.
    """
    if dim < 2:
        raise InvalidConfigError("need dimension >= 2")
    if clusters < 1:
        raise InvalidConfigError("need at least one cluster per class")
    if T_test < 0:
        raise InvalidConfigError(f"need T_test >= 0, got {T_test}")
    data_rng, cost_rng = _spawn(seed, 2)

    centers = np.zeros((2 * clusters, dim))
    for class_idx, sign in enumerate((-1.0, 1.0)):
        for j in range(clusters):
            g = class_idx * clusters + j
            centers[g, 0] = sign * separation * (j + 1) / clusters
            if clusters > 1:
                centers[g, 1] = spread * (2 * j - (clusters - 1)) / (clusters - 1)

    n = T + T_test
    groups = data_rng.integers(0, 2 * clusters, size=n)
    X = centers[groups] + noise * data_rng.standard_normal((n, dim))
    norms = np.linalg.norm(X, axis=1)
    over = norms > 1.0
    X[over] /= norms[over, None]
    y = np.where(groups >= clusters, 1, -1).astype(np.int64)

    costs = cost_model.draw(cost_rng, T, groups[:T])
    return ProblemInstance(
        space=l2_ball(dim, radius),
        costs=costs,
        features=X[:T],
        labels=y[:T],
        feature_norms=np.minimum(norms[:T], 1.0),
        groups=groups[:T],
        test_features=X[T:],
        test_labels=y[T:],
    )


# ---------------------------------------------------------------------------
# IDX digit files
# ---------------------------------------------------------------------------

IDX_IMAGE_MAGIC = 2051
IDX_LABEL_MAGIC = 2049


def _read_exact(f, n: int, path: str) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise FormatError(
            f"{path}: truncated file, needed {n} bytes at byte offset {f.tell() - len(data)}"
        )
    return data


def load_idx_images(path: str) -> np.ndarray:
    """Parse a big-endian IDX image file into a (count, rows, cols) uint8 array."""
    with open(path, "rb") as f:
        magic = struct.unpack(">i", _read_exact(f, 4, path))[0]
        if magic != IDX_IMAGE_MAGIC:
            raise FormatError(
                f"{path}: bad image magic {magic} at byte offset 0 (expected {IDX_IMAGE_MAGIC})"
            )
        count, rows, cols = struct.unpack(">iii", _read_exact(f, 12, path))
        pixels = _read_exact(f, count * rows * cols, path)
        extra = f.read(1)
        if extra:
            raise FormatError(f"{path}: trailing bytes at byte offset {f.tell() - 1}")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(count, rows, cols)


def load_idx_labels(path: str) -> np.ndarray:
    with open(path, "rb") as f:
        magic = struct.unpack(">i", _read_exact(f, 4, path))[0]
        if magic != IDX_LABEL_MAGIC:
            raise FormatError(
                f"{path}: bad label magic {magic} at byte offset 0 (expected {IDX_LABEL_MAGIC})"
            )
        count = struct.unpack(">i", _read_exact(f, 4, path))[0]
        raw = _read_exact(f, count, path)
        extra = f.read(1)
        if extra:
            raise FormatError(f"{path}: trailing bytes at byte offset {f.tell() - 1}")
    return np.frombuffer(raw, dtype=np.uint8)


def load_digit_dataset(
    images_path: str,
    labels_path: str,
    positive_digits: Sequence[int] = (9, 8),
    negative_digits: Sequence[int] = (1, 4),
    limit: Optional[int] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Load IDX files, keep the listed digits, map to +/-1 labels.

    Pixels are scaled to [0, 1] and each flattened image is normalized to unit
    euclidean norm. Returns (features, labels, digits).
    """
    images = load_idx_images(images_path)
    digits = load_idx_labels(labels_path)
    if len(images) != len(digits):
        raise FormatError(
            f"image count {len(images)} does not match label count {len(digits)}"
        )
    overlap = set(positive_digits) & set(negative_digits)
    if overlap:
        raise InvalidConfigError(f"digits {sorted(overlap)} listed as both classes")
    keep = np.isin(digits, np.asarray(list(positive_digits) + list(negative_digits)))
    images, digits = images[keep], digits[keep]
    if limit is not None:
        images, digits = images[:limit], digits[:limit]
    X = images.reshape(len(images), -1).astype(np.float64) / 255.0
    norms = np.linalg.norm(X, axis=1)
    norms[norms == 0.0] = 1.0
    X /= norms[:, None]
    y = np.where(np.isin(digits, np.asarray(list(positive_digits))), 1, -1).astype(np.int64)
    return X, y, digits.astype(np.int64)


def digit_task(
    images_path: str,
    labels_path: str,
    cost_model: CostModel,
    seed: SeedLike = 0,
    *,
    positive_digits: Sequence[int] = (9, 8),
    negative_digits: Sequence[int] = (1, 4),
    limit: Optional[int] = None,
    holdout_fraction: float = 0.5,
    radius: float = 10.0,
) -> ProblemInstance:
    """Binary digit classification with a random train/test split.

    The split keeps a ``holdout_fraction`` share for testing; costs are drawn
    for the training (arrival) side only.
    """
    X, y, digits = load_digit_dataset(
        images_path, labels_path, positive_digits, negative_digits, limit
    )
    split_rng, cost_rng = _spawn(seed, 2)
    order = split_rng.permutation(len(X))
    n_test = int(round(holdout_fraction * len(X)))
    test_idx, train_idx = order[:n_test], order[n_test:]
    costs = cost_model.draw(cost_rng, len(train_idx), digits[train_idx])
    return ProblemInstance(
        space=l2_ball(X.shape[1], radius),
        costs=costs,
        features=X[train_idx],
        labels=y[train_idx],
        feature_norms=np.minimum(np.linalg.norm(X[train_idx], axis=1), 1.0),
        groups=digits[train_idx],
        test_features=X[test_idx],
        test_labels=y[test_idx],
    )
