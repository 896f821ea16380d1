"""Problem-instance generation: adversarial coin streams, synthetic linear
classification tasks with configurable cost-data correlation, and IDX digit
ingestion.

Generators are pure functions of (parameters, seed): identical inputs give
byte-identical instances. Data and costs are drawn from separate child
streams so that changing the cost model never perturbs the data."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .core import (
    DataPoint,
    HypothesisSpace,
    InvalidConfigError,
    LossFamily,
    NULL_OUTCOME,
    VertexLoss,
    make_family,
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

    def draw(self, rng, n, groups=None):
        if not 0.0 <= self.value:
            raise InvalidConfigError("constant cost must be nonnegative")
        return np.full(n, float(self.value))


@dataclass(frozen=True)
class UniformCost:
    low: float = 0.0
    high: float = 1.0

    def draw(self, rng, n, groups=None):
        if not 0.0 <= self.low <= self.high:
            raise InvalidConfigError("need 0 <= low <= high")
        return rng.uniform(self.low, self.high, size=n)


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

    def draw(self, rng, n, groups=None):
        if not 0.0 <= self.p_high <= 1.0:
            raise InvalidConfigError("p_high must be a probability")
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


CostModel = Union[ConstantCost, UniformCost, TwoPointCost]


# ---------------------------------------------------------------------------
# Problem instances
# ---------------------------------------------------------------------------


@dataclass
class ProblemInstance:
    """An arrival sequence plus optional held-out test data.

    Payload arrays: feature tasks populate (features, labels, feature_norms),
    with every row in the unit ball and its norm, capped at 1, stored beside
    it; vertex tasks populate outcomes, with -1 marking filler points. The
    payload is checked when the instance is built; the costs are checked
    against ``c_max`` by the mechanism that runs on it. Treat all arrays as
    read-only once built.
    """

    space: HypothesisSpace
    family: LossFamily
    costs: np.ndarray
    features: Optional[np.ndarray] = None
    labels: Optional[np.ndarray] = None
    feature_norms: Optional[np.ndarray] = None
    outcomes: Optional[np.ndarray] = None
    groups: Optional[np.ndarray] = None
    test_features: Optional[np.ndarray] = None
    test_labels: Optional[np.ndarray] = None

    def __post_init__(self):
        T, dim = len(self.costs), self.space.dim
        if self.outcomes is None and self.features is None:
            raise InvalidConfigError("an instance needs features or outcomes")
        columns = ("features", "labels", "feature_norms", "outcomes", "groups")
        for name in columns:
            column = getattr(self, name)
            if column is not None and len(column) != T:
                raise InvalidConfigError(f"{name} has {len(column)} rows, costs {T}")
        if self.outcomes is not None:
            if not np.all((self.outcomes >= NULL_OUTCOME) & (self.outcomes < dim)):
                raise InvalidConfigError(f"outcomes must lie in [{NULL_OUTCOME}, {dim})")
        if self.features is not None:
            if self.labels is None or self.feature_norms is None:
                raise InvalidConfigError("feature tasks need labels and feature norms")
            if self.features.shape != (T, dim) or not np.all(np.isfinite(self.features)):
                raise InvalidConfigError(f"features must be finite, of shape ({T}, {dim})")
            if not np.all((self.labels == 1) | (self.labels == -1)):
                raise InvalidConfigError("labels must be -1 or +1")
            if not np.all((self.feature_norms >= 0.0) & (self.feature_norms <= 1.0)):
                raise InvalidConfigError("feature norms must lie in [0, 1]")

    @property
    def horizon(self) -> int:
        return len(self.costs)

    @property
    def has_test_set(self) -> bool:
        return self.test_features is not None and len(self.test_features) > 0

    def data_point(self, t: int) -> DataPoint:
        """The data of arrival ``t``: the stored row and norm, not re-normalized.

        The run reads the columns through the loss family's row kernels and
        never calls this; the benchmark's tracer still names it as a target.
        """
        if self.outcomes is not None:
            return DataPoint(outcome=int(self.outcomes[t]))
        return DataPoint(
            features=self.features[t],
            label=int(self.labels[t]),
            feature_norm=float(self.feature_norms[t]),
        )

    def losses_at(self, w: np.ndarray) -> np.ndarray:
        """Per-round loss of a fixed hypothesis over the whole sequence."""
        if self.outcomes is not None:
            return self.family.values(w, self.outcomes)
        return self.family.values(w, self.features, self.labels)

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
    if not 0.0 <= epsilon < 0.5:
        raise ValueError("epsilon must lie in [0, 0.5)")
    if bias not in ("heads", "tails"):
        raise ValueError("bias must be 'heads' or 'tails'")
    rng = as_rng(seed)
    p_heads = 0.5 + (epsilon if bias == "heads" else -epsilon)
    outcomes = (rng.random(T) >= p_heads).astype(np.int64)  # 0 = heads, 1 = tails
    space = simplex(2)
    return ProblemInstance(
        space=space,
        family=VertexLoss(),
        costs=np.ones(T),
        outcomes=outcomes,
    )


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
    flips = coin_sequence(n_coins, epsilon, bias, seed)
    outcomes = np.concatenate([np.full(n_null, NULL_OUTCOME, dtype=np.int64), flips.outcomes])
    costs = np.concatenate([np.zeros(n_null), np.ones(n_coins)])
    return ProblemInstance(
        space=flips.space,
        family=flips.family,
        costs=costs,
        outcomes=outcomes,
    )


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
    space = HypothesisSpace("l2-ball", dim, radius)
    return ProblemInstance(
        space=space,
        family=make_family("hinge", space),
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
    space = HypothesisSpace("l2-ball", X.shape[1], radius)
    return ProblemInstance(
        space=space,
        family=make_family("hinge", space),
        costs=costs,
        features=X[train_idx],
        labels=y[train_idx],
        feature_norms=np.minimum(np.linalg.norm(X[train_idx], axis=1), 1.0),
        groups=digits[train_idx],
        test_features=X[test_idx],
        test_labels=y[test_idx],
    )
