"""Instance kinds and the problem instances they build: adversarial coin
streams, synthetic linear classification tasks with configurable cost-data
correlation, and IDX digit ingestion.

An instance's payload names its task: labelled feature rows (hinge loss on
an l2 ball) or outcomes (linear loss on the simplex). The instance gives
each arrival's loss and delta at the hypothesis it posted. Money is
measured in units of the largest cost, so every cost lies in [0, 1]; each
cost model refuses a cost it could draw above 1.

Each kind is defined once, by its spec (``CoinSpec``, ``LinearTaskSpec``,
``IdxSpec``): the fields and defaults are its config keys,
``__post_init__`` refuses every value its build could not use, so a config
is refused before any output, and ``build(seed)`` makes the instance. A
build is a pure function of (spec, seed): identical inputs give
byte-identical instances. Data and costs are drawn from separate child
streams so that changing the cost model never perturbs the data."""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .core import (
    DataPoint,
    HypothesisSpace,
    InvalidConfigError,
    L2_BALL,
    NULL_OUTCOME,
    SIMPLEX,
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
class UniformCost:
    """Costs uniform on [low, high]; ``low == high == v`` draws v exactly."""

    low: float = 0.0
    high: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.low <= self.high <= 1.0:  # NaN fails all
            raise InvalidConfigError(f"need 0 <= low <= high <= 1, got {self.low}, {self.high}")

    def draw(self, rng, n, groups=None):
        return rng.uniform(self.low, self.high, size=n)


@dataclass(frozen=True)
class TwoPointCost:
    """Cost ``high_cost`` with marginal probability ``p_high``, free otherwise.

    With ``target_groups`` set, the high-cost mass is concentrated on points
    whose group tag is listed, rescaling the within-group probability so the
    marginal is ``p_high``, or the targets' drawn share when that is smaller
    (every targeted point is then high, and none when the share is 0); other
    points are always free. A ``high_cost`` above 1 is refused unless
    ``p_high`` is 0, when it is never drawn.
    """

    p_high: float = 0.2
    high_cost: float = 1.0
    target_groups: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        if not 0.0 <= self.p_high <= 1.0:  # NaN fails both
            raise InvalidConfigError(f"p_high must be a probability, got {self.p_high}")
        if not 0.0 <= self.high_cost < math.inf:
            raise InvalidConfigError(f"high_cost must be finite and >= 0, got {self.high_cost}")
        if self.p_high > 0.0 and self.high_cost > 1.0:
            raise InvalidConfigError(f"high_cost must lie in [0, 1], got {self.high_cost}")

    def draw(self, rng, n, groups=None):
        if self.target_groups is None:
            high = rng.random(n) < self.p_high
        else:
            if groups is None:
                raise InvalidConfigError("correlated cost model needs group tags")
            mask = np.isin(groups, np.asarray(self.target_groups))
            share = float(mask.mean())
            p_within = min(1.0, self.p_high / share) if share else 1.0
            high = mask & (rng.random(n) < p_within)
        return np.where(high, float(self.high_cost), 0.0)


CostModel = Union[UniformCost, TwoPointCost]


# ---------------------------------------------------------------------------
# Problem instances
# ---------------------------------------------------------------------------


@dataclass
class ProblemInstance:
    """An arrival sequence plus optional held-out test data.

    The payload states the task. Feature tasks populate (features, labels,
    feature_norms) on an l2 ball, with every row in the unit ball and its
    norm, capped at 1, stored beside it, and may hold a labelled test set;
    their loss is the hinge max(0, 1 - y * <w, x>). Vertex tasks populate
    outcomes on the simplex, with -1 marking filler points; their loss is
    1 - w[outcome], and 1 flat on filler points. Either loss is 1-Lipschitz
    in the hypothesis under the space's norm. The costs, the payload, the
    test set and their pairing with the space are checked when the instance
    is built. Treat all arrays as read-only once built.
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

    def __post_init__(self):
        T, dim = len(self.costs), self.space.dim
        check_horizon(T)
        if not np.all((self.costs >= 0.0) & (self.costs <= 1.0)):  # NaN fails both
            raise InvalidConfigError("costs must lie in [0, 1]")
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
        else:
            if self.space.kind != L2_BALL:
                raise InvalidConfigError("feature tasks need an l2-ball space")
            if self.labels is None or self.feature_norms is None:
                raise InvalidConfigError("feature tasks need labels and feature norms")
            _check_labelled(self.features, self.labels, T, dim, "")
            if not np.all((self.feature_norms >= 0.0) & (self.feature_norms <= 1.0)):
                raise InvalidConfigError("feature norms must lie in [0, 1]")
        if (self.test_features is None) != (self.test_labels is None):
            raise InvalidConfigError("a test set needs both test_features and test_labels")
        if self.test_features is not None:
            if self.outcomes is not None:
                raise InvalidConfigError("outcome tasks take no test set")
            n = len(self.test_labels)  # the features need as many rows
            _check_labelled(self.test_features, self.test_labels, n, dim, "test ")

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

    def at_posted(self, H: np.ndarray, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Loss and delta (the dual norm of the gradient) of the arrivals
        ``start <= t < stop``, each at its row of ``H``: the hypothesis it
        posted. A run settles from these.

        A hinge's subgradient at the kink is zero: where the margin m < 1
        delta is the row's stored norm, elsewhere 0. The margins are the row
        sums ``(X * H).sum(axis=1)`` over the block, and the mechanism takes
        ``np.add.reduce(x * w)`` of a lone row: numpy reduces each row of the
        block in the same order as the lone row, so the two agree bit for
        bit at every dimension and block size (a test pins this).
        ``np.dot`` (and BLAS matvec) sums in a different order and differs
        from both in the last digits for a large share of rows; the
        whole-dataset forms (``grad_norms_at``, the risk metric) keep the
        faster ``X @ w``. A vertex loss's gradient is -1 at the outcome's
        vertex, so its delta is 1 on every outcome and 0 on filler points,
        whatever the hypothesis."""
        if self.outcomes is not None:
            outcomes = self.outcomes[start:stop]
            observed = outcomes >= 0
            loss = np.ones(len(outcomes))
            loss[observed] = 1.0 - H[observed, outcomes[observed]]
            return loss, observed.astype(np.float64)
        m = self.labels[start:stop] * (self.features[start:stop] * H).sum(axis=1)
        return np.maximum(0.0, 1.0 - m), np.where(m < 1.0, self.feature_norms[start:stop], 0.0)

    def grad_norms_at(self, w: np.ndarray) -> np.ndarray:
        """Delta of every arrival at the one hypothesis ``w``."""
        if self.outcomes is not None:
            return (self.outcomes >= 0).astype(np.float64)
        return np.where(self.labels * (self.features @ w) < 1.0, self.feature_norms, 0.0)


def _check_labelled(features, labels, n: int, dim: int, prefix: str) -> None:
    """Refuse ``n`` labelled rows unless the features are finite, of shape
    (n, dim), and the labels n values of -1 or +1."""
    if features.shape != (n, dim) or not np.all(np.isfinite(features)):
        raise InvalidConfigError(f"{prefix}features must be finite, of shape ({n}, {dim})")
    if labels.shape != (n,) or not np.all((labels == 1) | (labels == -1)):
        raise InvalidConfigError(f"{prefix}labels must be {n} values of -1 or +1")


def check_horizon(T: int) -> None:
    """Refuse a horizon with no rounds."""
    if T < 1:
        raise InvalidConfigError(f"an instance needs a horizon T >= 1, got T = {T}")


def _check_targets(cost_model: CostModel, tags: Sequence[int], uniform: bool) -> None:
    """Refuse a correlated ``cost_model`` that targets a tag outside
    ``tags``; when the instance draws its ``tags`` ``uniform``ly, refuse too
    a ``p_high`` above the share of the data the targets are expected to
    hold."""
    targets = getattr(cost_model, "target_groups", None)
    if targets is None:
        return
    outside = sorted(set(targets).difference(tags))
    if outside:
        raise InvalidConfigError(
            f"target_groups {outside} are not among the instance's tags {sorted(set(tags))}"
        )
    share = len(set(targets)) / len(tags) if uniform else 1.0
    if cost_model.p_high > share:
        raise InvalidConfigError(
            f"p_high {cost_model.p_high} exceeds the share {share:g} of the data "
            f"that target_groups {list(targets)} are expected to hold"
        )


# ---------------------------------------------------------------------------
# Instance kinds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoinSpec:
    """T arrivals: i.i.d. flips of a coin biased by ``epsilon`` toward
    ``bias``, after free filler when ``coin_fraction`` is below 1.

    Two-vertex simplex hypotheses, linear losses: the hard stream behind the
    no-data-no-regret scaling. The first (1 - coin_fraction) * T arrivals
    are filler points with cost 0 (constant loss, zero gradient); the rest
    are flips with cost 1, so the realized mean of delta * sqrt(cost) equals
    ``coin_fraction`` for every hypothesis.
    """

    T: int
    epsilon: float = 0.1
    bias: str = "heads"
    coin_fraction: float = 1.0

    def __post_init__(self):
        check_horizon(self.T)
        if not 0.0 <= self.epsilon < 0.5:  # NaN fails both
            raise InvalidConfigError(f"epsilon must lie in [0, 0.5), got {self.epsilon}")
        if self.bias not in ("heads", "tails"):
            raise InvalidConfigError(f"bias must be 'heads' or 'tails', got {self.bias!r}")
        if not 0.0 < self.coin_fraction <= 1.0:  # NaN fails both
            raise InvalidConfigError(f"coin_fraction must lie in (0, 1], got {self.coin_fraction}")

    @property
    def coins(self) -> int:
        """The arrivals that are coin flips, at the end; the others are filler."""
        return int(round(self.coin_fraction * self.T))

    def build(self, seed: SeedLike) -> ProblemInstance:
        n_null = self.T - self.coins
        p_heads = 0.5 + (self.epsilon if self.bias == "heads" else -self.epsilon)
        flips = (as_rng(seed).random(self.coins) >= p_heads).astype(np.int64)  # 0 = heads
        outcomes = np.concatenate([np.full(n_null, NULL_OUTCOME, dtype=np.int64), flips])
        costs = np.concatenate([np.zeros(n_null), np.ones(self.coins)])
        return ProblemInstance(space=simplex(2), costs=costs, outcomes=outcomes)


@dataclass(frozen=True)
class LinearTaskSpec:
    """Gaussian cluster-pair classification with costs attached per model.

    Each class gets ``clusters`` blobs at depths separation * (j+1)/clusters
    from the boundary, fanned out sideways by ``spread``; group tag
    class_index * clusters + j identifies a blob (j = 0 is the boundary-hugging
    one), which is what correlated cost models target. Features are clipped to
    the unit ball.
    """

    T: int
    cost_model: CostModel
    dim: int = 4
    clusters: int = 2
    separation: float = 0.6
    T_test: int = 1000
    radius: float = 3.0
    spread: float = 0.35
    noise: float = 0.1

    def __post_init__(self):
        check_horizon(self.T)
        if self.dim < 2:
            raise InvalidConfigError(f"need dimension >= 2, got {self.dim}")
        if self.clusters < 1:
            raise InvalidConfigError(f"need at least one cluster per class, got {self.clusters}")
        if self.T_test < 0:
            raise InvalidConfigError(f"need T_test >= 0, got {self.T_test}")
        l2_ball(self.dim, self.radius)  # refuses a radius that is not positive and finite
        for key in ("separation", "spread", "noise"):
            if not math.isfinite(getattr(self, key)):
                raise InvalidConfigError(f"{key} must be finite, got {getattr(self, key)}")
        _check_targets(self.cost_model, range(2 * self.clusters), uniform=True)

    def build(self, seed: SeedLike) -> ProblemInstance:
        clusters = self.clusters
        data_rng, cost_rng = _spawn(seed, 2)

        centers = np.zeros((2 * clusters, self.dim))
        for class_idx, sign in enumerate((-1.0, 1.0)):
            for j in range(clusters):
                g = class_idx * clusters + j
                centers[g, 0] = sign * self.separation * (j + 1) / clusters
                if clusters > 1:
                    centers[g, 1] = self.spread * (2 * j - (clusters - 1)) / (clusters - 1)

        T, n = self.T, self.T + self.T_test
        groups = data_rng.integers(0, 2 * clusters, size=n)
        X = centers[groups] + self.noise * data_rng.standard_normal((n, self.dim))
        norms = np.linalg.norm(X, axis=1)
        over = norms > 1.0
        X[over] /= norms[over, None]
        y = np.where(groups >= clusters, 1, -1).astype(np.int64)

        costs = self.cost_model.draw(cost_rng, T, groups[:T])
        return ProblemInstance(
            space=l2_ball(self.dim, self.radius),
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


def _idx_header(f, path: str, kind: str, magic: int, ndim: int) -> tuple[int, ...]:
    """The ``ndim`` sizes in the header of the open IDX file ``f``, once its
    magic and its length are checked; ``f`` is left at the first data byte."""
    found = struct.unpack(">i", _read_exact(f, 4, path))[0]
    if found != magic:
        raise FormatError(f"{path}: bad {kind} magic {found} at byte offset 0 (expected {magic})")
    sizes = struct.unpack(f">{ndim}I", _read_exact(f, 4 * ndim, path))
    start, n = f.tell(), math.prod(sizes)
    length = os.fstat(f.fileno()).st_size
    if length < start + n:
        raise FormatError(f"{path}: truncated file, needed {n} bytes at byte offset {start}")
    if length > start + n:
        raise FormatError(f"{path}: trailing bytes at byte offset {start + n}")
    return sizes


def load_idx_images(path: str) -> np.ndarray:
    """Parse a big-endian IDX image file into a (count, rows, cols) uint8 array."""
    with open(path, "rb") as f:
        shape = _idx_header(f, path, "image", IDX_IMAGE_MAGIC, 3)
        return np.frombuffer(f.read(), dtype=np.uint8).reshape(shape)


def load_idx_labels(path: str) -> np.ndarray:
    with open(path, "rb") as f:
        _idx_header(f, path, "label", IDX_LABEL_MAGIC, 1)
        return np.frombuffer(f.read(), dtype=np.uint8)


@dataclass(frozen=True)
class IdxSpec:
    """Binary digit classification from IDX files, with a random train/test
    split.

    The rows of the listed digits are kept, the first ``limit`` of them when
    it is set; pixels are scaled to [0, 1] and each flattened image is
    normalized to unit euclidean norm. The split keeps a
    ``holdout_fraction`` share for testing; costs are drawn for the training
    (arrival) side only. The spec reads both headers and the labels to check
    them; only ``build`` reads the pixels.
    """

    images: str
    labels: str
    cost_model: CostModel
    positive_digits: tuple[int, ...] = (9, 8)
    negative_digits: tuple[int, ...] = (1, 4)
    limit: Optional[int] = None
    holdout_fraction: float = 0.5
    radius: float = 10.0

    def __post_init__(self):
        for key, path in (("images", self.images), ("labels", self.labels)):
            try:
                open(path, "rb").close()
            except OSError as exc:
                message = f"cannot read the {key} file {path!r}: {exc.strerror}"
                raise InvalidConfigError(message) from None
        with open(self.images, "rb") as f:
            count, rows, cols = _idx_header(f, self.images, "image", IDX_IMAGE_MAGIC, 3)
        digits = load_idx_labels(self.labels)
        if count != len(digits):
            raise FormatError(f"image count {count} does not match label count {len(digits)}")
        overlap = set(self.positive_digits) & set(self.negative_digits)
        if overlap:
            raise InvalidConfigError(f"digits {sorted(overlap)} listed as both classes")
        if self.limit is not None and self.limit < 1:
            raise InvalidConfigError(f"limit must be >= 1, got {self.limit}")
        if not 0.0 <= self.holdout_fraction < 1.0:  # NaN fails both
            raise InvalidConfigError(
                f"holdout_fraction must lie in [0, 1), got {self.holdout_fraction}"
            )
        l2_ball(rows * cols, self.radius)  # refuses empty images, a radius not positive and finite
        _check_targets(self.cost_model, self.positive_digits + self.negative_digits, uniform=False)
        n = len(self._kept(digits))
        if n - self._held_out(n) < 1:
            raise InvalidConfigError(
                f"the split leaves no training rows: {n} rows of the listed digits kept, "
                f"{self._held_out(n)} held out"
            )

    def _kept(self, digits: np.ndarray) -> np.ndarray:
        """The indices of the rows kept: the listed digits, up to ``limit``."""
        listed = np.asarray(self.positive_digits + self.negative_digits)
        return np.flatnonzero(np.isin(digits, listed))[: self.limit]

    def _held_out(self, n: int) -> int:
        return int(round(self.holdout_fraction * n))

    def build(self, seed: SeedLike) -> ProblemInstance:
        digits = load_idx_labels(self.labels)
        keep = self._kept(digits)
        images, digits = load_idx_images(self.images)[keep], digits[keep].astype(np.int64)
        X = images.reshape(len(images), -1).astype(np.float64) / 255.0
        norms = np.linalg.norm(X, axis=1)
        norms[norms == 0.0] = 1.0
        X /= norms[:, None]
        y = np.where(np.isin(digits, np.asarray(self.positive_digits)), 1, -1).astype(np.int64)

        split_rng, cost_rng = _spawn(seed, 2)
        order = split_rng.permutation(len(X))
        n_test = self._held_out(len(X))
        test_idx, train_idx = order[:n_test], order[n_test:]
        costs = self.cost_model.draw(cost_rng, len(train_idx), digits[train_idx])
        return ProblemInstance(
            space=l2_ball(X.shape[1], self.radius),
            costs=costs,
            features=X[train_idx],
            labels=y[train_idx],
            feature_norms=np.minimum(np.linalg.norm(X[train_idx], axis=1), 1.0),
            groups=digits[train_idx],
            test_features=X[test_idx],
            test_labels=y[test_idx],
        )


InstanceSpec = Union[CoinSpec, LinearTaskSpec, IdxSpec]
