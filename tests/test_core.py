import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from procure_learn.core import (
    NULL_OUTCOME,
    Hypothesis,
    InvalidConfigError,
    _project_ball,
    _project_ball_rows,
    dual_norm,
    l2_ball,
    project_coords,
    simplex,
    simplex_projection,
)

from procure_learn.environment import (
    CoinSpec,
    IdxSpec,
    LinearTaskSpec,
    ProblemInstance,
    UniformCost,
)
from procure_learn.mechanism import _margin

from oracles import hinge_row, mean_grad, project, write_idx_images, write_idx_labels

coords = st.lists(st.floats(-5, 5), min_size=2, max_size=6)


# ---------------------------------------------------------------------------
# spaces and hypotheses
# ---------------------------------------------------------------------------


def test_reg_bound_values():
    assert l2_ball(3, 10.0).reg_bound == 50.0
    assert simplex(2).reg_bound == pytest.approx(math.log(2))
    assert simplex(4).reg_bound == pytest.approx(math.log(4))


def test_space_validation():
    with pytest.raises(InvalidConfigError):
        l2_ball(0, 1.0)
    with pytest.raises(InvalidConfigError):
        l2_ball(2, -1.0)
    with pytest.raises(InvalidConfigError):
        simplex(-3)


def test_hypothesis_membership():
    Hypothesis(l2_ball(2, 1.0), np.array([0.6, 0.8]))
    with pytest.raises(ValueError):
        Hypothesis(l2_ball(2, 1.0), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        Hypothesis(simplex(2), np.array([0.7, 0.7]))
    with pytest.raises(ValueError):
        Hypothesis(simplex(3), np.array([0.5, 0.5]))


def test_hypothesis_coords_frozen():
    h = Hypothesis(simplex(2), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        h.coords[0] = 1.0


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def test_dual_norm_examples():
    assert dual_norm("l2", np.array([3.0, 4.0])) == 5.0
    assert dual_norm("l1", np.array([-1.0, 0.2])) == 1.0
    assert dual_norm("l2", np.zeros(3)) == 0.0
    assert dual_norm("l1", np.zeros(3)) == 0.0
    with pytest.raises(ValueError):
        dual_norm("linf", np.zeros(2))


def _primal(norm_kind, v):
    return float(np.linalg.norm(v)) if norm_kind == "l2" else float(np.abs(v).sum())


@settings(max_examples=200)
@given(coords, coords)
def test_holder_inequality(u, v):
    n = min(len(u), len(v))
    u, v = np.array(u[:n]), np.array(v[:n])
    inner = abs(float(u @ v))
    for kind in ("l2", "l1"):
        assert inner <= _primal(kind, u) * dual_norm(kind, v) + 1e-9


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


def test_project_examples():
    ball = l2_ball(2, 1.0)
    np.testing.assert_allclose(project(ball, np.array([0.0, 2.0])).coords, [0.0, 1.0])
    np.testing.assert_allclose(
        project(l2_ball(2, 10.0), np.array([3.0, 4.0])).coords, [3.0, 4.0]
    )
    np.testing.assert_allclose(
        project(simplex(2), np.array([0.5, 0.5])).coords, [0.5, 0.5]
    )


@settings(max_examples=150)
@given(coords)
def test_simplex_projection_valid(v):
    p = simplex_projection(np.array(v))
    assert p.min() >= 0.0
    assert float(p.sum()) == pytest.approx(1.0, abs=1e-9)


def test_project_idempotent_and_contractive(rng):
    for space in (l2_ball(4, 2.0), simplex(4)):
        for _ in range(100):
            v = rng.normal(scale=3.0, size=4)
            p = project_coords(space, v)
            np.testing.assert_allclose(project_coords(space, p), p, atol=1e-12)
            # projections never move farther from any point of the set
            if space.kind == "l2-ball":
                inside = rng.normal(size=4)
                inside *= rng.uniform(0, space.radius) / max(1e-12, np.linalg.norm(inside))
            else:
                inside = rng.dirichlet(np.ones(4))
            assert np.linalg.norm(p - inside) <= np.linalg.norm(v - inside) + 1e-9


def test_ball_projection_matches_linalg_norm_formula_bitwise(rng):
    # the projection as written with np.linalg.norm, on contiguous, strided
    # and reversed inputs, inside and outside the ball; the result is a new
    # array even where nothing moves
    def by_linalg_norm(radius, v):
        norm = float(np.linalg.norm(v))
        return v.copy() if norm <= radius else v * (radius / norm)

    moved = kept = 0
    for dim in (1, 2, 7, 24, 32, 100):
        space = l2_ball(dim, 2.0)
        for _ in range(50):
            base = rng.normal(scale=rng.uniform(0.1, 2.0), size=3 * dim)
            for v in (base[:dim], base[::3], base[::-3]):
                p = project_coords(space, v)
                assert p.tobytes() == by_linalg_norm(2.0, v).tobytes()
                assert not np.shares_memory(p, base)
                if np.array_equal(p, v):
                    kept += 1
                else:
                    moved += 1
    assert moved > 0 and kept > 0


NORM_DIMS = (1, 2, 3, 8, 24, 32, 33, 784)


@pytest.mark.parametrize("dim", NORM_DIMS)
def test_row_block_squared_norms_match_one_row_dot_bitwise(dim, rng):
    # the row-block projection takes its norms with np.vecdot: each must
    # have the bits of v.dot(v), which the one-row projection takes, on a
    # C-contiguous block and on the rows of a column slice
    wide = rng.normal(scale=rng.uniform(0.1, 3.0, size=(64, 1)), size=(64, dim + 5))
    for Z in (np.ascontiguousarray(wide[:, :dim]), wide[:, 2 : 2 + dim]):
        one_row = np.array([z.dot(z) for z in Z])
        assert np.vecdot(Z, Z).tobytes() == one_row.tobytes()


@pytest.mark.parametrize("dim", NORM_DIMS)
def test_row_block_ball_projection_matches_one_row_bitwise(dim, rng):
    # rows inside, on and outside the ball, and a zero row (never divided
    # by: the suite turns the RuntimeWarning into an error)
    radius = 1.5
    Z = rng.normal(scale=rng.uniform(0.01, 2.0, size=(60, 1)), size=(60, dim))
    Z[0] = 0.0
    Z[1] = -0.0
    Z[2] *= radius / math.sqrt(Z[2].dot(Z[2]))
    one_row = np.array([_project_ball(z.copy(), radius) for z in Z])
    block = _project_ball_rows(Z.copy(), radius)
    assert block.tobytes() == one_row.tobytes()
    inside = [math.sqrt(z.dot(z)) <= radius for z in Z]
    assert any(inside) and not all(inside)


# ---------------------------------------------------------------------------
# loss values and gradients, read from an instance's columns
# ---------------------------------------------------------------------------


def _feature_instance(X, y, radius=2.0):
    X = np.asarray(X, dtype=np.float64)
    return ProblemInstance(
        space=l2_ball(X.shape[1], radius),
        costs=np.zeros(len(X)),
        features=X,
        labels=np.asarray(y),
        feature_norms=np.minimum(np.linalg.norm(X, axis=1), 1.0),
    )


def _vertex_instance(outcomes, dim):
    return ProblemInstance(
        space=simplex(dim),
        costs=np.zeros(len(outcomes)),
        outcomes=np.asarray(outcomes),
    )


def test_arrival_cost_checked():
    # an arrival's cost is checked when the instance is built, once for
    # every run on it; money is in units of the largest cost
    inst = _vertex_instance([0, 1, 0], 2)
    for bad in (-0.1, 1.5):
        costs = inst.costs.copy()
        costs[1] = bad
        with pytest.raises(ValueError, match=r"costs must lie in \[0, 1\]"):
            replace(inst, costs=costs)


def _at(instance, w, t):
    """Loss, delta and gradient of arrival ``t`` at ``w``: the loss and
    delta from the instance's block kernel on one row; the gradient is
    -1 at the outcome's vertex (zero on filler points) on the simplex."""
    w = np.asarray(w)
    if instance.outcomes is not None:
        loss, delta = instance.at_posted(w[None, :], t, t + 1)
        g = np.zeros(len(w))
        if instance.outcomes[t] >= 0:
            g[instance.outcomes[t]] = -1.0
        return float(loss[0]), float(delta[0]), g
    loss, delta, coefficient = hinge_row(instance, w, t)
    return loss, delta, coefficient * instance.features[t]


def test_hinge_examples():
    inst = _feature_instance([[0.6, 0.8]], [1], radius=10.0)
    loss, _, g = _at(inst, [0.0, 0.0], 0)
    assert loss == 1.0
    np.testing.assert_allclose(g, [-0.6, -0.8])
    # flat region: margin 2
    loss, _, g = _at(inst, [1.2, 1.6], 0)
    assert loss == 0.0
    np.testing.assert_allclose(g, [0.0, 0.0])
    # kink: margin exactly 1 -> zero subgradient
    np.testing.assert_allclose(_at(inst, [0.6, 0.8], 0)[2], [0.0, 0.0])


def test_vertex_examples():
    inst = _vertex_instance([0, 1, NULL_OUTCOME], 2)
    heads, mid = [1.0, 0.0], [0.5, 0.5]
    assert _at(inst, heads, 0)[0] == 0.0
    assert _at(inst, mid, 0)[0] == 0.5
    loss, _, g = _at(inst, mid, 1)
    assert loss == 0.5
    np.testing.assert_allclose(g, [0.0, -1.0])
    # filler point: constant loss one, zero gradient
    loss, _, g = _at(inst, mid, 2)
    assert loss == 1.0
    np.testing.assert_allclose(g, [0.0, 0.0])


def test_dimension_mismatch_errors():
    # rows are checked against the space when the instance is built
    with pytest.raises(InvalidConfigError):
        ProblemInstance(
            space=l2_ball(3, 1.0),
                costs=np.zeros(1),
            features=np.array([[1.0, 0.0]]),
            labels=np.array([1]),
            feature_norms=np.array([1.0]),
        )
    with pytest.raises(InvalidConfigError):
        _vertex_instance([2], 2)  # outcome index == dimension
    # so is the held-out set: both halves, finite rows of the space's
    # dimension, one +-1 label each, and only on a feature task
    ones = np.ones(3, dtype=np.int64)
    inst = _feature_instance([[0.6, 0.8]], [1])
    replace(inst, test_features=np.zeros((3, 2)), test_labels=ones)  # a well-formed one builds
    for features, labels in [
        (np.zeros((3, 2)), None),
        (None, ones),
        (np.zeros((4, 3)), np.array([0, 5, 1])),
        (np.zeros((3, 3)), ones),
        (np.zeros((3, 2)), np.array([1, 0, -1])),
        (np.zeros((3, 2)), ones[:2]),
        (np.full((3, 2), np.nan), ones),
        (np.zeros((3, 2)), ones[:, None]),
    ]:
        with pytest.raises(InvalidConfigError):
            replace(inst, test_features=features, test_labels=labels)
    with pytest.raises(InvalidConfigError):
        replace(_vertex_instance([0], 2), test_features=np.zeros((1, 2)), test_labels=ones[:1])


def _instances(rng, n, radius=2.0):
    """A hinge and a vertex instance of ``n`` random arrivals in dimension 3."""
    X = rng.normal(size=(n, 3))
    X /= np.maximum(1.0, np.linalg.norm(X, axis=1))[:, None]
    return [
        _feature_instance(X, rng.choice([-1, 1], size=n), radius),
        _vertex_instance(rng.integers(NULL_OUTCOME, 3, size=n), 3),
    ]


def _random_pair(space, rng):
    if space.kind == "l2-ball":
        pts = rng.normal(size=(2, space.dim))
        for p in pts:
            n = np.linalg.norm(p)
            p *= rng.uniform(0, space.radius) / max(n, 1e-12)
        return pts
    return rng.dirichlet(np.ones(space.dim), size=2)


def test_one_lipschitz_everywhere(rng):
    for inst in _instances(rng, 1000):
        for t in range(inst.horizon):
            a, b = _random_pair(inst.space, rng)
            gap = abs(_at(inst, a, t)[0] - _at(inst, b, t)[0])
            assert gap <= _primal(inst.space.norm_kind, a - b) + 1e-9, inst.space.kind


def test_gradient_matches_finite_differences(rng):
    for inst in _instances(rng, 60):
        dim = inst.space.dim
        for t in range(inst.horizon):
            w = _random_pair(inst.space, rng)[0]
            if inst.outcomes is None:
                margin = inst.labels[t] * float(inst.features[t] @ w)
                if abs(margin - 1.0) < 1e-3:  # keep away from the kink
                    continue
            g = _at(inst, w, t)[2]
            step = 1e-5
            for j in range(dim):
                e = np.zeros(dim)
                e[j] = step
                numeric = (_at(inst, w + e, t)[0] - _at(inst, w - e, t)[0]) / (2 * step)
                assert numeric == pytest.approx(g[j], abs=1e-4)


def test_scalar_and_batch_forms_agree(rng):
    X = rng.normal(size=(50, 4))
    X /= np.maximum(1.0, np.linalg.norm(X, axis=1))[:, None]
    inst = _feature_instance(X, rng.choice([-1, 1], size=50))
    w = rng.normal(size=4)
    w /= max(1.0, np.linalg.norm(w) / 2.0)
    rows = [_at(inst, w, t) for t in range(50)]
    block = inst.at_posted(np.tile(w, (50, 1)), 0, 50)
    np.testing.assert_allclose(block[0], [r[0] for r in rows], atol=1e-12)
    np.testing.assert_allclose(inst.grad_norms_at(w), [r[1] for r in rows], atol=1e-12)
    grads = np.array([r[2] for r in rows])
    np.testing.assert_allclose(mean_grad(w, X, inst.labels), grads.mean(axis=0), atol=1e-12)

    outcomes = np.array([0, 2, -1, 3, 1, -1])
    vinst = _vertex_instance(outcomes, 4)
    wv = rng.dirichlet(np.ones(4))
    vrows = [_at(vinst, wv, t) for t in range(len(outcomes))]
    vblock = vinst.at_posted(np.tile(wv, (len(outcomes), 1)), 0, len(outcomes))
    np.testing.assert_allclose(vblock[0], [r[0] for r in vrows])
    np.testing.assert_allclose(vinst.grad_norms_at(wv), [r[1] for r in vrows])


def _blocks(T, rng):
    """Cuts of ``range(T)`` into blocks: whole, arbitrary and single rows."""
    cuts = np.sort(rng.choice(np.arange(1, T), size=15, replace=False)).tolist()
    bounds = [0, *cuts, T]
    return {
        "whole": [(0, T)],
        "arbitrary": list(zip(bounds, bounds[1:])),
        "single rows": [(t, t + 1) for t in range(T)],
    }


@pytest.mark.parametrize("dim", [2, 24, 32, 784])
def test_feature_row_range_kernel_matches_scalar_bitwise(dim, rng):
    # a feature run takes the margins of the rounds it visits one row at a
    # time, and the settle pass the loss and delta of every round in blocks
    # of rows, each at the hypothesis it posted: both must give the same
    # bits on every row, however the rows are cut into blocks
    instance = LinearTaskSpec(
        T=400, cost_model=UniformCost(), dim=dim, clusters=2, separation=0.6, T_test=1
    ).build(dim)
    T = instance.horizon
    labels, features, norms = instance.labels, instance.features, instance.feature_norms
    v = (labels[:, None] * features).mean(axis=0)
    w = v / np.median(labels * (features * v).sum(axis=1))
    hypotheses = {
        "one hypothesis": np.tile(w, (T, 1)),
        "one per row": w * rng.uniform(0.5, 1.5, size=(T, 1)),
    }
    for kind, H in hypotheses.items():
        m = [int(labels[t]) * _margin(features[t], H[t]) for t in range(T)]
        one_row = np.array([(max(0.0, 1.0 - m[t]), norms[t] if m[t] < 1.0 else 0.0) for t in range(T)])
        assert (one_row[:, 0] > 0.0).any() and (one_row[:, 0] == 0.0).any(), kind  # both branches
        for name, pieces in _blocks(T, rng).items():
            blocks = [np.stack(instance.at_posted(H[a:b], a, b), axis=1) for a, b in pieces]
            assert np.concatenate(blocks).tobytes() == one_row.tobytes(), (kind, name)


def test_vertex_row_range_kernel_matches_scalar(rng):
    # loss 1 - w[outcome] at each row's own hypothesis, 1 on filler; delta 1
    # on every outcome and 0 on filler
    T, dim = 300, 5
    outcomes = rng.integers(-1, dim, size=T)
    instance = _vertex_instance(outcomes, dim)
    H = rng.dirichlet(np.ones(dim), size=T)
    one_row = np.array(
        [(1.0 - H[t, o], 1.0) if o >= 0 else (1.0, 0.0) for t, o in enumerate(outcomes.tolist())]
    )
    assert (outcomes < 0).any() and (outcomes >= 0).any()
    for name, pieces in _blocks(T, rng).items():
        blocks = [np.stack(instance.at_posted(H[a:b], a, b), axis=1) for a, b in pieces]
        assert np.concatenate(blocks).tobytes() == one_row.tobytes(), name


def test_generators_pair_payload_with_space(tmp_path, rng):
    write_idx_images(tmp_path / "img.idx", rng.integers(0, 256, size=(20, 4, 4), dtype=np.uint8))
    write_idx_labels(tmp_path / "lab.idx", rng.choice([9, 8, 1, 4], size=20).astype(np.uint8))
    vertex = [CoinSpec(10, 0.1).build(0), CoinSpec(10, 0.1, coin_fraction=0.5).build(0)]
    feature = [
        LinearTaskSpec(
            T=10, cost_model=UniformCost(), dim=3, clusters=2, separation=0.6, T_test=5
        ).build(0),
        IdxSpec(str(tmp_path / "img.idx"), str(tmp_path / "lab.idx"), UniformCost()).build(0),
    ]
    for inst in vertex:
        assert inst.outcomes is not None and inst.features is None
        assert inst.space.kind == "simplex" and not inst.has_test_set
    for inst in feature:
        assert inst.features is not None and inst.outcomes is None
        assert inst.space.kind == "l2-ball" and inst.has_test_set
