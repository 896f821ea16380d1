import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from procure_learn.core import (
    Arrival,
    HingeLoss,
    Hypothesis,
    InvalidConfigError,
    LogisticLoss,
    SquaredHingeLoss,
    VertexLoss,
    dual_norm,
    eval_gradient,
    eval_loss,
    feature_point,
    l2_ball,
    make_family,
    null_point,
    outcome_point,
    primal_norm,
    project,
    project_coords,
    simplex,
    simplex_projection,
)

from procure_learn.environment import UniformCost, linear_task, padded_coin_sequence

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


@settings(max_examples=200)
@given(coords, coords)
def test_holder_inequality(u, v):
    n = min(len(u), len(v))
    u, v = np.array(u[:n]), np.array(v[:n])
    inner = abs(float(u @ v))
    for kind in ("l2", "l1"):
        assert inner <= primal_norm(kind, u) * dual_norm(kind, v) + 1e-9


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


# ---------------------------------------------------------------------------
# data points
# ---------------------------------------------------------------------------


def test_feature_point_normalizes():
    p = feature_point(np.array([3.0, 4.0]), 1)
    assert np.linalg.norm(p.features) == pytest.approx(1.0)
    assert p.feature_norm == pytest.approx(1.0)
    q = feature_point(np.array([0.3, 0.4]), -1)
    np.testing.assert_allclose(q.features, [0.3, 0.4])
    assert q.feature_norm == pytest.approx(0.5)


def test_feature_point_label_checked():
    with pytest.raises(ValueError):
        feature_point(np.array([1.0, 0.0]), 2)


def test_arrival_cost_checked():
    with pytest.raises(ValueError):
        Arrival(-0.1, null_point())


# ---------------------------------------------------------------------------
# loss values and gradients
# ---------------------------------------------------------------------------


def test_hinge_examples():
    fam = HingeLoss()
    space = l2_ball(2, 10.0)
    h0 = Hypothesis(space, np.zeros(2))
    z = feature_point(np.array([0.6, 0.8]), 1)
    assert eval_loss(fam, h0, z) == 1.0
    np.testing.assert_allclose(eval_gradient(fam, h0, z), [-0.6, -0.8])
    # flat region: margin 2
    h = Hypothesis(space, np.array([1.2, 1.6]))
    assert eval_loss(fam, h, z) == 0.0
    np.testing.assert_allclose(eval_gradient(fam, h, z), [0.0, 0.0])
    # kink: margin exactly 1 -> zero subgradient
    hk = Hypothesis(space, np.array([0.6, 0.8]))
    np.testing.assert_allclose(eval_gradient(fam, hk, z), [0.0, 0.0])


def test_vertex_examples():
    fam = VertexLoss()
    sp = simplex(2)
    heads = Hypothesis(sp, np.array([1.0, 0.0]))
    mid = Hypothesis(sp, np.array([0.5, 0.5]))
    assert eval_loss(fam, heads, outcome_point(0)) == 0.0
    assert eval_loss(fam, mid, outcome_point(0)) == 0.5
    assert eval_loss(fam, mid, outcome_point(1)) == 0.5
    np.testing.assert_allclose(eval_gradient(fam, mid, outcome_point(1)), [0.0, -1.0])
    # filler point: constant loss one, zero gradient
    assert eval_loss(fam, mid, null_point()) == 1.0
    np.testing.assert_allclose(eval_gradient(fam, mid, null_point()), [0.0, 0.0])


def test_dimension_mismatch_errors():
    fam = HingeLoss()
    h = Hypothesis(l2_ball(3, 1.0), np.zeros(3))
    z = feature_point(np.array([1.0, 0.0]), 1)
    with pytest.raises(ValueError):
        eval_loss(fam, h, z)
    with pytest.raises(ValueError):
        eval_gradient(fam, h, z)
    with pytest.raises(ValueError):
        eval_loss(VertexLoss(), Hypothesis(simplex(2), [0.5, 0.5]), outcome_point(5))


def _families(radius=2.0):
    space = l2_ball(3, radius)
    return [
        (HingeLoss(), space),
        (LogisticLoss(), space),
        (SquaredHingeLoss(radius), space),
        (VertexLoss(), simplex(3)),
    ]


def _random_pair(space, rng):
    if space.kind == "l2-ball":
        pts = rng.normal(size=(2, space.dim))
        for p in pts:
            n = np.linalg.norm(p)
            p *= rng.uniform(0, space.radius) / max(n, 1e-12)
        return pts
    return rng.dirichlet(np.ones(space.dim), size=2)


def _random_point(space, rng):
    if space.kind == "l2-ball":
        x = rng.normal(size=space.dim)
        x /= max(1.0, np.linalg.norm(x))
        return feature_point(x, int(rng.choice([-1, 1])))
    return outcome_point(int(rng.integers(space.dim)))


def test_one_lipschitz_everywhere(rng):
    for fam, space in _families():
        for _ in range(1000):
            a, b = _random_pair(space, rng)
            z = _random_point(space, rng)
            gap = abs(fam.loss(a, z) - fam.loss(b, z))
            assert gap <= primal_norm(fam.norm_kind, a - b) + 1e-9, fam.kind


def test_gradient_matches_finite_differences(rng):
    for fam, space in _families():
        for _ in range(60):
            w = _random_pair(space, rng)[0]
            z = _random_point(space, rng)
            if fam.kind == "hinge" and z.features is not None:
                margin = z.label * float(z.features @ w)
                if abs(margin - 1.0) < 1e-3:  # keep away from the kink
                    continue
            g = fam.grad(w, z)
            step = 1e-5
            for j in range(space.dim):
                e = np.zeros(space.dim)
                e[j] = step
                numeric = (fam.loss(w + e, z) - fam.loss(w - e, z)) / (2 * step)
                assert numeric == pytest.approx(g[j], abs=1e-4)


def test_scalar_and_batch_forms_agree(rng):
    space = l2_ball(4, 2.0)
    X = rng.normal(size=(50, 4))
    X /= np.maximum(1.0, np.linalg.norm(X, axis=1))[:, None]
    y = rng.choice([-1, 1], size=50)
    norms = np.linalg.norm(X, axis=1)
    w = rng.normal(size=4)
    w /= max(1.0, np.linalg.norm(w) / 2.0)
    for fam in (HingeLoss(), LogisticLoss(), SquaredHingeLoss(2.0)):
        points = [feature_point(X[i], int(y[i])) for i in range(50)]
        np.testing.assert_allclose(
            fam.values(w, X, y), [fam.loss(w, p) for p in points], atol=1e-12
        )
        np.testing.assert_allclose(
            fam.grad_norms(w, X, y, norms),
            [fam.loss_delta(w, p)[1] for p in points],
            atol=1e-12,
        )
        grads = np.array([fam.grad(w, p) for p in points])
        np.testing.assert_allclose(fam.mean_grad(w, X, y), grads.mean(axis=0), atol=1e-12)

    vfam = VertexLoss()
    sp = simplex(4)
    outcomes = np.array([0, 2, -1, 3, 1, -1])
    wv = rng.dirichlet(np.ones(4))
    pts = [null_point() if o < 0 else outcome_point(int(o)) for o in outcomes]
    np.testing.assert_allclose(vfam.values(wv, outcomes), [vfam.loss(wv, p) for p in pts])
    np.testing.assert_allclose(
        vfam.grad_norms(outcomes), [vfam.loss_delta(wv, p)[1] for p in pts]
    )


def _assert_row_ranges_match_scalar(instance, w, rng):
    family, T = instance.family, instance.horizon
    scalar = np.array([family.loss_delta(w, instance.data_point(t)) for t in range(T)])
    cuts = np.sort(rng.choice(np.arange(1, T), size=15, replace=False)).tolist()
    bounds = [0, *cuts, T]
    splits = {
        "whole": [(0, T)],
        "arbitrary": list(zip(bounds, bounds[1:])),
        "single rows": [(t, t + 1) for t in range(T)],
    }
    for name, pieces in splits.items():
        rows = [family.loss_delta_rows(w, instance, a, b) for a, b in pieces]
        loss = np.concatenate([r[0] for r in rows])
        delta = np.concatenate([r[1] for r in rows])
        assert loss.tobytes() == scalar[:, 0].tobytes(), name
        assert delta.tobytes() == scalar[:, 1].tobytes(), name
    return scalar


@pytest.mark.parametrize("dim", [2, 24, 32, 784])
def test_feature_row_range_kernel_matches_scalar_bitwise(dim, rng):
    # the run loop evaluates windows with the row-range kernel and purchases
    # with the scalar form; both must give the same bits on every row
    instance = linear_task(dim, 2, 0.6, 400, 1, UniformCost(), dim)
    v = (instance.labels[:, None] * instance.features).mean(axis=0)
    w = v / np.median(instance.labels * (instance.features * v).sum(axis=1))
    scalar = _assert_row_ranges_match_scalar(instance, w, rng)
    assert (scalar[:, 1] == 0.0).any() and (scalar[:, 1] > 0.0).any()  # both hinge branches


def test_vertex_row_range_kernel_matches_scalar_bitwise(rng):
    instance = padded_coin_sequence(400, 0.5, 0.1, "heads", 3)
    _assert_row_ranges_match_scalar(instance, rng.dirichlet(np.ones(2)), rng)


def test_make_family_pairing():
    assert make_family("hinge", l2_ball(2, 1.0)).kind == "hinge"
    assert make_family("linear-simplex", simplex(2)).kind == "linear-simplex"
    with pytest.raises(InvalidConfigError):
        make_family("hinge", simplex(2))
    with pytest.raises(InvalidConfigError):
        make_family("linear-simplex", l2_ball(2, 1.0))
    with pytest.raises(InvalidConfigError):
        make_family("absolute", l2_ball(2, 1.0))
