import numpy as np
import pytest

from procure_learn.core import NULL_OUTCOME, InvalidConfigError, l2_ball, simplex
from procure_learn.environment import (
    ConstantCost,
    FormatError,
    ProblemInstance,
    TwoPointCost,
    UniformCost,
    coin_sequence,
    digit_task,
    linear_task,
    load_digit_dataset,
    load_idx_images,
    load_idx_labels,
    padded_coin_sequence,
)
from procure_learn.metrics import offline_best, risk

from oracles import losses_at, write_idx_images, write_idx_labels


# ---------------------------------------------------------------------------
# coin streams
# ---------------------------------------------------------------------------


def test_coin_epsilon_bounds():
    with pytest.raises(ValueError):
        coin_sequence(10, 0.5, "heads", 0)
    with pytest.raises(ValueError):
        coin_sequence(10, -0.1, "heads", 0)
    with pytest.raises(ValueError):
        coin_sequence(10, 0.1, "sideways", 0)


def test_fair_coin_concentrates():
    inst = coin_sequence(1_000_000, 0.0, "heads", 7)
    heads = float(np.mean(inst.outcomes == 0))
    assert heads == pytest.approx(0.5, abs=0.002)
    assert np.all(inst.costs == 1.0)


def test_biased_coin_majority_is_offline_best():
    inst = coin_sequence(20_000, 0.1, "heads", 11)
    sol = offline_best(inst)
    np.testing.assert_array_equal(sol.hypothesis.coords, [1.0, 0.0])

    tails = coin_sequence(20_000, 0.1, "tails", 11)
    np.testing.assert_array_equal(offline_best(tails).hypothesis.coords, [0.0, 1.0])


def test_padded_coin_layout():
    inst = padded_coin_sequence(1000, 0.3, 0.1, "heads", 3)
    assert inst.horizon == 1000
    assert int(np.sum(inst.outcomes == NULL_OUTCOME)) == 700
    assert int(np.sum(inst.outcomes >= 0)) == 300
    np.testing.assert_array_equal(inst.costs[:700], 0.0)
    np.testing.assert_array_equal(inst.costs[700:], 1.0)


def test_padded_coin_value_cost_statistic_is_hypothesis_free(rng):
    # filler points have zero delta and zero cost; coins have delta 1, cost 1
    inst = padded_coin_sequence(1000, 0.3, 0.1, "heads", 5)
    for _ in range(10):
        w = rng.dirichlet(np.ones(2))
        deltas = inst.grad_norms_at(w)
        stat = float(np.mean(deltas * np.sqrt(inst.costs)))
        assert stat == pytest.approx(0.3)


def test_padded_coin_full_fraction_reduces_to_coins():
    padded = padded_coin_sequence(500, 1.0, 0.2, "tails", 9)
    plain = coin_sequence(500, 0.2, "tails", 9)
    np.testing.assert_array_equal(padded.outcomes, plain.outcomes)
    np.testing.assert_array_equal(padded.costs, plain.costs)


def test_padded_coin_fraction_validation():
    with pytest.raises(ValueError):
        padded_coin_sequence(100, 0.0, 0.1, "heads", 0)
    with pytest.raises(ValueError):
        padded_coin_sequence(100, 1.2, 0.1, "heads", 0)


def test_padded_coin_vanishing_fraction_is_all_filler():
    inst = padded_coin_sequence(100, 1e-9, 0.1, "heads", 0)
    assert np.all(inst.outcomes == NULL_OUTCOME)
    # every hypothesis suffers the same (constant) loss
    np.testing.assert_array_equal(losses_at(inst, np.array([1.0, 0.0])), np.ones(100))
    np.testing.assert_array_equal(losses_at(inst, np.array([0.3, 0.7])), np.ones(100))


# ---------------------------------------------------------------------------
# cost models
# ---------------------------------------------------------------------------


def test_constant_costs():
    np.testing.assert_array_equal(ConstantCost(0.5).draw(np.random.default_rng(0), 5), [0.5] * 5)


def test_uniform_cost_mean():
    costs = UniformCost(0.0, 1.0).draw(np.random.default_rng(42), 100_000)
    assert float(costs.mean()) == pytest.approx(0.5, abs=0.005)
    assert costs.min() >= 0.0 and costs.max() <= 1.0


def test_two_point_independent_marginal():
    costs = TwoPointCost(0.2, 1.0).draw(np.random.default_rng(13), 50_000)
    assert set(np.unique(costs)) <= {0.0, 1.0}
    assert float(np.mean(costs == 1.0)) == pytest.approx(0.2, abs=0.01)


def test_two_point_correlated_rescales_within_class(rng):
    groups = rng.choice([0, 1], size=40_000)  # target fraction ~0.5
    model = TwoPointCost(0.2, 1.0, target_groups=(0,))
    costs = model.draw(np.random.default_rng(3), len(groups), groups)
    in_target = groups == 0
    # within-target high probability is p_high / fraction = 0.4
    assert float(np.mean(costs[in_target] == 1.0)) == pytest.approx(0.4, abs=0.02)
    assert np.all(costs[~in_target] == 0.0)
    assert float(np.mean(costs == 1.0)) == pytest.approx(0.2, abs=0.01)


def test_two_point_correlated_infeasible_marginal():
    groups = np.array([0] * 10 + [1] * 90)
    with pytest.raises(InvalidConfigError):
        TwoPointCost(0.5, 1.0, target_groups=(0,)).draw(np.random.default_rng(0), 100, groups)
    with pytest.raises(InvalidConfigError):
        TwoPointCost(0.5, 1.0, target_groups=(0,)).draw(np.random.default_rng(0), 100, None)


# ---------------------------------------------------------------------------
# synthetic linear tasks
# ---------------------------------------------------------------------------


def test_linear_task_separable_when_separation_large():
    inst = linear_task(3, 2, 0.9, 2000, 2000, ConstantCost(0.0), 21, noise=0.05)
    sol = offline_best(inst, 3000)
    err = risk(inst, sol.hypothesis, "zero-one")
    assert err < 0.02


def test_linear_task_rejects_negative_test_size():
    # -5 used to fail with "features has 95 rows, costs 100"
    with pytest.raises(InvalidConfigError, match="need T_test >= 0, got -5"):
        linear_task(3, 2, 0.6, 100, -5, UniformCost())


def test_linear_task_norms_bounded():
    inst = linear_task(4, 2, 0.6, 3000, 500, UniformCost(), 8)
    assert float(np.linalg.norm(inst.features, axis=1).max()) <= 1.0 + 1e-12
    assert float(np.linalg.norm(inst.test_features, axis=1).max()) <= 1.0 + 1e-12
    np.testing.assert_allclose(
        inst.feature_norms, np.linalg.norm(inst.features, axis=1), atol=1e-12
    )


def test_linear_task_free_costs_always_bought():
    from procure_learn.mechanism import FixedScale, Mechanism, MechanismConfig

    inst = linear_task(3, 2, 0.6, 400, 100, ConstantCost(0.0), 17)
    cfg = MechanismConfig(budget=50.0, price_scale=FixedScale(5.0))
    mech = Mechanism(cfg, inst).run(np.random.default_rng(1))
    # survival is 1 at cost 0, so every nonzero-delta arrival is purchased
    tr = mech.transcript
    for delta, accepted, q in zip(tr.delta, tr.accepted, tr.q):
        if delta > 0:
            assert accepted and q == 1.0


def test_linear_task_group_tags_and_two_point_marginal():
    model = TwoPointCost(0.2, 1.0, target_groups=(0, 2))
    inst = linear_task(4, 2, 0.6, 10_000, 10, model, 31)
    assert set(np.unique(inst.groups)) == {0, 1, 2, 3}
    assert float(np.mean(inst.costs == 1.0)) == pytest.approx(0.2, abs=0.015)
    hard = np.isin(inst.groups, (0, 2))
    assert np.all(inst.costs[~hard] == 0.0)


def test_generator_determinism():
    a = linear_task(4, 2, 0.6, 500, 100, UniformCost(), 77)
    b = linear_task(4, 2, 0.6, 500, 100, UniformCost(), 77)
    assert a.features.tobytes() == b.features.tobytes()
    assert a.costs.tobytes() == b.costs.tobytes()
    assert a.test_features.tobytes() == b.test_features.tobytes()

    c = coin_sequence(500, 0.1, "heads", 5)
    d = coin_sequence(500, 0.1, "heads", 5)
    assert c.outcomes.tobytes() == d.outcomes.tobytes()


# ---------------------------------------------------------------------------
# instance validation
# ---------------------------------------------------------------------------


def _valid_columns(kind):
    if kind == "vertex":
        return dict(space=simplex(2), costs=np.ones(3), outcomes=np.array([0, 1, -1]))
    return dict(
        space=l2_ball(2, 1.0),
        costs=np.ones(3),
        features=np.array([[0.6, 0.8], [0.0, 0.5], [-0.3, 0.0]]),
        labels=np.array([1, -1, 1]),
        feature_norms=np.array([1.0, 0.5, 0.3]),
    )


INVALID_PAYLOADS = {
    "no-payload": ("vertex", {"outcomes": None}),
    "outcome-below-null": ("vertex", {"outcomes": np.array([0, -2, 1])}),
    "outcomes-too-long": ("vertex", {"outcomes": np.array([0, 1, -1, 0])}),
    "groups-too-short": ("vertex", {"groups": np.array([0, 1])}),
    "label-zero": ("feature", {"labels": np.array([1, 0, -1])}),
    "labels-missing": ("feature", {"labels": None}),
    "labels-too-short": ("feature", {"labels": np.array([1, -1])}),
    "feature-nan": ("feature", {"features": np.array([[0.6, 0.8], [np.nan, 0.5], [-0.3, 0.0]])}),
    "feature-inf": ("feature", {"features": np.array([[0.6, 0.8], [0.0, np.inf], [-0.3, 0.0]])}),
    "norm-above-one": ("feature", {"feature_norms": np.array([1.0, 1.5, 0.3])}),
    "norm-negative": ("feature", {"feature_norms": np.array([1.0, -0.5, 0.3])}),
    "norm-nan": ("feature", {"feature_norms": np.array([1.0, np.nan, 0.3])}),
    "outcomes-on-ball": ("vertex", {"space": l2_ball(2, 1.0)}),
    "features-on-simplex": ("feature", {"space": simplex(2)}),
    "both-payloads": ("feature", {"outcomes": np.array([0, 1, -1])}),
}


ZERO_ROUND_BUILDS = {
    "columns": lambda: ProblemInstance(
        space=simplex(2), costs=np.ones(0), outcomes=np.zeros(0, dtype=np.int64)
    ),
    "coin": lambda: coin_sequence(0, 0.1),
    "padded-coin": lambda: padded_coin_sequence(0, 0.5, 0.1),
    "linear": lambda: linear_task(3, 2, 0.6, 0, 10, UniformCost()),
}


@pytest.mark.parametrize("kind", list(ZERO_ROUND_BUILDS))
def test_zero_round_instance_refused(kind):
    with pytest.raises(InvalidConfigError, match="horizon T >= 1"):
        ZERO_ROUND_BUILDS[kind]()


@pytest.mark.parametrize("case", list(INVALID_PAYLOADS))
def test_instance_rejects_invalid_payload(case):
    kind, override = INVALID_PAYLOADS[case]
    columns = _valid_columns(kind)
    ProblemInstance(**columns)  # the unmodified columns build
    with pytest.raises(InvalidConfigError):
        ProblemInstance(**{**columns, **override})


# ---------------------------------------------------------------------------
# IDX files
# ---------------------------------------------------------------------------


@pytest.fixture
def idx_files(tmp_path, rng):
    images = rng.integers(0, 256, size=(60, 4, 4), dtype=np.uint8)
    # digits drawn only from the classes of interest
    labels = rng.choice([9, 8, 1, 4], size=60).astype(np.uint8)
    img_path, lab_path = tmp_path / "img.idx", tmp_path / "lab.idx"
    write_idx_images(img_path, images)
    write_idx_labels(lab_path, labels)
    return str(img_path), str(lab_path), images, labels


def test_idx_roundtrip_bytes(idx_files, tmp_path):
    img_path, lab_path, images, labels = idx_files
    np.testing.assert_array_equal(load_idx_images(img_path), images)
    np.testing.assert_array_equal(load_idx_labels(lab_path), labels)
    # re-serializing reproduces the original bytes
    write_idx_images(tmp_path / "img2.idx", load_idx_images(img_path))
    write_idx_labels(tmp_path / "lab2.idx", load_idx_labels(lab_path))
    assert (tmp_path / "img2.idx").read_bytes() == open(img_path, "rb").read()
    assert (tmp_path / "lab2.idx").read_bytes() == open(lab_path, "rb").read()


def test_idx_swapped_paths_fail(idx_files):
    img_path, lab_path, _, _ = idx_files
    with pytest.raises(FormatError, match="magic"):
        load_idx_images(lab_path)
    with pytest.raises(FormatError, match="magic"):
        load_idx_labels(img_path)


def test_idx_truncated_reports_offset(idx_files, tmp_path):
    img_path, _, _, _ = idx_files
    raw = open(img_path, "rb").read()
    broken = tmp_path / "short.idx"
    broken.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(FormatError, match="byte offset"):
        load_idx_images(str(broken))


def test_idx_count_mismatch(idx_files, tmp_path):
    img_path, _, _, labels = idx_files
    lab_path = tmp_path / "fewer.idx"
    write_idx_labels(lab_path, labels[:30])
    with pytest.raises(FormatError, match="count"):
        load_digit_dataset(img_path, str(lab_path))


def test_digit_dataset_filter_and_limit(idx_files):
    img_path, lab_path, _, labels = idx_files
    X, y, digits = load_digit_dataset(img_path, lab_path, (9, 8), (1, 4))
    assert len(X) == len(labels)  # fixture only contains those digits
    assert set(np.unique(y)) <= {-1, 1}
    assert np.all((y == 1) == np.isin(digits, (9, 8)))
    np.testing.assert_allclose(np.linalg.norm(X, axis=1), 1.0, atol=1e-12)

    X10, _, _ = load_digit_dataset(img_path, lab_path, (9, 8), (1, 4), limit=10)
    assert len(X10) == 10

    with pytest.raises(InvalidConfigError):
        load_digit_dataset(img_path, lab_path, (9, 8), (8, 1))


def test_digit_task_split(idx_files):
    img_path, lab_path, _, _ = idx_files
    inst = digit_task(img_path, lab_path, UniformCost(), 5)
    assert inst.horizon + len(inst.test_features) == 60
    assert abs(inst.horizon - 30) <= 1
    # deterministic under the seed
    again = digit_task(img_path, lab_path, UniformCost(), 5)
    assert inst.features.tobytes() == again.features.tobytes()
    assert inst.costs.tobytes() == again.costs.tobytes()


def test_digit_task_norms_capped(idx_files):
    img_path, lab_path, _, _ = idx_files
    inst = digit_task(img_path, lab_path, UniformCost(), 5)
    norms = np.linalg.norm(inst.features, axis=1)
    assert (norms > 1.0).any()  # a unit-normalized row rounds above 1 here
    np.testing.assert_array_equal(inst.feature_norms, np.minimum(norms, 1.0))
    # the rows hand out the stored norm, so delta stays in [0, 1]
    margins = inst.family.margins(np.zeros(inst.space.dim), inst, 0, inst.horizon)
    deltas = inst.family.loss_delta(margins, inst.feature_norms)[1]
    assert np.all((deltas >= 0.0) & (deltas <= 1.0))
