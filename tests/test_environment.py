import numpy as np
import pytest

from procure_learn.core import NULL_OUTCOME, InvalidConfigError, l2_ball, simplex
from procure_learn.environment import (
    CoinSpec,
    FormatError,
    IdxSpec,
    LinearTaskSpec,
    ProblemInstance,
    TwoPointCost,
    UniformCost,
    load_idx_images,
    load_idx_labels,
)
from procure_learn.metrics import offline_best, risk

from oracles import losses_at, write_idx_images, write_idx_labels


# ---------------------------------------------------------------------------
# coin streams
# ---------------------------------------------------------------------------


def test_coin_epsilon_bounds():
    with pytest.raises(ValueError):
        CoinSpec(10, 0.5)
    with pytest.raises(ValueError):
        CoinSpec(10, -0.1)
    with pytest.raises(ValueError):
        CoinSpec(10, 0.1, "sideways")


def test_fair_coin_concentrates():
    inst = CoinSpec(1_000_000, 0.0).build(7)
    heads = float(np.mean(inst.outcomes == 0))
    assert heads == pytest.approx(0.5, abs=0.002)
    assert np.all(inst.costs == 1.0)


def test_biased_coin_majority_is_offline_best():
    inst = CoinSpec(20_000, 0.1).build(11)
    sol = offline_best(inst)
    np.testing.assert_array_equal(sol.hypothesis.coords, [1.0, 0.0])

    tails = CoinSpec(20_000, 0.1, "tails").build(11)
    np.testing.assert_array_equal(offline_best(tails).hypothesis.coords, [0.0, 1.0])


def test_padded_coin_layout():
    inst = CoinSpec(1000, 0.1, coin_fraction=0.3).build(3)
    assert inst.horizon == 1000
    assert int(np.sum(inst.outcomes == NULL_OUTCOME)) == 700
    assert int(np.sum(inst.outcomes >= 0)) == 300
    np.testing.assert_array_equal(inst.costs[:700], 0.0)
    np.testing.assert_array_equal(inst.costs[700:], 1.0)


def test_padded_coin_value_cost_statistic_is_hypothesis_free(rng):
    # filler points have zero delta and zero cost; coins have delta 1, cost 1
    inst = CoinSpec(1000, 0.1, coin_fraction=0.3).build(5)
    for _ in range(10):
        w = rng.dirichlet(np.ones(2))
        deltas = inst.grad_norms_at(w)
        stat = float(np.mean(deltas * np.sqrt(inst.costs)))
        assert stat == pytest.approx(0.3)


def test_padded_coin_full_fraction_reduces_to_coins():
    # the default fraction, 1, is the plain coin stream: every arrival a
    # unit-cost flip. A smaller one puts filler before the same first flips
    plain = CoinSpec(500, 0.2, "tails").build(9)
    assert CoinSpec(500, 0.2, "tails").coins == 500
    assert np.all(plain.outcomes >= 0)
    np.testing.assert_array_equal(plain.costs, 1.0)
    padded = CoinSpec(500, 0.2, "tails", coin_fraction=0.3).build(9)
    np.testing.assert_array_equal(padded.outcomes[350:], plain.outcomes[:150])


def test_padded_coin_fraction_validation():
    with pytest.raises(ValueError):
        CoinSpec(100, 0.1, coin_fraction=0.0)
    with pytest.raises(ValueError):
        CoinSpec(100, 0.1, coin_fraction=1.2)


def test_padded_coin_vanishing_fraction_is_all_filler():
    inst = CoinSpec(100, 0.1, coin_fraction=1e-9).build(0)
    assert np.all(inst.outcomes == NULL_OUTCOME)
    # every hypothesis suffers the same (constant) loss
    np.testing.assert_array_equal(losses_at(inst, np.array([1.0, 0.0])), np.ones(100))
    np.testing.assert_array_equal(losses_at(inst, np.array([0.3, 0.7])), np.ones(100))


# ---------------------------------------------------------------------------
# cost models
# ---------------------------------------------------------------------------


def test_constant_costs():
    # a fixed cost v is the uniform cost of zero width: it draws v exactly
    for v in (0.0, 0.3, 0.5, 1.0, 5e-324):
        costs = UniformCost(v, v).draw(np.random.default_rng(0), 1000)
        assert costs.tolist() == [v] * 1000


def test_cost_models_refuse_a_cost_above_one():
    # money is in units of the largest cost: a cost model refuses any cost
    # above 1 that it could draw, before any instance is built
    for model, args in (
        (UniformCost, (1.5, 1.5)),
        (UniformCost, (0.0, 2.0)),
        (TwoPointCost, (0.2, 3.0)),
        (TwoPointCost, (0.0, np.inf)),
    ):
        with pytest.raises(InvalidConfigError):
            model(*args)
    # a high cost that is never drawn may exceed 1, and 1 itself is a cost
    TwoPointCost(0.0, 3.0)
    UniformCost(1.0, 1.0), TwoPointCost(1.0, 1.0)


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


def test_two_point_correlated_marginal_is_capped_by_the_drawn_share():
    # a drawn share below p_high used to raise, so one config could pass some
    # trials and fail others; now every targeted point is high
    groups = np.array([0] * 10 + [1] * 90)
    model = TwoPointCost(0.5, 1.0, target_groups=(0,))
    costs = model.draw(np.random.default_rng(0), 100, groups)
    np.testing.assert_array_equal(costs, np.where(groups == 0, 1.0, 0.0))
    # targets that hold no point leave every point free
    np.testing.assert_array_equal(model.draw(np.random.default_rng(0), 100, groups + 1), 0.0)
    with pytest.raises(InvalidConfigError, match="needs group tags"):
        model.draw(np.random.default_rng(0), 100, None)


# ---------------------------------------------------------------------------
# synthetic linear tasks
# ---------------------------------------------------------------------------


def test_linear_task_separable_when_separation_large():
    inst = LinearTaskSpec(
        T=2000, cost_model=UniformCost(0.0, 0.0), dim=3, clusters=2, separation=0.9, T_test=2000,
        noise=0.05
    ).build(21)
    sol = offline_best(inst, 3000)
    err = risk(inst, sol.hypothesis, "zero-one")
    assert err < 0.02


def test_linear_task_rejects_negative_test_size():
    # -5 used to fail with "features has 95 rows, costs 100"
    with pytest.raises(InvalidConfigError, match="need T_test >= 0, got -5"):
        LinearTaskSpec(T=100, cost_model=UniformCost(), dim=3, T_test=-5)


def test_linear_task_norms_bounded():
    inst = LinearTaskSpec(
        T=3000, cost_model=UniformCost(), dim=4, clusters=2, separation=0.6, T_test=500
    ).build(8)
    assert float(np.linalg.norm(inst.features, axis=1).max()) <= 1.0 + 1e-12
    assert float(np.linalg.norm(inst.test_features, axis=1).max()) <= 1.0 + 1e-12
    np.testing.assert_allclose(
        inst.feature_norms, np.linalg.norm(inst.features, axis=1), atol=1e-12
    )


def test_linear_task_free_costs_always_bought():
    from procure_learn.mechanism import FixedScale, Mechanism, MechanismConfig

    inst = LinearTaskSpec(
        T=400, cost_model=UniformCost(0.0, 0.0), dim=3, clusters=2, separation=0.6, T_test=100
    ).build(17)
    cfg = MechanismConfig(budget=50.0, price_scale=FixedScale(5.0))
    mech = Mechanism(cfg, inst).run(np.random.default_rng(1))
    # survival is 1 at cost 0, so every nonzero-delta arrival is purchased
    tr = mech.transcript
    for delta, accepted, q in zip(tr.delta, tr.accepted, tr.q):
        if delta > 0:
            assert accepted and q == 1.0


def test_linear_task_group_tags_and_two_point_marginal():
    model = TwoPointCost(0.2, 1.0, target_groups=(0, 2))
    inst = LinearTaskSpec(
        T=10_000, cost_model=model, dim=4, clusters=2, separation=0.6, T_test=10
    ).build(31)
    assert set(np.unique(inst.groups)) == {0, 1, 2, 3}
    assert float(np.mean(inst.costs == 1.0)) == pytest.approx(0.2, abs=0.015)
    hard = np.isin(inst.groups, (0, 2))
    assert np.all(inst.costs[~hard] == 0.0)


def test_generator_determinism():
    a = LinearTaskSpec(
        T=500, cost_model=UniformCost(), dim=4, clusters=2, separation=0.6, T_test=100
    ).build(77)
    b = LinearTaskSpec(
        T=500, cost_model=UniformCost(), dim=4, clusters=2, separation=0.6, T_test=100
    ).build(77)
    assert a.features.tobytes() == b.features.tobytes()
    assert a.costs.tobytes() == b.costs.tobytes()
    assert a.test_features.tobytes() == b.test_features.tobytes()

    c = CoinSpec(500, 0.1).build(5)
    d = CoinSpec(500, 0.1).build(5)
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
    "cost-above-one": ("vertex", {"costs": np.array([1.0, 1.5, 0.0])}),
    "cost-negative": ("feature", {"costs": np.array([1.0, -0.1, 0.0])}),
    "cost-nan": ("feature", {"costs": np.array([1.0, np.nan, 0.0])}),
}


ZERO_ROUND_BUILDS = {
    "columns": lambda: ProblemInstance(
        space=simplex(2), costs=np.ones(0), outcomes=np.zeros(0, dtype=np.int64)
    ),
    "coin": lambda: CoinSpec(0, 0.1),
    "padded-coin": lambda: CoinSpec(0, 0.1, coin_fraction=0.5),
    "linear": lambda: LinearTaskSpec(T=0, cost_model=UniformCost(), dim=3, T_test=10),
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
        IdxSpec(img_path, str(lab_path), UniformCost())


def test_digit_dataset_filter_and_limit(idx_files):
    img_path, lab_path, _, labels = idx_files
    inst = IdxSpec(img_path, lab_path, UniformCost(), holdout_fraction=0.0).build(5)
    assert inst.horizon == len(labels)  # fixture only contains those digits
    assert set(np.unique(inst.labels)) <= {-1, 1}
    assert np.all((inst.labels == 1) == np.isin(inst.groups, (9, 8)))
    np.testing.assert_allclose(np.linalg.norm(inst.features, axis=1), 1.0, atol=1e-12)

    nines_and_ones = IdxSpec(img_path, lab_path, UniformCost(), (9,), (1,), holdout_fraction=0.0)
    assert nines_and_ones.build(5).horizon == np.isin(labels, (9, 1)).sum()
    first_ten = IdxSpec(img_path, lab_path, UniformCost(), limit=10, holdout_fraction=0.0)
    assert first_ten.build(5).horizon == 10

    with pytest.raises(InvalidConfigError):
        IdxSpec(img_path, lab_path, UniformCost(), (9, 8), (8, 1))


def _truncated(path):
    path.write_bytes(path.read_bytes()[:-1])


def _trailing(path):
    path.write_bytes(path.read_bytes() + b"\0")


@pytest.mark.parametrize(
    "broken, overrides, message",
    [
        (None, {"limit": 2, "holdout_fraction": 0.75}, "the split leaves no training rows"),
        (None, {"positive_digits": (7,), "negative_digits": (3,)}, "no training rows: 0 rows"),
        (None, {"radius": float("inf")}, "ball radius must be positive and finite"),
        (("img", _trailing), {}, "img.idx: trailing bytes at byte offset 976"),
        (("lab", _truncated), {}, "lab.idx: truncated file, needed 60 bytes at byte offset 8"),
        (
            None,
            {"cost_model": TwoPointCost(0.2, 1.0, target_groups=(7,))},
            r"target_groups \[7\] are not among the instance's tags \[1, 4, 8, 9\]",
        ),
    ],
    ids=[
        "no-training-rows", "no-listed-digit", "radius-inf", "images-trailing",
        "labels-truncated", "target-not-listed",
    ],
)
def test_idx_spec_refuses_what_its_build_cannot_use(idx_files, tmp_path, broken, overrides, message):
    # each used to be refused only in a trial, through the instance built;
    # tests/test_cli.py refuses a limit of 0, a holdout_fraction of 1 and a
    # truncated image file from the CLI
    img_path, lab_path, _, _ = idx_files
    if broken is not None:
        name, damage = broken
        damage(tmp_path / f"{name}.idx")
    spec = dict(images=img_path, labels=lab_path, cost_model=UniformCost())
    with pytest.raises(ValueError, match=message):
        IdxSpec(**{**spec, **overrides})


def test_digit_task_split(idx_files):
    img_path, lab_path, _, _ = idx_files
    inst = IdxSpec(img_path, lab_path, UniformCost()).build(5)
    assert inst.horizon + len(inst.test_features) == 60
    assert abs(inst.horizon - 30) <= 1
    # deterministic under the seed
    again = IdxSpec(img_path, lab_path, UniformCost()).build(5)
    assert inst.features.tobytes() == again.features.tobytes()
    assert inst.costs.tobytes() == again.costs.tobytes()


def test_digit_task_norms_capped(idx_files):
    img_path, lab_path, _, _ = idx_files
    inst = IdxSpec(img_path, lab_path, UniformCost()).build(5)
    norms = np.linalg.norm(inst.features, axis=1)
    assert (norms > 1.0).any()  # a unit-normalized row rounds above 1 here
    np.testing.assert_array_equal(inst.feature_norms, np.minimum(norms, 1.0))
    # the rows hand out the stored norm, so delta stays in [0, 1]
    origin = np.zeros((inst.horizon, inst.space.dim))
    deltas = inst.at_posted(origin, 0, inst.horizon)[1]
    assert np.all((deltas >= 0.0) & (deltas <= 1.0))
