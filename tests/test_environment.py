import numpy as np
import pytest

from procure_learn.core import InvalidConfigError, NULL_OUTCOME
from procure_learn.environment import (
    ConstantCost,
    FormatError,
    TwoPointCost,
    UniformCost,
    attach_costs,
    coin_sequence,
    digit_task,
    linear_task,
    load_digit_dataset,
    load_idx_images,
    load_idx_labels,
    padded_coin_sequence,
    write_idx_images,
    write_idx_labels,
)
from procure_learn.metrics import offline_best, risk


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
    np.testing.assert_array_equal(inst.losses_at(np.array([1.0, 0.0])), np.ones(100))
    np.testing.assert_array_equal(inst.losses_at(np.array([0.3, 0.7])), np.ones(100))


# ---------------------------------------------------------------------------
# cost models
# ---------------------------------------------------------------------------


def test_constant_costs():
    np.testing.assert_array_equal(attach_costs(5, ConstantCost(0.5), 0), [0.5] * 5)


def test_uniform_cost_mean():
    costs = attach_costs(100_000, UniformCost(0.0, 1.0), 42)
    assert float(costs.mean()) == pytest.approx(0.5, abs=0.005)
    assert costs.min() >= 0.0 and costs.max() <= 1.0


def test_two_point_independent_marginal():
    costs = attach_costs(50_000, TwoPointCost(0.2, 1.0), 13)
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
    err = risk(inst.family, sol.hypothesis, inst.test_features, inst.test_labels, "zero-one")
    assert err < 0.02


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
    for rec in mech.transcript:
        if rec.delta > 0:
            assert rec.accepted and rec.q == 1.0


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


def test_arrival_views():
    inst = padded_coin_sequence(10, 0.5, 0.1, "heads", 1)
    arrivals = inst.arrivals
    assert len(arrivals) == 10
    assert arrivals[0].data.is_null and arrivals[0].cost == 0.0
    assert arrivals[-1].data.outcome in (0, 1) and arrivals[-1].cost == 1.0


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
    # data_point hands out the stored norm, so delta stays in [0, 1]
    assert all(0.0 <= inst.data_point(t).feature_norm <= 1.0 for t in range(inst.horizon))
