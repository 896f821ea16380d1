import math

import numpy as np
import pytest

from procure_learn.core import project_coords
from procure_learn.environment import (
    ConstantCost,
    TwoPointCost,
    UniformCost,
    coin_sequence,
    linear_task,
    padded_coin_sequence,
)
from procure_learn.mechanism import (
    AdaptiveScale,
    FixedRate,
    FixedScale,
    Mechanism,
    MechanismConfig,
)
from procure_learn.metrics import (
    loss_total,
    mean_round_risk,
    offline_best,
    regret,
    risk,
    sequence_stats,
)


# ---------------------------------------------------------------------------
# offline oracle
# ---------------------------------------------------------------------------


def test_offline_best_majority_vertex():
    # deterministic 60% heads stream
    outcomes = np.array([0] * 60 + [1] * 40)
    inst = coin_sequence(100, 0.0, "heads", 0)
    inst.outcomes = outcomes
    sol = offline_best(inst)
    np.testing.assert_array_equal(sol.hypothesis.coords, [1.0, 0.0])
    assert sol.total_loss == pytest.approx(40.0)
    assert sol.converged


def test_offline_best_all_filler_is_flat():
    inst = padded_coin_sequence(100, 0.1, 0.0, "heads", 4)
    inst.outcomes = np.full(100, -1)
    sol = offline_best(inst)
    assert sol.total_loss == pytest.approx(100.0)


def _grid_best(inst, resolution=1e-3):
    radius = inst.space.radius
    axis = np.arange(-radius, radius + resolution, resolution)
    best = np.inf
    for a in axis:
        remaining = radius * radius - a * a
        if remaining < 0:
            continue
        b_axis = axis[np.abs(axis) <= np.sqrt(remaining)]
        if len(b_axis) == 0:
            continue
        W = np.column_stack([np.full(len(b_axis), a), b_axis])
        margins = (W @ inst.features.T) * inst.labels
        totals = inst.family.margin_value(margins).sum(axis=1)
        best = min(best, float(totals.min()))
    return best


def test_offline_best_beats_grid_on_2d_toy():
    inst = linear_task(2, 1, 0.5, 60, 0, UniformCost(), 3, radius=1.5, noise=0.15)
    sol = offline_best(inst, 20_000, patience=500)
    assert sol.total_loss <= _grid_best(inst) + 1e-6


def test_offline_best_flags_iteration_cap():
    inst = linear_task(3, 2, 0.5, 200, 0, UniformCost(), 9)
    sol = offline_best(inst, iterations=3)
    assert not sol.converged
    assert sol.iterations == 3


def _two_pass_offline_best(instance, iterations, tol=1e-8, patience=50):
    """The feature-loss oracle as it was written before its passes were
    fused: the gradient and the objective each compute their own margins."""
    space, family = instance.space, instance.family
    X, y = instance.features, instance.labels
    w = np.zeros(space.dim)
    best_w = w
    best_obj = float(family.values(w, X, y).mean())
    stale = 0
    k = 0
    for k in range(1, iterations + 1):
        g = family.mean_grad(w, X, y)
        w = project_coords(space, w - (space.radius / math.sqrt(k)) * g)
        obj = float(family.values(w, X, y).mean())
        if obj < best_obj - tol * max(1.0, abs(best_obj)):
            best_obj, best_w, stale = obj, w, 0
        else:
            stale += 1
            if stale >= patience:
                break
    return best_w, best_obj * len(y), stale >= patience, k


@pytest.mark.parametrize(
    "build, converges",
    [
        (lambda: linear_task(32, 2, 0.35, 8000, 0, UniformCost(), 1, noise=0.2), True),
        (
            lambda: linear_task(
                24, 4, 0.8, 1000, 0, TwoPointCost(0.2, 1.0, (0, 4)), 1, spread=0.35, noise=0.14
            ),
            False,
        ),
    ],
    ids=["d32-T8000-converges", "d24-T1000-hits-cap"],
)
def test_fused_oracle_matches_two_pass_loop_bitwise(build, converges):
    instance = build()
    sol = offline_best(instance, 1500)
    coords, total, converged, iterations = _two_pass_offline_best(instance, 1500)
    assert converged == converges
    assert sol.hypothesis.coords.tobytes() == coords.tobytes()
    assert (sol.total_loss, sol.converged, sol.iterations) == (total, converged, iterations)


# ---------------------------------------------------------------------------
# regret
# ---------------------------------------------------------------------------


def _run(inst, **overrides):
    defaults = dict(
        budget=20.0, price_scale=FixedScale(2.0), learning_rate=FixedRate(0.2)
    )
    defaults.update(overrides)
    cfg = MechanismConfig(**defaults)
    mech = Mechanism(cfg, inst, record_hypotheses=True)
    return mech.run(np.random.default_rng(7))


def test_regret_zero_at_optimum():
    inst = coin_sequence(50, 0.2, "heads", 5)
    sol = offline_best(inst)
    losses = inst.losses_at(sol.hypothesis.coords)
    assert float(losses.sum()) - sol.total_loss == pytest.approx(0.0)


def test_regret_hand_count():
    # 10 rounds, 6 heads; posting the tails vertex every round
    inst = coin_sequence(10, 0.0, "heads", 0)
    inst.outcomes = np.array([0, 0, 0, 1, 0, 1, 0, 1, 0, 1])  # 6 heads
    tails = np.array([0.0, 1.0])
    posted_loss = float(inst.losses_at(tails).sum())
    sol = offline_best(inst)
    assert posted_loss == pytest.approx(6.0)
    assert sol.total_loss == pytest.approx(4.0)
    assert posted_loss - sol.total_loss == pytest.approx(2.0)


def test_regret_nonnegative_with_exact_oracle():
    for seed in range(5):
        inst = coin_sequence(300, 0.1, "heads", seed)
        mech = _run(inst)
        sol = offline_best(inst)
        assert regret(mech.transcript, inst, sol.hypothesis) >= -1e-9


def test_regret_transcript_matches_recomputation():
    inst = linear_task(3, 2, 0.6, 400, 50, UniformCost(), 13)
    mech = _run(inst)
    sol = offline_best(inst)
    via_transcript = regret(mech.transcript, inst, sol.hypothesis)
    recomputed = loss_total(inst, mech.hypothesis_matrix()) - sol.total_loss
    assert via_transcript == pytest.approx(recomputed, abs=1e-9)


def test_regret_length_mismatch():
    inst = coin_sequence(50, 0.1, "heads", 3)
    mech = _run(inst)
    other = coin_sequence(49, 0.1, "heads", 3)
    with pytest.raises(ValueError):
        regret(mech.transcript, other, offline_best(other).hypothesis)


# ---------------------------------------------------------------------------
# risk
# ---------------------------------------------------------------------------


def test_risk_examples():
    inst = linear_task(3, 2, 0.9, 200, 400, ConstantCost(0.0), 2, noise=0.05)
    fam = inst.family
    sol = offline_best(inst, 3000)
    assert risk(fam, sol.hypothesis, inst.test_features, inst.test_labels, "zero-one") < 0.02

    zero = np.zeros(3)
    assert risk(fam, zero, inst.test_features, inst.test_labels, "zero-one") == 1.0
    assert risk(fam, zero, inst.test_features, inst.test_labels, "surrogate") == 1.0

    with pytest.raises(ValueError):
        risk(fam, zero, inst.test_features[:0], inst.test_labels[:0])
    with pytest.raises(ValueError):
        risk(fam, zero, inst.test_features, inst.test_labels, "accuracy")


# ---------------------------------------------------------------------------
# sequence statistics
# ---------------------------------------------------------------------------


def test_stats_on_padded_coin():
    inst = padded_coin_sequence(1000, 0.3, 0.1, "heads", 6)
    mech = _run(inst, budget=50.0)
    sol = offline_best(inst)
    stats = sequence_stats(inst, mech.hypothesis_matrix(), sol.hypothesis)
    assert stats.avg_value_cost == pytest.approx(0.3)
    assert stats.avg_value == pytest.approx(0.3)
    assert stats.opt_value_cost == pytest.approx(0.3)
    # the mechanism's online accumulators agree with the recomputation
    assert mech.realized_avg_value_cost == pytest.approx(stats.avg_value_cost)
    assert mech.realized_avg_value == pytest.approx(stats.avg_value)


def test_stats_all_unit_costs_collapse():
    inst = coin_sequence(200, 0.1, "heads", 8)
    mech = _run(inst, budget=10.0)
    stats = sequence_stats(inst, mech.hypothesis_matrix(), offline_best(inst).hypothesis)
    assert stats.avg_value_cost == pytest.approx(stats.avg_value)
    assert stats.avg_sqrt_cost == 1.0 and stats.avg_cost == 1.0


def test_stats_zero_costs():
    inst = linear_task(3, 2, 0.6, 300, 10, ConstantCost(0.0), 4)
    mech = _run(inst, budget=10.0)
    stats = sequence_stats(inst, mech.hypothesis_matrix(), offline_best(inst).hypothesis)
    assert stats.avg_value_cost == 0.0
    assert stats.avg_cost == 0.0 and stats.avg_sqrt_cost == 0.0


def test_stats_ordering_chain():
    # avg_value_cost <= avg_value, avg_value_cost <= avg_sqrt_cost <= sqrt(avg_cost)
    specs = [
        coin_sequence(400, 0.15, "heads", 1),
        padded_coin_sequence(400, 0.4, 0.1, "tails", 2),
        linear_task(3, 2, 0.6, 400, 10, UniformCost(), 3),
        linear_task(3, 2, 0.6, 400, 10, TwoPointCost(0.2, 1.0), 4),
    ]
    for inst in specs:
        mech = _run(inst, budget=15.0)
        stats = sequence_stats(inst, mech.hypothesis_matrix(), offline_best(inst).hypothesis)
        assert stats.avg_value_cost <= stats.avg_value + 1e-12
        assert stats.avg_value_cost <= stats.avg_sqrt_cost + 1e-12
        assert stats.avg_sqrt_cost <= np.sqrt(stats.avg_cost) + 1e-12
        for v in (stats.avg_value_cost, stats.avg_value, stats.avg_sqrt_cost, stats.avg_cost):
            assert 0.0 <= v <= 1.0


# ---------------------------------------------------------------------------
# averaged-hypothesis risk
# ---------------------------------------------------------------------------


def test_averaged_hypothesis_never_beats_round_mean():
    inst = linear_task(3, 2, 0.6, 500, 300, UniformCost(), 19)
    mech = _run(inst, budget=30.0, price_scale=AdaptiveScale())
    final = mech.finalize()
    avg_risk = risk(inst.family, final, inst.test_features, inst.test_labels, "surrogate")
    round_mean = mean_round_risk(
        inst.family, mech.hypothesis_matrix(), inst.test_features, inst.test_labels
    )
    assert avg_risk <= round_mean + 1e-12
