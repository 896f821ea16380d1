import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from procure_learn.core import project_coords
from procure_learn.environment import (
    CoinSpec,
    ConstantCost,
    LinearTaskSpec,
    PaddedCoinSpec,
    TwoPointCost,
    UniformCost,
)
from procure_learn.mechanism import (
    AdaptiveScale,
    FixedRate,
    FixedScale,
    Mechanism,
    MechanismConfig,
)
from procure_learn.metrics import GAP, offline_best, risk

from oracles import (
    loss_total,
    losses_at,
    mean_grad,
    mean_round_risk,
    posted_hypotheses,
    regret,
    sequence_stats,
)


# ---------------------------------------------------------------------------
# offline oracle
# ---------------------------------------------------------------------------


def test_offline_best_majority_vertex():
    # deterministic 60% heads stream
    outcomes = np.array([0] * 60 + [1] * 40)
    inst = CoinSpec(100, 0.0).build(0)
    inst.outcomes = outcomes
    sol = offline_best(inst)
    np.testing.assert_array_equal(sol.hypothesis.coords, [1.0, 0.0])
    assert sol.total_loss == pytest.approx(40.0)
    assert sol.converged


def test_offline_best_all_filler_is_flat():
    inst = PaddedCoinSpec(100, 0.0, coin_fraction=0.1).build(4)
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
        totals = np.maximum(0.0, 1.0 - margins).sum(axis=1)
        best = min(best, float(totals.min()))
    return best


def test_offline_best_beats_grid_on_2d_toy():
    inst = LinearTaskSpec(
        T=60, cost_model=UniformCost(), dim=2, clusters=1, separation=0.5, T_test=0, radius=1.5,
        noise=0.15
    ).build(3)
    sol = offline_best(inst)
    grid = _grid_best(inst)
    assert sol.converged
    assert sol.total_loss <= grid + 1e-6
    assert sol.lower_bound <= grid


def test_offline_best_flags_iteration_cap():
    inst = LinearTaskSpec(
        T=200, cost_model=UniformCost(), dim=3, clusters=2, separation=0.5, T_test=0
    ).build(9)
    sol = offline_best(inst, iterations=3)
    assert not sol.converged
    assert sol.iterations == 3
    assert math.isfinite(sol.lower_bound)
    assert sol.lower_bound <= sol.total_loss
    assert sol.total_loss - sol.lower_bound > GAP * inst.horizon


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(2, 6),
    clusters=st.integers(1, 3),
    separation=st.floats(0.0, 1.5),
    T=st.integers(1, 80),
    radius=st.floats(0.05, 8.0),
    noise=st.floats(0.0, 0.5),
    iterations=st.integers(0, 300),
    seed=st.integers(0, 2**16),
)
def test_oracle_lower_bound_is_weak_duality(
    dim, clusters, separation, T, radius, noise, iterations, seed
):
    inst = LinearTaskSpec(
        T=T, cost_model=UniformCost(), dim=dim, clusters=clusters, separation=separation, T_test=0,
        radius=radius, noise=noise
    ).build(seed)
    sol = offline_best(inst, iterations)
    assert 0.0 <= sol.lower_bound <= sol.total_loss
    assert sol.converged or sol.iterations == iterations
    if sol.converged:
        assert sol.total_loss - sol.lower_bound <= GAP * T * (1 + 1e-9)
    # no point of the ball does better than the bound: random points, points
    # on the sphere, and a longer run's answer
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((64, dim))
    W *= radius / np.linalg.norm(W, axis=1)[:, None]
    W[32:] *= rng.random((32, 1))
    totals = np.maximum(0.0, 1.0 - (W @ inst.features.T) * inst.labels).sum(axis=1)
    slack = 1e-9 * T
    assert sol.lower_bound <= float(totals.min()) + slack
    assert sol.lower_bound <= offline_best(inst, 3000).total_loss + slack


def _two_pass_offline_best(instance, iterations):
    """The feature-loss oracle as it was written before its passes were
    fused: the gradient and the objective each compute their own margins,
    and the duality bound comes from the mean gradient ``g`` (the active
    rows sum to ``-n * g``). Also counts the iterates that left the ball
    before projection."""
    space = instance.space
    X, y = instance.features, instance.labels
    w = np.zeros(space.dim)
    best_w = w
    best_obj = float(np.maximum(0.0, 1.0 - y * (X @ w)).mean())
    best_bound = 0.0
    k = 0
    projected = 0
    while best_obj - best_bound > GAP and k < iterations:
        k += 1
        g = mean_grad(w, X, y)
        active = np.count_nonzero(y * (X @ w) < 1.0)
        best_bound = max(best_bound, active / len(y) - space.radius * np.linalg.norm(g))
        v = w - (space.radius / math.sqrt(k)) * g
        projected += bool(np.linalg.norm(v) > space.radius)
        w = project_coords(space, v)
        obj = float(np.maximum(0.0, 1.0 - y * (X @ w)).mean())
        if obj < best_obj:
            best_obj, best_w = obj, w
    lower = min(best_bound, best_obj) * len(y)
    return best_w, best_obj * len(y), best_obj - best_bound <= GAP, k, projected, lower


def _d24_hits_cap():
    return LinearTaskSpec(
        T=1000, cost_model=TwoPointCost(0.2, 1.0, (0, 4)), dim=24, clusters=4, separation=0.8,
        T_test=0, spread=0.35, noise=0.14
    ).build(1)


@pytest.mark.parametrize(
    "build, iterations, converges, projects",
    [
        (
            lambda: LinearTaskSpec(
                T=8000, cost_model=UniformCost(), dim=32, clusters=2, separation=0.35, T_test=0,
                noise=0.2
            ).build(1),
            1500,
            True,
            True,
        ),
        # the gap is certified after 179 passes
        (_d24_hits_cap, 100, False, True),
        # a radius the iterates never reach: no pass projects
        (
            lambda: LinearTaskSpec(
                T=500, cost_model=UniformCost(), dim=8, clusters=2, separation=0.5, T_test=0,
                radius=30.0, noise=0.2
            ).build(1),
            1500,
            False,
            False,
        ),
        # the first passes stay inside the ball: no step is long enough yet
        (_d24_hits_cap, 3, False, False),
    ],
    ids=["d32-T8000-converges", "d24-T1000-hits-cap", "d8-inside-ball", "d24-cap-3"],
)
def test_fused_oracle_matches_two_pass_loop_bitwise(build, iterations, converges, projects):
    instance = build()
    sol = offline_best(instance, iterations)
    coords, total, converged, k, projected, lower = _two_pass_offline_best(instance, iterations)
    assert converged == converges
    assert (projected > 0) == projects
    assert sol.hypothesis.coords.tobytes() == coords.tobytes()
    assert (sol.total_loss, sol.converged, sol.iterations) == (total, converged, k)
    assert sol.lower_bound == lower


# ---------------------------------------------------------------------------
# regret
# ---------------------------------------------------------------------------


def _run(inst, **overrides):
    defaults = dict(
        budget=20.0, price_scale=FixedScale(2.0), learning_rate=FixedRate(0.2)
    )
    defaults.update(overrides)
    cfg = MechanismConfig(**defaults)
    mech = Mechanism(cfg, inst)
    return mech.run(np.random.default_rng(7))


def test_regret_zero_at_optimum():
    inst = CoinSpec(50, 0.2).build(5)
    sol = offline_best(inst)
    losses = losses_at(inst, sol.hypothesis.coords)
    assert float(losses.sum()) - sol.total_loss == pytest.approx(0.0)


def test_regret_hand_count():
    # 10 rounds, 6 heads; posting the tails vertex every round
    inst = CoinSpec(10, 0.0).build(0)
    inst.outcomes = np.array([0, 0, 0, 1, 0, 1, 0, 1, 0, 1])  # 6 heads
    tails = np.array([0.0, 1.0])
    posted_loss = float(losses_at(inst, tails).sum())
    sol = offline_best(inst)
    assert posted_loss == pytest.approx(6.0)
    assert sol.total_loss == pytest.approx(4.0)
    assert posted_loss - sol.total_loss == pytest.approx(2.0)


def test_regret_nonnegative_with_exact_oracle():
    for seed in range(5):
        inst = CoinSpec(300, 0.1).build(seed)
        mech = _run(inst)
        sol = offline_best(inst)
        assert regret(mech.transcript, inst, sol.hypothesis) >= -1e-9


def test_regret_transcript_matches_recomputation():
    inst = LinearTaskSpec(
        T=400, cost_model=UniformCost(), dim=3, clusters=2, separation=0.6, T_test=50
    ).build(13)
    mech = _run(inst)
    sol = offline_best(inst)
    via_transcript = regret(mech.transcript, inst, sol.hypothesis)
    recomputed = loss_total(inst, posted_hypotheses(mech)) - sol.total_loss
    assert via_transcript == pytest.approx(recomputed, abs=1e-9)


def test_regret_length_mismatch():
    inst = CoinSpec(50, 0.1).build(3)
    mech = _run(inst)
    other = CoinSpec(49, 0.1).build(3)
    with pytest.raises(ValueError):
        regret(mech.transcript, other, offline_best(other).hypothesis)


# ---------------------------------------------------------------------------
# risk
# ---------------------------------------------------------------------------


def test_risk_examples():
    inst = LinearTaskSpec(
        T=200, cost_model=ConstantCost(0.0), dim=3, clusters=2, separation=0.9, T_test=400,
        noise=0.05
    ).build(2)
    sol = offline_best(inst, 3000)
    assert risk(inst, sol.hypothesis, "zero-one") < 0.02

    zero = np.zeros(3)
    assert risk(inst, zero, "zero-one") == 1.0
    assert risk(inst, zero, "surrogate") == 1.0

    untested = dataclasses.replace(
        inst, test_features=inst.test_features[:0], test_labels=inst.test_labels[:0]
    )
    with pytest.raises(ValueError):
        risk(untested, zero)
    with pytest.raises(ValueError):
        risk(inst, zero, "accuracy")


# ---------------------------------------------------------------------------
# sequence statistics
# ---------------------------------------------------------------------------


def test_stats_on_padded_coin():
    inst = PaddedCoinSpec(1000, 0.1, coin_fraction=0.3).build(6)
    mech = _run(inst, budget=50.0)
    sol = offline_best(inst)
    stats = sequence_stats(inst, posted_hypotheses(mech), sol.hypothesis)
    assert stats.avg_value_cost == pytest.approx(0.3)
    assert stats.avg_value == pytest.approx(0.3)
    assert stats.opt_value_cost == pytest.approx(0.3)
    # the mechanism's online accumulators agree with the recomputation
    assert mech.realized_avg_value_cost == pytest.approx(stats.avg_value_cost)
    assert mech.realized_avg_value == pytest.approx(stats.avg_value)


def test_stats_all_unit_costs_collapse():
    inst = CoinSpec(200, 0.1).build(8)
    mech = _run(inst, budget=10.0)
    stats = sequence_stats(inst, posted_hypotheses(mech), offline_best(inst).hypothesis)
    assert stats.avg_value_cost == pytest.approx(stats.avg_value)
    assert stats.avg_sqrt_cost == 1.0 and stats.avg_cost == 1.0


def test_stats_zero_costs():
    inst = LinearTaskSpec(
        T=300, cost_model=ConstantCost(0.0), dim=3, clusters=2, separation=0.6, T_test=10
    ).build(4)
    mech = _run(inst, budget=10.0)
    stats = sequence_stats(inst, posted_hypotheses(mech), offline_best(inst).hypothesis)
    assert stats.avg_value_cost == 0.0
    assert stats.avg_cost == 0.0 and stats.avg_sqrt_cost == 0.0


def test_stats_ordering_chain():
    # avg_value_cost <= avg_value, avg_value_cost <= avg_sqrt_cost <= sqrt(avg_cost)
    specs = [
        CoinSpec(400, 0.15).build(1),
        PaddedCoinSpec(400, 0.1, "tails", coin_fraction=0.4).build(2),
        LinearTaskSpec(
            T=400, cost_model=UniformCost(), dim=3, clusters=2, separation=0.6, T_test=10
        ).build(3),
        LinearTaskSpec(
            T=400, cost_model=TwoPointCost(0.2, 1.0), dim=3, clusters=2, separation=0.6, T_test=10
        ).build(4),
    ]
    for inst in specs:
        mech = _run(inst, budget=15.0)
        stats = sequence_stats(inst, posted_hypotheses(mech), offline_best(inst).hypothesis)
        assert stats.avg_value_cost <= stats.avg_value + 1e-12
        assert stats.avg_value_cost <= stats.avg_sqrt_cost + 1e-12
        assert stats.avg_sqrt_cost <= np.sqrt(stats.avg_cost) + 1e-12
        for v in (stats.avg_value_cost, stats.avg_value, stats.avg_sqrt_cost, stats.avg_cost):
            assert 0.0 <= v <= 1.0


# ---------------------------------------------------------------------------
# averaged-hypothesis risk
# ---------------------------------------------------------------------------


def test_averaged_hypothesis_never_beats_round_mean():
    inst = LinearTaskSpec(
        T=500, cost_model=UniformCost(), dim=3, clusters=2, separation=0.6, T_test=300
    ).build(19)
    mech = _run(inst, budget=30.0, price_scale=AdaptiveScale())
    final = mech.finalize()
    avg_risk = risk(inst, final, "surrogate")
    round_mean = mean_round_risk(posted_hypotheses(mech), inst.test_features, inst.test_labels)
    assert avg_risk <= round_mean + 1e-12
