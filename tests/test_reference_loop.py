"""The optimized run loop must match a plain reference loop bitwise.

The reference below reads the instance's columns (costs, labels, features,
feature norms, outcomes) itself and computes each round's loss, delta and
gradient in plain Python, then decides the round with the public price law
(sample_price / survival) and feeds the learner through iw_feed, with no
shortcuts. It calls none of the loss family's row kernels, so any drift in
those kernels or in the production loop's fast paths shows up as a
transcript mismatch."""

import math

import numpy as np
import pytest

from procure_learn import mechanism
from procure_learn.core import HingeLoss, simplex
from procure_learn.environment import (
    ProblemInstance,
    TwoPointCost,
    UniformCost,
    coin_sequence,
    linear_task,
    padded_coin_sequence,
)
from procure_learn.ftrl import FtrlLearner
from procure_learn.mechanism import (
    AdaptiveScale,
    FixedRate,
    FixedScale,
    KnowledgeScale,
    Mechanism,
    MechanismConfig,
    PriorKnowledge,
    SCALE_CAP,
    TheoryRate,
)
from procure_learn.pricing import sample_price, survival


def reference_row(instance, w, t):
    """Loss, delta (dual norm of the gradient) and gradient of arrival ``t``
    at hypothesis ``w``: the hinge loss of margin y * <x, w> on feature
    tasks, the linear loss 1 - w[outcome] on the simplex (filler points cost
    1 flat and have no gradient)."""
    if instance.outcomes is not None:
        g = np.zeros_like(w)
        i = int(instance.outcomes[t])
        if i < 0:
            return 1.0, 0.0, g
        g[i] = -1.0
        return 1.0 - float(w[i]), 1.0, g
    assert isinstance(instance.family, HingeLoss)
    x, y = instance.features[t], int(instance.labels[t])
    m = y * float((x * w).sum())
    value = 1.0 - m if m < 1.0 else 0.0
    slope = -1.0 if m < 1.0 else 0.0
    return value, abs(slope) * float(instance.feature_norms[t]), (slope * y) * x


def reference_run(config, instance, rng):
    """Contract-level re-implementation of one full mechanism run."""
    setup = Mechanism(config, instance)  # reuse scale / learning-rate selection
    scale = setup.price_scale
    learner = FtrlLearner(instance.space, setup.learner.learning_rate)
    T = instance.horizon
    budget, c_max = config.budget, config.c_max
    at_cost = config.payment_mode == "at-cost"
    adaptive = isinstance(config.price_scale, AdaptiveScale)
    uniforms = rng.random(T)

    rows = []
    spend = 0.0
    estimate_sum = 0.0
    for t in range(T):
        cost = float(instance.costs[t])
        w = learner.coords
        loss, value, gradient = reference_row(instance, w, t)

        if config.purchase_policy == "priced":
            if config.hard_stop and spend >= budget:
                price = 0.0
                q = 1.0 if cost <= 0.0 else 0.0
            elif value <= 0.0:  # worthless: never bought, whatever the scale
                price, q = 0.0, 0.0
            elif scale == 0.0:
                price, q = c_max, 1.0
            else:
                price = sample_price(value, scale, uniforms[t], c_max)
                q = survival(value, scale, cost, c_max)
            accepted = q > 0.0 and price >= cost
        elif config.purchase_policy == "naive":
            price = c_max if spend + c_max <= budget else 0.0
            accepted = price >= cost
            q = 1.0 if accepted else 0.0
        else:
            price, q, accepted = c_max, 1.0, True

        if accepted:
            payment = 0.0 if config.purchase_policy == "baseline" else (
                cost if at_cost else price
            )
            learner.iw_feed(q, True, gradient, value)
            spend += payment
            estimate_sum += value * math.sqrt(cost) / q
        else:
            payment = 0.0
            learner.iw_feed(q, False)

        rows.append((value, cost, price, accepted, q, payment, loss, spend))
        if adaptive:
            estimate = min(1.0, max(0.0, estimate_sum / (t + 1)))
            remaining = max(budget - spend, 1e-6 * budget)
            scale = min(SCALE_CAP, estimate * (T - t - 1) / remaining)
    return rows


def reference_end_state(config, instance, rows):
    """The end state a reference transcript implies, accumulated one round at
    a time: the learner is replayed on the accepted rounds."""
    setup = Mechanism(config, instance)
    learner = FtrlLearner(instance.space, setup.learner.learning_rate)
    hypothesis_sum = np.zeros(instance.space.dim)
    loss_total = value_cost_total = value_total = estimate_total = 0.0
    for t, (value, cost, price, accepted, q, payment, loss, spend) in enumerate(rows):
        w = learner.coords
        hypothesis_sum += w
        loss_total += loss
        value_cost_total += value * math.sqrt(cost)
        value_total += value
        if accepted:
            estimate_total += value * math.sqrt(cost) / q
            learner.iw_feed(q, True, reference_row(instance, w, t)[2], value)
    return {
        "loss_total": loss_total,
        "value_cost_total": value_cost_total,
        "value_total": value_total,
        "estimate_total": estimate_total,
        "purchases": sum(row[3] for row in rows),
        "spend": rows[-1][-1],
        "price_scale": setup.price_scale,
        "hypothesis_sum": hypothesis_sum.tolist(),
        "coords": learner.coords.tolist(),
        "grad_sum": learner.grad_sum.tolist(),
        "bound_sum": learner.bound_sum,
    }


def end_state(mech):
    return {
        "loss_total": mech.loss_total,
        "value_cost_total": mech.value_cost_total,
        "value_total": mech.value_total,
        "estimate_total": mech.estimate_total,
        "purchases": mech.purchases,
        "spend": mech.spend,
        "price_scale": mech.price_scale,
        "hypothesis_sum": mech.hypothesis_sum.tolist(),
        "coords": mech.learner.coords.tolist(),
        "grad_sum": mech.learner.grad_sum.tolist(),
        "bound_sum": mech.learner.bound_sum,
    }


def _vertex_d7(seed):
    """Outcomes on a 7-vertex simplex with filler points and costs in [0, 1)."""
    rng = np.random.default_rng(seed)
    return ProblemInstance(
        space=simplex(7), costs=rng.random(1000), outcomes=rng.integers(-1, 7, size=1000)
    )


# T=150 is short; the T=3000 instances let windows between purchases grow;
# the T=1 instances are the shortest run, one of them a single filler round
INSTANCES = {
    "coin-1": lambda: coin_sequence(1, 0.15, "heads", 42),
    "padded-coin-1": lambda: padded_coin_sequence(1, 0.3, 0.1, "heads", 42),
    "linear-1": lambda: linear_task(3, 2, 0.6, 1, 5, UniformCost(), 42),
    "coin": lambda: coin_sequence(150, 0.15, "heads", 42),
    "linear": lambda: linear_task(3, 2, 0.6, 150, 20, UniformCost(), 42),
    "coin-3000": lambda: coin_sequence(3000, 0.15, "heads", 42),
    "padded-coin-3000": lambda: padded_coin_sequence(3000, 0.3, 0.1, "heads", 42),
    "vertex-d7": lambda: _vertex_d7(42),
    "linear-d32-uniform": lambda: linear_task(32, 2, 0.35, 3000, 10, UniformCost(), 42, noise=0.2),
    "linear-d24-correlated": lambda: linear_task(
        24, 4, 0.8, 3000, 10, TwoPointCost(0.2, 1.0, (0, 4)), 42, noise=0.14
    ),
}

CONFIGS = [
    MechanismConfig(budget=12.0, price_scale=FixedScale(2.0), learning_rate=FixedRate(0.2)),
    MechanismConfig(
        budget=8.0,
        payment_mode="at-cost",
        price_scale=KnowledgeScale(PriorKnowledge(avg_value_cost=1.0)),
        learning_rate=FixedRate(0.3),
    ),
    MechanismConfig(budget=15.0, price_scale=AdaptiveScale(), learning_rate=FixedRate(0.15)),
    MechanismConfig(budget=6.0, purchase_policy="naive", learning_rate=FixedRate(0.2)),
    MechanismConfig(budget=6.0, purchase_policy="baseline", learning_rate=FixedRate(0.2)),
    MechanismConfig(
        budget=4.0, price_scale=FixedScale(1.0), learning_rate=FixedRate(0.2), hard_stop=True
    ),
    MechanismConfig(
        budget=10.0,
        payment_mode="at-cost",
        price_scale=AdaptiveScale(),
        learning_rate=FixedRate(0.15),
    ),
    MechanismConfig(
        budget=6.0, payment_mode="at-cost", purchase_policy="naive", learning_rate=FixedRate(0.2)
    ),
    MechanismConfig(
        budget=5.0,
        payment_mode="at-cost",
        price_scale=KnowledgeScale(PriorKnowledge(avg_value_cost=0.25)),
        learning_rate=FixedRate(0.2),
        hard_stop=True,
    ),
]
CONFIG_IDS = [
    "priced-posted-price0",
    "priced-at-cost",
    "priced-posted-price1",
    "naive-posted-price",
    "baseline-posted-price",
    "priced-posted-price2",
    "priced-at-cost-adaptive",
    "naive-at-cost",
    "priced-at-cost-hard-stop",
]


@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
@pytest.mark.parametrize("kind", list(INSTANCES))
def test_run_loop_matches_reference(config, kind):
    instance = INSTANCES[kind]()
    expected = reference_run(config, instance, np.random.default_rng(9))
    mech = Mechanism(config, instance).run(np.random.default_rng(9))
    tr = mech.transcript
    for t, (value, cost, price, accepted, q, payment, loss, spend) in enumerate(expected):
        assert tr.delta[t] == value
        assert tr.cost[t] == cost
        assert tr.price[t] == price
        assert tr.accepted[t] == accepted
        assert tr.q[t] == q
        assert tr.payment[t] == payment
        assert tr.loss[t] == loss
        assert tr.cum_spend[t] == spend
    assert end_state(mech) == reference_end_state(config, instance, expected)


def test_coin_at_cost_matches_reference():
    # the coin-at-cost workload's instance size and mechanism config
    instance = coin_sequence(20000, 0.05, "heads", 42)
    config = MechanismConfig(
        budget=400.0,
        payment_mode="at-cost",
        price_scale=KnowledgeScale(PriorKnowledge(avg_value_cost=1.0)),
        learning_rate=TheoryRate(),
    )
    expected = reference_run(config, instance, np.random.default_rng(9))
    mech = Mechanism(config, instance).run(np.random.default_rng(9))
    tr = mech.transcript
    columns = [getattr(tr, column).tolist() for column in tr.COLUMNS[1:]]
    assert columns == [list(c) for c in zip(*expected)]
    assert end_state(mech) == reference_end_state(config, instance, expected)


SWEEP_CONFIGS = {
    "priced-100": MechanismConfig(budget=100.0, learning_rate=FixedRate(0.08)),
    "priced-400-at-cost": MechanismConfig(
        budget=400.0, payment_mode="at-cost", learning_rate=FixedRate(0.08)
    ),
    "priced-hard-stop": MechanismConfig(
        budget=60.0, price_scale=FixedScale(8.0), learning_rate=FixedRate(0.08), hard_stop=True
    ),
    "naive-200": MechanismConfig(budget=200.0, purchase_policy="naive", learning_rate=FixedRate(0.08)),
}


@pytest.mark.parametrize("name", list(SWEEP_CONFIGS))
def test_linear_sweep_matches_reference(name):
    # the linear-sweep workload's instance shape; its hundreds of purchases
    # show a list of the rounds a run could buy that misses one
    instance = linear_task(32, 2, 0.35, 8000, 10, UniformCost(), 42, noise=0.2)
    config = SWEEP_CONFIGS[name]
    expected = reference_run(config, instance, np.random.default_rng(9))
    mech = Mechanism(config, instance).run(np.random.default_rng(9))
    columns = [getattr(mech.transcript, column).tolist() for column in mech.transcript.COLUMNS[1:]]
    assert columns == [list(c) for c in zip(*expected)]
    assert end_state(mech) == reference_end_state(config, instance, expected)


def test_run_loop_matches_reference_two_point_costs():
    instance = linear_task(4, 2, 0.6, 200, 10, TwoPointCost(0.3, 1.0), 7)
    config = MechanismConfig(budget=10.0, price_scale=AdaptiveScale(), learning_rate=FixedRate(0.25))
    expected = reference_run(config, instance, np.random.default_rng(3))
    mech = Mechanism(config, instance).run(np.random.default_rng(3))
    assert list(zip(mech.transcript.delta, mech.transcript.price, mech.transcript.cum_spend)) == [
        (row[0], row[2], row[7]) for row in expected
    ]
    assert end_state(mech) == reference_end_state(config, instance, expected)


FORCED_PATHS = {
    # every round at a hypothesis is taken in the block when it changes
    "all-arrays": {"VECTOR_GAP": 1},
    # every margin is taken one row at a time
    "all-one-by-one": {"VECTOR_GAP": 10**9},
}


@pytest.mark.parametrize("path", list(FORCED_PATHS))
@pytest.mark.parametrize("kind", ["linear-d24-correlated", "linear-d32-uniform"])
def test_window_evaluation_does_not_change_results(monkeypatch, path, kind):
    """Forcing every gap between the visits of a feature run to be closed
    as a block, or one row at a time, reproduces the default run bit for
    bit."""
    instance = INSTANCES[kind]()
    for config in CONFIGS:
        default = Mechanism(config, instance).run(np.random.default_rng(9))
        for name, value in FORCED_PATHS[path].items():
            monkeypatch.setattr(f"procure_learn.mechanism.{name}", value)
        forced = Mechanism(config, instance).run(np.random.default_rng(9))
        monkeypatch.undo()
        for column in forced.transcript.COLUMNS[1:]:
            forced_column = getattr(forced.transcript, column).tolist()
            assert forced_column == getattr(default.transcript, column).tolist()
        assert end_state(forced) == end_state(default)


@pytest.mark.parametrize(
    "config_id",
    ["priced-at-cost", "priced-posted-price1", "priced-posted-price2", "priced-at-cost-adaptive"],
)
def test_sparse_priced_run_takes_few_scalar_margins(monkeypatch, config_id):
    """A priced run that buys few of its rounds visits only those it could
    buy, so it takes far fewer margins one row at a time than it has
    rounds, and still matches the reference loop."""
    calls = []
    margin = mechanism._margin
    monkeypatch.setattr(
        "procure_learn.mechanism._margin", lambda x, w: calls.append(1) or margin(x, w)
    )
    instance = INSTANCES["linear-d32-uniform"]()
    config = CONFIGS[CONFIG_IDS.index(config_id)]
    mech = Mechanism(config, instance).run(np.random.default_rng(9))
    assert mech.purchases <= len(calls) < instance.horizon // 2
    expected = reference_run(config, instance, np.random.default_rng(9))
    assert mech.transcript.accepted.tolist() == [row[3] for row in expected]
    assert mech.transcript.loss.tolist() == [row[6] for row in expected]


@pytest.mark.parametrize("kind", ["coin-3000", "padded-coin-3000", "vertex-d7"])
def test_vertex_runs_decide_then_learn(monkeypatch, kind):
    """A vertex run never visits its rounds, for any policy or scale."""
    instance = INSTANCES[kind]()
    monkeypatch.setattr("procure_learn.mechanism.Mechanism._visit", None)
    for config in CONFIGS:
        mech = Mechanism(config, instance).run(np.random.default_rng(9))
        assert len(mech.transcript) == instance.horizon
