"""The optimized run loop must match a plain reference loop bitwise.

The reference below is written directly against the public scalar operations
(eval_loss / eval_gradient / delta / sample_price / survival / iw_feed) with
no shortcuts, so any drift in the production loop's fast paths shows up as a
transcript mismatch."""

import math

import numpy as np
import pytest

from procure_learn.core import eval_gradient, eval_loss
from procure_learn.environment import (
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
)
from procure_learn.pricing import delta, sample_price, survival


def reference_run(config, instance, rng):
    """Contract-level re-implementation of one full mechanism run."""
    setup = Mechanism(config, instance)  # reuse scale / learning-rate selection
    scale = setup.price_scale
    learner = FtrlLearner(instance.space, setup.learner.learning_rate)
    family = instance.family
    T = instance.horizon
    budget, c_max = config.budget, config.c_max
    at_cost = config.payment_mode == "at-cost"
    adaptive = isinstance(config.price_scale, AdaptiveScale)
    uniforms = rng.random(T)

    rows = []
    spend = 0.0
    estimate_sum = 0.0
    for t, arrival in enumerate(instance.arrivals):
        h = learner.post()
        loss = eval_loss(family, h, arrival.data)
        value = delta(family, h, arrival.data)

        if config.purchase_policy == "priced":
            if config.hard_stop and spend >= budget:
                price = 0.0
                q = 1.0 if arrival.cost <= 0.0 else 0.0
            elif scale == 0.0:
                price, q = c_max, 1.0
            elif value <= 0.0:
                price, q = 0.0, 0.0
            else:
                price = sample_price(value, scale, uniforms[t], c_max)
                q = survival(value, scale, arrival.cost, c_max)
            accepted = q > 0.0 and price >= arrival.cost
        elif config.purchase_policy == "naive":
            price = c_max if spend + c_max <= budget else 0.0
            accepted = price >= arrival.cost
            q = 1.0 if accepted else 0.0
        else:
            price, q, accepted = c_max, 1.0, True

        if accepted:
            payment = 0.0 if config.purchase_policy == "baseline" else (
                arrival.cost if at_cost else price
            )
            learner.iw_feed(q, True, eval_gradient(family, h, arrival.data), value)
            spend += payment
            estimate_sum += value * math.sqrt(arrival.cost) / q
        else:
            payment = 0.0
            learner.iw_feed(q, False)

        rows.append((value, arrival.cost, price, accepted, q, payment, loss, spend))
        if adaptive:
            estimate = min(1.0, max(0.0, estimate_sum / (t + 1)))
            remaining = max(budget - spend, 1e-6 * budget)
            scale = min(config.price_scale.cap, estimate * (T - t - 1) / remaining)
    return rows


def reference_end_state(config, instance, rows):
    """The end state a reference transcript implies, accumulated one round at
    a time: the learner is replayed on the accepted rounds."""
    setup = Mechanism(config, instance)
    learner = FtrlLearner(instance.space, setup.learner.learning_rate)
    T = instance.horizon
    hypothesis_sum = np.zeros(instance.space.dim)
    loss_total = value_cost_total = value_total = estimate_total = 0.0
    for t, (value, cost, price, accepted, q, payment, loss, spend) in enumerate(rows):
        h = learner.post()
        hypothesis_sum += h.coords
        loss_total += loss
        value_cost_total += value * math.sqrt(cost)
        value_total += value
        if accepted:
            estimate_total += value * math.sqrt(cost) / q
            learner.iw_feed(q, True, eval_gradient(instance.family, h, instance.arrivals[t].data), value)
    price_scale = setup.price_scale
    if isinstance(config.price_scale, AdaptiveScale):  # the update after the last round
        t = T - 1
        estimate = min(1.0, max(0.0, estimate_total / (t + 1)))
        remaining = max(config.budget - rows[-1][-1], 1e-6 * config.budget)
        price_scale = min(config.price_scale.cap, estimate * (T - t - 1) / remaining)
    return {
        "loss_total": loss_total,
        "value_cost_total": value_cost_total,
        "value_total": value_total,
        "estimate_total": estimate_total,
        "purchases": sum(row[3] for row in rows),
        "spend": rows[-1][-1],
        "price_scale": price_scale,
        "hypothesis_sum": hypothesis_sum.tolist(),
        "coords": learner.coords.tolist(),
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
    }


# T=150 is short; the T=3000 instances let windows between purchases grow
INSTANCES = {
    "coin": lambda: coin_sequence(150, 0.15, "heads", 42),
    "linear": lambda: linear_task(3, 2, 0.6, 150, 20, UniformCost(), 42),
    "coin-3000": lambda: coin_sequence(3000, 0.15, "heads", 42),
    "padded-coin-3000": lambda: padded_coin_sequence(3000, 0.3, 0.1, "heads", 42),
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
]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.purchase_policy}-{c.payment_mode}")
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


def test_run_loop_matches_reference_two_point_costs():
    instance = linear_task(4, 2, 0.6, 200, 10, TwoPointCost(0.3, 1.0), 7)
    config = MechanismConfig(budget=10.0, price_scale=AdaptiveScale(), learning_rate=FixedRate(0.25))
    expected = reference_run(config, instance, np.random.default_rng(3))
    mech = Mechanism(config, instance).run(np.random.default_rng(3))
    assert list(zip(mech.transcript.delta, mech.transcript.price, mech.transcript.cum_spend)) == [
        (row[0], row[2], row[7]) for row in expected
    ]
    assert end_state(mech) == reference_end_state(config, instance, expected)


def _play_all_one_by_one(self, start, stop, uniforms):
    return self._rounds_one_by_one(start, stop, uniforms, self.instance.costs.tolist())


FORCED_PATHS = {
    # no expected gap is shorter than one round, so every window is arrays
    "all-arrays": {"VECTOR_GAP": 1, "Mechanism._rounds_one_by_one": None},
    "all-one-by-one": {"Mechanism._rounds_at_once": _play_all_one_by_one},
}


@pytest.mark.parametrize("path", list(FORCED_PATHS))
@pytest.mark.parametrize("kind", ["coin-3000", "padded-coin-3000", "linear-d24-correlated"])
def test_window_evaluation_does_not_change_results(monkeypatch, path, kind):
    """Forcing every window through the array path, or every round through
    the scalar path, reproduces the default run bit for bit."""
    instance = INSTANCES[kind]()
    for config in CONFIGS:
        default = Mechanism(config, instance).run(np.random.default_rng(9))
        for name, value in FORCED_PATHS[path].items():
            monkeypatch.setattr(f"procure_learn.mechanism.{name}", value)  # None: a call raises
        forced = Mechanism(config, instance).run(np.random.default_rng(9))
        monkeypatch.undo()
        for column in forced.transcript.COLUMNS[1:]:
            assert getattr(forced.transcript, column) == getattr(default.transcript, column)
        assert end_state(forced) == end_state(default)
