import dataclasses
import math

import numpy as np
import pytest

from procure_learn.core import InvalidConfigError
from procure_learn.environment import (
    CoinSpec,
    LinearTaskSpec,
    UniformCost,
)
from procure_learn.mechanism import (
    AdaptiveScale,
    FixedRate,
    FixedScale,
    Mechanism,
    MechanismConfig,
    MechanismStateError,
    PriorKnowledge,
    SCALE_CAP,
    TheoryRate,
    choose_price_scale,
    ledger_entry,
    theory_learning_rate,
)
from procure_learn.metrics import risk
from procure_learn.pricing import priced_round, priced_rounds, survival

from oracles import mean_round_risk, posted_hypotheses


# ---------------------------------------------------------------------------
# scale selection
# ---------------------------------------------------------------------------


def test_choose_scale_at_cost():
    assert choose_price_scale(
        PriorKnowledge(avg_value_cost=0.3), 1000, 100, "at-cost"
    ) == pytest.approx(3.0)
    assert choose_price_scale(
        PriorKnowledge(avg_sqrt_cost=0.5), 1000, 100, "at-cost"
    ) == pytest.approx(5.0)
    assert choose_price_scale(
        PriorKnowledge(avg_cost=0.25), 1000, 100, "at-cost"
    ) == pytest.approx(5.0)  # sqrt(mean cost) substitution


def test_choose_scale_posted_price():
    both = PriorKnowledge(avg_value_cost=0.3, avg_value=0.5)
    assert choose_price_scale(both, 1000, 100, "posted-price") == pytest.approx(7.0)
    # degradation chain when less is known
    assert choose_price_scale(
        PriorKnowledge(avg_value_cost=0.3), 1000, 100, "posted-price"
    ) == pytest.approx(17.0)
    assert choose_price_scale(
        PriorKnowledge(avg_sqrt_cost=0.6), 1000, 100, "posted-price"
    ) == pytest.approx(20.0)
    assert choose_price_scale(
        PriorKnowledge(avg_cost=0.5), 1000, 100, "posted-price"
    ) == pytest.approx(20.0)


def test_choose_scale_vanishes_for_huge_budgets():
    k = choose_price_scale(
        PriorKnowledge(avg_value_cost=0.3, avg_value=0.5), 1000, 1e9, "posted-price"
    )
    assert 0.0 < k < 1e-3  # buy-everything limit


def test_choose_scale_validation():
    with pytest.raises(InvalidConfigError):
        choose_price_scale(PriorKnowledge(avg_value_cost=0.3), 1000, 0.0, "at-cost")
    with pytest.raises(InvalidConfigError):
        choose_price_scale(PriorKnowledge(), 1000, 100, "at-cost")
    with pytest.raises(InvalidConfigError):
        PriorKnowledge(avg_value_cost=1.2)


@pytest.mark.parametrize(
    "payment_mode, knowledge, statistic",
    [
        ("at-cost", PriorKnowledge(avg_value_cost=0.0), "avg_value_cost"),
        ("at-cost", PriorKnowledge(avg_sqrt_cost=0.0), "avg_sqrt_cost"),
        ("posted-price", PriorKnowledge(avg_value_cost=0.0, avg_value=0.0), "avg_value"),
        ("posted-price", PriorKnowledge(avg_value_cost=0.3, avg_value=0.1), "avg_value"),
    ],
)
def test_choose_scale_refuses_knowledge_giving_zero_scale(payment_mode, knowledge, statistic):
    # a zero scale would buy every arrival at price 1, whatever the budget
    with pytest.raises(InvalidConfigError, match=statistic):
        choose_price_scale(knowledge, 1000, 100, payment_mode)
    # the config refuses it, before any run
    with pytest.raises(InvalidConfigError, match=statistic):
        MechanismConfig(budget=5.0, payment_mode=payment_mode, price_scale=knowledge)


def test_theory_learning_rate_examples():
    assert theory_learning_rate(1.0, 10_000, 100, 3.0) == pytest.approx(0.01)
    assert theory_learning_rate(1.0, 400, 100, 0.0) == pytest.approx(1.0 / 20.0)
    assert theory_learning_rate(50.0, 100, 100, 0.0) == pytest.approx(math.sqrt(50) / 10)


# ---------------------------------------------------------------------------
# round decision
# ---------------------------------------------------------------------------


def test_priced_round_worthless_never_bought():
    for cost in (0.0, 0.3, 1.0):
        price, q, accepted = priced_round(0.0, cost, 0.5, 2.0)
        assert price == 0.0 and q == 0.0 and not accepted


def test_priced_round_free_always_bought():
    price, q, accepted = priced_round(0.4, 0.0, 0.99, 2.0)
    assert accepted and q == 1.0 and price >= 0.0


def test_priced_round_tie_accepts():
    # reserve at the top price: the price is deterministically 1 and cost 1 ties
    price, q, accepted = priced_round(2.0, 1.0, 0.0, 2.0)
    assert price == 1.0 and accepted
    assert q == pytest.approx(1.0)


def test_priced_round_zero_scale_buys_at_max_price():
    price, q, accepted = priced_round(0.3, 0.7, 0.2, 0.0)
    assert price == 1.0 and q == 1.0 and accepted
    # a worthless arrival is not bought, not even at scale 0
    price, q, accepted = priced_round(0.0, 0.7, 0.2, 0.0)
    assert price == 0.0 and q == 0.0 and not accepted


def test_priced_rounds_match_priced_round_bitwise(rng):
    for trial in range(400):
        n = int(rng.integers(1, 40))
        delta = np.where(rng.random(n) < 0.3, 0.0, rng.random(n))
        cost = np.where(rng.random(n) < 0.3, 0.0, rng.random(n))
        u = rng.random(n)
        if trial % 2:  # one scale per round, some of them zero
            scale = np.where(rng.random(n) < 0.2, 0.0, 5.0 * rng.random(n))
        else:
            scale = float(rng.choice([0.0, 0.5, 3.0, 50.0]))
        price, q, accepted = priced_rounds(delta, cost, u, scale)
        scales = np.broadcast_to(scale, (n,))
        for i in range(n):
            expected = priced_round(float(delta[i]), float(cost[i]), float(u[i]), float(scales[i]))
            assert (price[i], q[i], accepted[i]) == expected
            assert not np.signbit(price[i]) and not np.signbit(q[i])  # no -0.0 in the CSV


def test_adapted_scales_match_adapted_scale():
    inst = CoinSpec(1000, 0.1).build(1)
    cfg = MechanismConfig(budget=50.0, price_scale=AdaptiveScale(), learning_rate=FixedRate(0.1))
    mech = Mechanism(cfg, inst)
    states = ((0.0, 0.0), (3.7, 12.5), (900.0, 3.0), (2.0, 50.0))
    for estimate_total, spend in states:
        mech.estimate_total, mech.spend = estimate_total, spend
        for start, stop in ((0, 1), (0, 40), (1, 2), (13, 400), (990, 1000)):
            expected = [mech.adapted_scale(r) for r in range(start, stop)]
            scales = mech.adapted_scales(np.arange(start, stop), estimate_total, spend)
            assert scales.tolist() == expected
    # one state per round, as a run's settle pass prices every round
    rounds = np.arange(len(states) * 250)
    estimate_total, spend = (np.repeat(column, 250) for column in zip(*states))
    expected = []
    for r, mech.estimate_total, mech.spend in zip(rounds.tolist(), estimate_total, spend):
        expected.append(mech.adapted_scale(r))
    assert mech.adapted_scales(rounds, estimate_total, spend).tolist() == expected


@pytest.mark.parametrize("payment_mode", ["posted-price", "at-cost"])
def test_pay_never_lowers_a_later_adaptive_scale(payment_mode):
    # a tracked run's list of the rounds it could buy stays a superset after
    # a purchase only because a purchase never lowers the scale of a round
    # to come; the walk adds each purchase's ledger entry to the running
    # spend and estimate, as here
    rng = np.random.default_rng(4)
    inst = LinearTaskSpec(
        T=400, cost_model=UniformCost(), dim=3, clusters=2, separation=0.6, T_test=10
    ).build(4)
    cfg = MechanismConfig(
        budget=5.0,
        payment_mode=payment_mode,
        price_scale=AdaptiveScale(),
        learning_rate=FixedRate(0.1),
    )
    mech = Mechanism(cfg, inst)
    rounds = np.arange(inst.horizon)
    for t in range(0, inst.horizon, 3):
        before = mech.adapted_scales(rounds, mech.estimate_total, mech.spend)
        d, cost, q = float(rng.random()), float(inst.costs[t]), float(rng.uniform(1e-3, 1.0))
        price = float(rng.uniform(cost, 1.0))
        payment, term = ledger_entry(d, cost, price, q, payment_mode == "at-cost", math.sqrt)
        mech.spend += payment
        mech.estimate_total += term
        after = mech.adapted_scales(rounds, mech.estimate_total, mech.spend)
        assert np.all(after[t + 1:] >= before[t + 1:])
        assert all(mech.adapted_scale(r) >= s for r, s in zip(range(t + 1, inst.horizon), before[t + 1:]))
    assert mech.spend > cfg.budget  # the floor of the budget left was reached


def test_priced_round_acceptance_rate_matches_q():
    rng = np.random.default_rng(1)
    for dlt, scale, cost in ((0.6, 2.0, 0.49), (0.9, 1.5, 0.25), (0.3, 4.0, 0.04)):
        hits = 0
        n = 10_000
        q_expected = survival(dlt, scale, cost)
        for u in rng.random(n):
            _, q, accepted = priced_round(dlt, cost, float(u), scale)
            assert q == q_expected
            hits += accepted
        assert hits / n == pytest.approx(q_expected, abs=0.01)


# ---------------------------------------------------------------------------
# full runs: ledger consistency
# ---------------------------------------------------------------------------


def _coin_mech(T=400, budget=40.0, seed=3, **overrides):
    inst = CoinSpec(T, 0.1).build(seed)
    defaults = dict(
        budget=budget,
        payment_mode="posted-price",
        purchase_policy="priced",
        price_scale=PriorKnowledge(avg_value_cost=1.0, avg_value=1.0),
        learning_rate=TheoryRate(),
    )
    defaults.update(overrides)
    cfg = MechanismConfig(**defaults)
    mech = Mechanism(cfg, inst)
    mech.run(np.random.default_rng(seed + 1))
    return inst, mech


def test_transcript_consistency():
    _, mech = _coin_mech()
    tr = mech.transcript
    running = 0.0
    for t in range(len(tr)):
        assert tr.accepted[t] == (tr.price[t] >= tr.cost[t] and tr.q[t] > 0.0)
        if tr.accepted[t]:
            assert tr.payment[t] == tr.price[t]  # posted-price mode
        else:
            assert tr.payment[t] == 0.0
        running += tr.payment[t]
        assert tr.cum_spend[t] == pytest.approx(running, abs=1e-12)
    assert mech.spend == pytest.approx(running)
    assert mech.purchases == sum(mech.transcript.accepted)
    assert mech.purchases <= len(mech.transcript)


@pytest.mark.parametrize("kind", ["coin", "linear"])
def test_transcript_columns_are_read_only(kind):
    if kind == "coin":
        inst, mech = _coin_mech()
    else:
        inst = LinearTaskSpec(
            T=200, cost_model=UniformCost(), dim=3, clusters=2, separation=0.6, T_test=10
        ).build(5)
        cfg = MechanismConfig(budget=10.0, price_scale=FixedScale(3.0), learning_rate=FixedRate(0.1))
        mech = Mechanism(cfg, inst).run(np.random.default_rng(1))
    costs = inst.costs.tobytes()
    tr = mech.transcript
    for column in tr.COLUMNS[1:]:
        with pytest.raises(ValueError, match="read-only"):
            getattr(tr, column)[0] = 0.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        tr.cost = np.zeros(len(tr))
    assert inst.costs.tobytes() == costs
    assert inst.costs.flags.writeable  # the run leaves the instance's arrays alone


def test_at_cost_never_pays_above_posted_price():
    inst = LinearTaskSpec(
        T=600, cost_model=UniformCost(), dim=3, clusters=2, separation=0.6, T_test=10
    ).build(5)
    runs = {}
    for mode in ("posted-price", "at-cost"):
        cfg = MechanismConfig(
            budget=30.0,
            payment_mode=mode,
            price_scale=FixedScale(3.0),
            learning_rate=FixedRate(0.1),
        )
        runs[mode] = Mechanism(cfg, inst).run(np.random.default_rng(42)).transcript
    posted, atcost = runs["posted-price"], runs["at-cost"]
    both = 0
    for t in range(len(posted)):
        if posted.accepted[t] and atcost.accepted[t]:
            both += 1
            assert atcost.payment[t] <= posted.payment[t] + 1e-12
    assert both > 0


def test_expected_budget_compliance_small():
    # 30 seeded trials of the padded-coin setting; mean spend within 5% of B
    T, budget = 2000, 60.0
    knowledge = PriorKnowledge(avg_value_cost=0.3, avg_value=0.3)
    spends = []
    for seed in range(30):
        inst = CoinSpec(T, 0.1, coin_fraction=0.3).build(seed)
        cfg = MechanismConfig(
            budget=budget,
            price_scale=knowledge,
            learning_rate=TheoryRate(),
        )
        mech = Mechanism(cfg, inst).run(
            np.random.default_rng(1000 + seed)
        )
        spends.append(mech.spend)
    assert np.mean(spends) <= 1.05 * budget


def test_losses_accrue_regardless_of_purchase():
    inst, mech = _coin_mech(T=200, budget=5.0)
    # every round has a recorded loss even though few are purchased
    assert len(mech.transcript) == 200
    assert mech.purchases < 200
    assert all(l >= 0.0 for l in mech.transcript.loss)
    assert mech.loss_total == pytest.approx(sum(mech.transcript.loss))


def test_naive_counting():
    inst = CoinSpec(50, 0.1).build(9)
    cfg = MechanismConfig(
        budget=5.0, purchase_policy="naive", learning_rate=FixedRate(0.2)
    )
    mech = Mechanism(cfg, inst).run(np.random.default_rng(0))
    payments = np.array(mech.transcript.payment)
    accepted = np.array(mech.transcript.accepted)
    assert accepted[:5].all() and not accepted[5:].any()
    np.testing.assert_array_equal(payments[:5], 1.0)
    assert mech.spend == 5.0


def test_naive_fractional_budget_floors_to_price_multiples():
    inst = CoinSpec(50, 0.1).build(9)
    cfg = MechanismConfig(
        budget=5.5, purchase_policy="naive", learning_rate=FixedRate(0.2)
    )
    mech = Mechanism(cfg, inst).run(np.random.default_rng(0))
    assert mech.spend == 5.0


def test_naive_keeps_collecting_free_arrivals():
    inst = CoinSpec(100, 0.1, coin_fraction=0.5).build(2)
    # reorder: coins (cost 1) first, filler (cost 0) afterwards
    inst.outcomes = inst.outcomes[::-1].copy()
    inst.costs = inst.costs[::-1].copy()
    cfg = MechanismConfig(budget=3.0, purchase_policy="naive", learning_rate=FixedRate(0.2))
    mech = Mechanism(cfg, inst).run(np.random.default_rng(0))
    accepted = np.array(mech.transcript.accepted)
    assert accepted[:3].all() and not accepted[3:50].any()
    assert accepted[50:].all()  # price 0 still collects free data
    assert mech.spend == 3.0


def test_baseline_pays_nothing_and_sees_everything():
    inst, mech = _coin_mech(purchase_policy="baseline")
    assert mech.spend == 0.0
    assert mech.purchases == inst.horizon
    assert all(q == 1.0 for q in mech.transcript.q)
    assert all(p == 0.0 for p in mech.transcript.payment)


def test_hard_stop_freezes_spending_not_losses():
    inst = CoinSpec(400, 0.1).build(21)
    cfg = MechanismConfig(
        budget=5.0,
        price_scale=FixedScale(1.0),  # q = 1 at unit costs: buys eagerly
        learning_rate=FixedRate(0.2),
        hard_stop=True,
    )
    mech = Mechanism(cfg, inst).run(np.random.default_rng(3))
    assert mech.spend <= 5.0 + 1.0  # at most one purchase past the line
    assert len(mech.transcript) == 400
    stopped = [t for t in range(400) if mech.transcript.cum_spend[t] >= 5.0]
    after = stopped[0] + 1
    assert not any(mech.transcript.accepted[after:])
    assert all(l > 0.0 for l in mech.transcript.loss[after:])


# ---------------------------------------------------------------------------
# adaptive scale
# ---------------------------------------------------------------------------


def test_adaptive_starts_at_zero():
    inst = CoinSpec(10, 0.1).build(1)
    cfg = MechanismConfig(budget=5.0, price_scale=AdaptiveScale(), learning_rate=FixedRate(0.1))
    mech = Mechanism(cfg, inst)
    assert mech.price_scale == 0.0


def test_adaptive_update_rule():
    inst = CoinSpec(1000, 0.1).build(1)
    cfg = MechanismConfig(budget=50.0, price_scale=AdaptiveScale(), learning_rate=FixedRate(0.1))
    mech = Mechanism(cfg, inst)
    mech.estimate_total = 0.3 * 500  # estimate 0.3 at round 500
    mech.spend = 0.0
    assert mech.adapted_scale(500) == pytest.approx(0.3 * 500 / 50.0)
    assert mech.adapted_scale(0) == 0.0  # no estimate before the first round

    mech.spend = 50.0  # budget exhausted: the scale caps out
    assert mech.adapted_scale(500) == SCALE_CAP


def test_value_cost_estimate_examples():
    inst = CoinSpec(10, 0.1).build(1)
    cfg = MechanismConfig(budget=5.0, price_scale=AdaptiveScale(), learning_rate=FixedRate(0.1))
    mech = Mechanism(cfg, inst)
    assert mech.value_cost_estimate() == 0.0  # no rounds yet

    mech.rounds_done = 1
    mech.estimate_total = 1.0 * math.sqrt(0.25) / 0.5  # one purchase, q = 0.5
    assert mech.value_cost_estimate() == 1.0  # clipped

    mech.rounds_done = 4
    assert mech.value_cost_estimate() == pytest.approx(0.25)


def test_adaptive_estimate_unweighted_when_q_is_one():
    inst = LinearTaskSpec(
        T=300, cost_model=UniformCost(0.25, 0.25), dim=3, clusters=2, separation=0.6, T_test=10
    ).build(11)
    cfg = MechanismConfig(
        budget=1000.0, price_scale=FixedScale(0.0), learning_rate=FixedRate(0.1)
    )
    mech = Mechanism(cfg, inst).run(np.random.default_rng(5))
    # every round with delta > 0 accepted at q=1 (the others add nothing):
    # the estimate is the plain running mean
    deltas = np.array(mech.transcript.delta)
    expected = float(np.mean(deltas * np.sqrt(0.25)))
    assert mech.value_cost_estimate() == pytest.approx(min(1.0, expected))


# ---------------------------------------------------------------------------
# finalize and state protocol
# ---------------------------------------------------------------------------


def test_finalize_is_hypothesis_average():
    inst = CoinSpec(30, 0.1).build(2)
    cfg = MechanismConfig(budget=5.0, price_scale=FixedScale(2.0), learning_rate=FixedRate(0.3))
    mech = Mechanism(cfg, inst).run(np.random.default_rng(1))
    final = mech.finalize()
    np.testing.assert_allclose(final.coords, posted_hypotheses(mech).mean(axis=0), atol=1e-12)
    assert final.coords.min() >= 0.0
    assert float(final.coords.sum()) == pytest.approx(1.0)


def test_premature_finalize_and_rerun_rejected():
    inst = CoinSpec(10, 0.1).build(2)
    cfg = MechanismConfig(budget=5.0, learning_rate=FixedRate(0.1))
    mech = Mechanism(cfg, inst)
    with pytest.raises(MechanismStateError):
        mech.finalize()
    mech.run(np.random.default_rng(0))
    with pytest.raises(MechanismStateError):
        mech.run(np.random.default_rng(0))


def test_config_validation():
    inst = CoinSpec(10, 0.1).build(2)
    with pytest.raises(InvalidConfigError):
        MechanismConfig(budget=0.0)
    with pytest.raises(InvalidConfigError):
        MechanismConfig(budget=1.0, payment_mode="gratis")
    with pytest.raises(InvalidConfigError):
        MechanismConfig(budget=1.0, purchase_policy="greedy")
    # a NaN scale would buy at price 1 one by one and never in windows
    for bad_scale in (-1.0, math.nan, math.inf):
        with pytest.raises(InvalidConfigError):
            FixedScale(bad_scale)
    assert math.copysign(1.0, FixedScale(-0.0).value) == 1.0  # the windows divide by it


@pytest.mark.parametrize("field", ["budget"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 0.0])
def test_budget_and_c_max_must_be_positive_and_finite(field, bad):
    # an infinite budget reached the price scale as 0; c_max, the largest
    # cost, is now the unit of money and no longer a field
    with pytest.raises(InvalidConfigError, match=f"^{field}.*must be positive and finite"):
        MechanismConfig(**{"budget": 1.0, field: bad})


@pytest.mark.parametrize("bad_cost", [math.nan, -0.5, math.inf])
def test_costs_must_be_finite_and_within_range(bad_cost):
    # NaN used to run silently to avg_value_cost = nan, and -0.5 to die
    # mid-run in math.sqrt; the instance refuses them when it is built
    inst = CoinSpec(50, 0.1).build(2)
    costs = inst.costs.copy()
    costs[17] = bad_cost
    with pytest.raises(InvalidConfigError, match=r"costs must lie in \[0, 1\]"):
        dataclasses.replace(inst, costs=costs)


def test_run_determinism():
    a = _coin_mech(seed=7)[1]
    b = _coin_mech(seed=7)[1]
    assert a.transcript.price.tolist() == b.transcript.price.tolist()
    assert a.transcript.accepted.tolist() == b.transcript.accepted.tolist()
    assert a.spend == b.spend


def test_averaged_hypothesis_jensen_inequality():
    inst = LinearTaskSpec(
        T=400, cost_model=UniformCost(), dim=3, clusters=2, separation=0.6, T_test=200
    ).build(23)
    cfg = MechanismConfig(budget=20.0, price_scale=AdaptiveScale(), learning_rate=FixedRate(0.15))
    mech = Mechanism(cfg, inst).run(np.random.default_rng(6))
    final = mech.finalize()
    avg = risk(inst, final, "surrogate")
    per_round = mean_round_risk(posted_hypotheses(mech), inst.test_features, inst.test_labels)
    assert avg <= per_round + 1e-12
