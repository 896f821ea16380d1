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
    MIN_BUDGET,
    Mechanism,
    MechanismConfig,
    MechanismStateError,
    PriorKnowledge,
    SCALE_CAP,
    TheoryRate,
    burn_rate,
    choose_price_scale,
    ledger_entry,
)
from procure_learn.metrics import risk
from procure_learn.pricing import expected_payment, priced_round, priced_rounds, survival

from oracles import mean_round_risk, posted_hypotheses


# ---------------------------------------------------------------------------
# scale selection
# ---------------------------------------------------------------------------


def test_choose_scale_at_cost():
    assert choose_price_scale(
        PriorKnowledge(avg_value_cost=0.3), 1000, 100, "at-cost"
    ) == pytest.approx(3.0)
    # at cost only avg_value_cost is read
    assert choose_price_scale(
        PriorKnowledge(avg_value_cost=0.3, avg_value=0.5), 1000, 100, "at-cost"
    ) == choose_price_scale(PriorKnowledge(avg_value_cost=0.3), 1000, 100, "at-cost")
    # the deleted avg_sqrt_cost s and avg_cost c gave the scales of
    # avg_value_cost s and sqrt(c)
    assert choose_price_scale(
        PriorKnowledge(avg_value_cost=0.5), 1000, 100, "at-cost"
    ) == pytest.approx(5.0)  # avg_sqrt_cost 0.5
    assert choose_price_scale(
        PriorKnowledge(avg_value_cost=math.sqrt(0.25)), 1000, 100, "at-cost"
    ) == pytest.approx(5.0)  # avg_cost 0.25


def test_choose_scale_posted_price():
    both = PriorKnowledge(avg_value_cost=0.3, avg_value=0.5)
    assert choose_price_scale(both, 1000, 100, "posted-price") == pytest.approx(7.0)
    # avg_value defaults to its bound 1
    assert choose_price_scale(
        PriorKnowledge(avg_value_cost=0.3), 1000, 100, "posted-price"
    ) == pytest.approx(17.0)
    # the deleted avg_sqrt_cost 0.6 and avg_cost 0.5 each gave 2 T / B,
    # the scale of avg_value_cost 0
    assert choose_price_scale(
        PriorKnowledge(avg_value_cost=0.0), 1000, 100, "posted-price"
    ) == pytest.approx(20.0)


def test_choose_scale_vanishes_for_huge_budgets():
    k = choose_price_scale(
        PriorKnowledge(avg_value_cost=0.3, avg_value=0.5), 1000, 1e9, "posted-price"
    )
    assert 0.0 < k < 1e-3  # buy-everything limit


def test_choose_scale_validation():
    with pytest.raises(InvalidConfigError):
        choose_price_scale(PriorKnowledge(avg_value_cost=0.3), 1000, 0.0, "at-cost")
    for bad in (
        {"avg_value_cost": 1.2},
        {"avg_value_cost": math.nan},
        {"avg_value_cost": 0.3, "avg_value": -0.1},
    ):
        with pytest.raises(InvalidConfigError, match="must lie in \\[0, 1\\]"):
            PriorKnowledge(**bad)
    # delta * sqrt(cost) <= delta on every round, so no sequence has
    # avg_value_cost above avg_value; 0.55 over 0.3 used to give a scale 6x
    # too small, and the shipped padded coin spent 6 budgets
    with pytest.raises(
        InvalidConfigError, match="^avg_value_cost 0.55 exceeds avg_value 0.3; "
    ):
        PriorKnowledge(avg_value_cost=0.55, avg_value=0.3)
    PriorKnowledge(avg_value_cost=0.3, avg_value=0.3)  # the bound itself is a sequence


@pytest.mark.parametrize(
    "payment_mode, knowledge, statistic",
    [
        ("at-cost", {"avg_value_cost": 0.0}, "avg_value_cost"),
        # at cost avg_value cannot make up for a zero avg_value_cost
        ("at-cost", {"avg_value_cost": 0.0, "avg_value": 0.5}, "avg_value_cost"),
        ("posted-price", {"avg_value_cost": 0.0, "avg_value": 0.0}, "avg_value"),
        # refused when built: no sequence has it
        ("posted-price", {"avg_value_cost": 0.3, "avg_value": 0.1}, "avg_value"),
    ],
)
def test_choose_scale_refuses_knowledge_giving_zero_scale(payment_mode, knowledge, statistic):
    # a zero scale would buy every arrival at price 1, whatever the budget
    with pytest.raises(InvalidConfigError, match=statistic):
        choose_price_scale(PriorKnowledge(**knowledge), 1000, 100, payment_mode)
    # the config refuses it, before any run
    with pytest.raises(InvalidConfigError, match=statistic):
        MechanismConfig(budget=5.0, payment_mode=payment_mode, price_scale=PriorKnowledge(**knowledge))


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


def test_burn_rate_scalar_and_array_forms_agree():
    # the tracked walk takes one round's scale with min and max; a list
    # takes a range of rounds at one state, and the transcript every round
    # at its own state, with np.minimum and np.maximum
    rng = np.random.default_rng(6)
    T, budget = 1000, 50.0

    def one_at_a_time(rounds, estimate_total, spend):
        states = zip(*(a.tolist() for a in np.broadcast_arrays(rounds, estimate_total, spend)))
        return [burn_rate(t, T, budget, e, s, min, max) for t, e, s in states]

    states = [(0.0, 0.0), (3.7, 12.5), (900.0, 3.0), (2.0, budget), (2.0, budget + 7.0)]
    for estimate_total, spend in states:
        for start, stop in ((0, 1), (0, 40), (1, 2), (13, 400), (990, 1000)):
            rounds = np.arange(start, stop)
            scales = burn_rate(rounds, T, budget, estimate_total, spend, np.minimum, np.maximum)
            assert scales.tolist() == one_at_a_time(rounds, estimate_total, spend)
    # drawn states, one per round: the total is 0 before round 0, and the
    # spend is below, at or past the budget, where the floor holds
    rounds = np.concatenate(([0, 0, 1, T - 1], rng.integers(0, T, 4000)))
    estimate_total = rng.uniform(0.0, 1.2, len(rounds)) * rounds
    spend = budget * rng.choice([0.0, 0.3, 0.999, 1.0, 1.5], len(rounds)) * rng.random(len(rounds))
    spend[: len(rounds) // 4] = budget * rng.choice([1.0, 2.0], len(rounds) // 4)
    scales = burn_rate(rounds, T, budget, estimate_total, spend, np.minimum, np.maximum)
    assert scales.tolist() == one_at_a_time(rounds, estimate_total, spend)
    assert not np.signbit(scales).any() and scales[:2].tolist() == [0.0, 0.0]
    floored = (spend >= budget) & (scales < SCALE_CAP) & (scales > 0.0)
    assert floored.any() and (scales == SCALE_CAP).any() and (scales < SCALE_CAP).any()


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
    T, rounds = inst.horizon, np.arange(inst.horizon)
    spend = estimate_total = 0.0
    for t in range(0, T, 3):
        before = burn_rate(rounds, T, cfg.budget, estimate_total, spend, np.minimum, np.maximum)
        d, cost, q = float(rng.random()), float(inst.costs[t]), float(rng.uniform(1e-3, 1.0))
        price = float(rng.uniform(cost, 1.0))
        payment, term = ledger_entry(d, cost, price, q, payment_mode == "at-cost", math.sqrt, max)
        spend += payment
        estimate_total += term
        after = burn_rate(rounds, T, cfg.budget, estimate_total, spend, np.minimum, np.maximum)
        assert np.all(after[t + 1:] >= before[t + 1:])
        later = range(t + 1, T)
        assert all(
            burn_rate(r, T, cfg.budget, estimate_total, spend, min, max) >= s
            for r, s in zip(later, before[t + 1:])
        )
    assert spend > cfg.budget  # the floor of the budget left was reached


def test_ledger_entry_terms_and_their_floor():
    # at cost the estimate term is delta * sqrt(cost) / q; under posted-price
    # it is floored at delta / (2 q), which is never below a quarter of the
    # round's scaled expected payment (at most 2 * delta), so free purchases
    # raise the adaptive scale too. The scalar and array forms share bits.
    rng = np.random.default_rng(8)
    costs = np.concatenate([[0.0, 0.25, 1.0, np.nextafter(0.25, 0)], rng.random(200)])
    deltas, qs, prices = rng.random(len(costs)), rng.uniform(1e-3, 1.0, len(costs)), rng.random(len(costs))
    for at_cost in (True, False):
        paid, terms = ledger_entry(deltas, costs, prices, qs, at_cost, np.sqrt, np.maximum)
        for d, c, p, q, pay, term in zip(deltas, costs, prices, qs, paid, terms):
            statistic = math.sqrt(c) if at_cost else max(math.sqrt(c), 0.5)
            assert (pay, term) == ((c if at_cost else p), d * statistic / q)
            assert ledger_entry(float(d), float(c), float(p), float(q), at_cost, math.sqrt, max) == (pay, term)
    for d, c in zip(deltas, costs):
        for scale in (0.0, 0.3, 1.0, 5.0, 40.0):
            scaled = scale * expected_payment(float(d), scale, float(c))
            assert d * max(math.sqrt(c), 0.5) >= scaled / 4


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
    T, budget = 1000, 50.0
    estimate_total = 0.3 * 500  # estimate 0.3 at round 500
    scale = burn_rate(500, T, budget, estimate_total, 0.0, min, max)
    assert scale == pytest.approx(0.3 * 500 / 50.0)
    assert burn_rate(0, T, budget, 0.0, 0.0, min, max) == 0.0  # nothing is bought before round 0
    # budget exhausted: the scale caps out
    assert burn_rate(500, T, budget, estimate_total, budget, min, max) == SCALE_CAP


def test_burn_rate_estimate_examples():
    # with as many rounds left as budget, and nothing spent, the scale is
    # the estimate: the mean term of the rounds before t, clipped to [0, 1]
    def estimate(t, estimate_total):
        return burn_rate(t, t + 5, 5.0, estimate_total, 0.0, min, max)

    assert estimate(0, 0.0) == 0.0  # no rounds yet
    one_purchase = 1.0 * math.sqrt(0.25) / 0.25  # delta 1, cost 1/4, q = 1/4
    assert estimate(1, one_purchase) == 1.0  # 2, clipped
    assert estimate(4, one_purchase) == pytest.approx(0.5)
    assert estimate(8, 1.0) == pytest.approx(0.125)


def test_adaptive_estimate_unweighted_when_q_is_one():
    inst = LinearTaskSpec(
        T=300, cost_model=UniformCost(0.25, 0.25), dim=3, clusters=2, separation=0.6, T_test=10
    ).build(11)
    cfg = MechanismConfig(
        budget=1000.0, price_scale=FixedScale(0.0), learning_rate=FixedRate(0.1)
    )
    mech = Mechanism(cfg, inst).run(np.random.default_rng(5))
    # every round with delta > 0 accepted at q=1 (the others add nothing):
    # the estimate total is the plain sum
    deltas = np.array(mech.transcript.delta)
    assert mech.estimate_total == pytest.approx(float(np.sum(deltas * np.sqrt(0.25))))


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
def test_budget_must_be_positive_and_finite(field, bad):
    # an infinite budget reached the price scale as 0; c_max, the largest
    # cost, is now the unit of money and no longer a field
    with pytest.raises(InvalidConfigError, match=f"^{field}.*must be positive and finite"):
        MechanismConfig(**{"budget": 1.0, field: bad})


@pytest.mark.parametrize("hard_stop", [False, True])
@pytest.mark.parametrize("payment_mode", ["posted-price", "at-cost"])
def test_adaptive_run_at_the_smallest_budget_is_clean(payment_mode, hard_stop):
    # 1e-6 of a budget of 1e-320 underflowed to 0, and the walk's first
    # purchase divided by it; at 1e-310 the listed scales overflowed. Both
    # are refused now, and a run at the smallest budget accepted pays its
    # first purchase, then lists and prices every round at the capped scale
    # with no warning (tier-1 makes a RuntimeWarning an error)
    for tiny in (1e-320, 1e-310, float(np.nextafter(MIN_BUDGET, 0.0))):
        message = f"^budget {tiny} is below the smallest budget 1e-100$"
        with pytest.raises(InvalidConfigError, match=message):
            MechanismConfig(budget=tiny)
    inst = LinearTaskSpec(T=200, cost_model=UniformCost(), dim=3, T_test=0).build(3)
    cfg = MechanismConfig(
        budget=MIN_BUDGET,
        payment_mode=payment_mode,
        price_scale=AdaptiveScale(),
        learning_rate=TheoryRate(),
        hard_stop=hard_stop,
    )
    mech = Mechanism(cfg, inst).run(np.random.default_rng(3))
    transcript = mech.transcript
    assert mech.purchases >= 1 and mech.spend > cfg.budget
    assert np.isfinite(transcript.price).all() and np.isfinite(transcript.cum_spend).all()


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
