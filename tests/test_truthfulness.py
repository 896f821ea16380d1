"""Agents cannot fabricate data, but may lie about their cost.

A posted price is drawn from the round's uniform, its delta and the state
before the round: it never reads the reported cost, and a bought round pays
that price. So a report moves nothing before its round nor the round's own
price, and no report gains an agent more than the truth. At cost the
mechanism pays the reported cost, and an agent whose price exceeds its cost
gains by overstating it: at-cost models costs that are not strategic."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from procure_learn.environment import CoinSpec, LinearTaskSpec, UniformCost
from procure_learn.mechanism import (
    AdaptiveScale,
    FixedRate,
    FixedScale,
    Mechanism,
    MechanismConfig,
    PriorKnowledge,
    Transcript,
)


def _with_cost(instance, t, cost):
    """``instance`` with the cost of round ``t`` replaced by ``cost``."""
    costs = instance.costs.copy()
    costs[t] = cost
    return dataclasses.replace(instance, costs=costs)


def _utility(transcript, t, true_cost):
    """What the agent of round ``t`` gains: its payment less its true cost
    if the round was bought, else nothing."""
    return float(transcript.accepted[t]) * (float(transcript.payment[t]) - true_cost)


def _run(config, instance, seed) -> Transcript:
    return Mechanism(config, instance).run(np.random.default_rng(seed)).transcript


@st.composite
def posted_price_runs(draw, visited):
    """A posted-price run and a misreport (round, report in [0, 1]) over
    every instance kind, policy, scale policy and hard stop. ``visited``
    draws the runs that visit rounds one at a time (priced, with an adaptive
    scale or a hard stop); the others decide every list whole."""
    T = draw(st.integers(1, 200))
    seed = draw(st.integers(0, 2**16))
    kind = draw(st.sampled_from(["coin", "padded-coin", "linear"]))
    if kind == "coin":
        instance = CoinSpec(T, 0.15).build(seed)
    elif kind == "padded-coin":
        instance = CoinSpec(T, 0.1, coin_fraction=draw(st.floats(0.05, 1.0))).build(seed)
    else:
        instance = LinearTaskSpec(
            T=T, cost_model=UniformCost(), dim=3, clusters=2, separation=0.6, T_test=5, noise=0.2
        ).build(seed)
    fixed = st.one_of(
        st.floats(0.0, 50.0).map(FixedScale),
        st.floats(0.05, 1.0).map(lambda v: PriorKnowledge(avg_value_cost=v)),
    )
    if visited:
        policy = "priced"
        scale = draw(st.one_of(st.just(AdaptiveScale()), fixed))
        hard_stop = draw(st.booleans()) if isinstance(scale, AdaptiveScale) else True
    else:
        policy = draw(st.sampled_from(["priced", "naive", "baseline"]))
        flat = policy != "priced"  # naive and baseline read no scale and no stop mid-run
        scale = draw(st.one_of(st.just(AdaptiveScale()), fixed) if flat else fixed)
        hard_stop = draw(st.booleans()) if flat else False
    config = MechanismConfig(
        budget=draw(st.floats(0.5, 30.0)),
        purchase_policy=policy,
        price_scale=scale,
        learning_rate=FixedRate(draw(st.floats(0.01, 1.0))),
        hard_stop=hard_stop,
    )
    t = draw(st.integers(0, T - 1))
    report = draw(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0])))
    return instance, config, seed, t, report


@pytest.mark.parametrize("visited", [False, True], ids=["decided-whole", "visited"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_posted_price_misreport_moves_no_earlier_round_and_gains_nothing(visited, data):
    instance, config, seed, t, report = data.draw(posted_price_runs(visited))
    truthful = _run(config, instance, seed)
    lied = _run(config, _with_cost(instance, t, report), seed)
    for name in Transcript.COLUMNS[1:]:
        assert getattr(lied, name)[:t].tobytes() == getattr(truthful, name)[:t].tobytes(), name
    assert lied.price[t] == truthful.price[t]
    true_cost = float(instance.costs[t])
    assert _utility(lied, t, true_cost) <= _utility(truthful, t, true_cost)


def test_at_cost_agent_profits_by_overstating_its_cost():
    # a round bought below its price: reporting halfway between the cost and
    # the price keeps the round bought and is paid, which the truth is not
    instance = LinearTaskSpec(T=300, cost_model=UniformCost(), dim=3, T_test=5).build(3)
    config = MechanismConfig(
        budget=10.0, payment_mode="at-cost", price_scale=FixedScale(2.0), learning_rate=FixedRate(0.2)
    )
    truthful = _run(config, instance, 3)
    t = int(np.flatnonzero(truthful.accepted & (truthful.price > truthful.cost))[0])
    true_cost, price = float(instance.costs[t]), float(truthful.price[t])
    report = (true_cost + price) / 2
    lied = _run(config, _with_cost(instance, t, report), 3)
    assert (t, true_cost < report < price) == (2, True)
    assert lied.accepted[t] and lied.payment[t] == report
    assert _utility(truthful, t, true_cost) == 0.0
    assert _utility(lied, t, true_cost) == report - true_cost > 0.0
