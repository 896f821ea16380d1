"""The optimized run loop must match a plain reference loop bitwise.

The reference below reads the instance's columns (costs, labels, features,
feature norms, outcomes) itself and computes each round's loss, delta and
gradient in plain Python, then decides the round with the public price law
(sample_price / survival) and feeds each purchase to ``oracles.LazyFtrl``,
with no shortcuts. It calls neither the instance's row kernels nor the
package's learner, so any drift in those or in the production loop's fast
paths shows up as a transcript or end state mismatch."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from procure_learn import mechanism
from procure_learn.core import l2_ball, simplex
from procure_learn.environment import (
    CoinSpec,
    LinearTaskSpec,
    ProblemInstance,
    TwoPointCost,
    UniformCost,
)
from procure_learn.ftrl import FtrlLearner
from procure_learn.mechanism import (
    AdaptiveScale,
    FixedRate,
    FixedScale,
    Mechanism,
    MechanismConfig,
    PriorKnowledge,
    SCALE_CAP,
    TheoryRate,
)
from procure_learn.pricing import sample_price, survival

from oracles import LazyFtrl


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
    x, y = instance.features[t], int(instance.labels[t])
    m = y * float((x * w).sum())
    value = 1.0 - m if m < 1.0 else 0.0
    slope = -1.0 if m < 1.0 else 0.0
    return value, abs(slope) * float(instance.feature_norms[t]), (slope * y) * x


def reference_run(config, instance, rng):
    """Contract-level re-implementation of one full mechanism run."""
    setup = Mechanism(config, instance)  # reuse scale / learning-rate selection
    scale = setup.price_scale
    learner = LazyFtrl(instance.space, setup.learner.learning_rate)
    T = instance.horizon
    budget = config.budget
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
                price, q = 1.0, 1.0
            else:
                price = sample_price(value, scale, uniforms[t])
                q = survival(value, scale, cost)
            accepted = q > 0.0 and price >= cost
        elif config.purchase_policy == "naive":
            price = 1.0 if spend + 1.0 <= budget else 0.0
            accepted = price >= cost
            q = 1.0 if accepted else 0.0
        else:
            price, q, accepted = 1.0, 1.0, True

        if accepted:
            payment = 0.0 if config.purchase_policy == "baseline" else (
                cost if at_cost else price
            )
            learner.feed(gradient, q, value)
            spend += payment
            estimate_sum += value * math.sqrt(cost) / q
        else:
            payment = 0.0

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
    learner = LazyFtrl(instance.space, setup.learner.learning_rate)
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
            learner.feed(reference_row(instance, w, t)[2], q, value)
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
    "coin-1": lambda: CoinSpec(1, 0.15).build(42),
    "padded-coin-1": lambda: CoinSpec(1, 0.1, coin_fraction=0.3).build(42),
    "linear-1": lambda: LinearTaskSpec(
        T=1, cost_model=UniformCost(), dim=3, clusters=2, separation=0.6, T_test=5
    ).build(42),
    "coin": lambda: CoinSpec(150, 0.15).build(42),
    "linear": lambda: LinearTaskSpec(
        T=150, cost_model=UniformCost(), dim=3, clusters=2, separation=0.6, T_test=20
    ).build(42),
    "coin-3000": lambda: CoinSpec(3000, 0.15).build(42),
    "padded-coin-3000": lambda: CoinSpec(3000, 0.1, coin_fraction=0.3).build(42),
    "vertex-d7": lambda: _vertex_d7(42),
    "linear-d32-uniform": lambda: LinearTaskSpec(
        T=3000, cost_model=UniformCost(), dim=32, clusters=2, separation=0.35, T_test=10,
        noise=0.2
    ).build(42),
    "linear-d24-correlated": lambda: LinearTaskSpec(
        T=3000, cost_model=TwoPointCost(0.2, 1.0, (0, 4)), dim=24, clusters=4, separation=0.8,
        T_test=10, noise=0.14
    ).build(42),
}

CONFIGS = [
    MechanismConfig(budget=12.0, price_scale=FixedScale(2.0), learning_rate=FixedRate(0.2)),
    MechanismConfig(
        budget=8.0,
        payment_mode="at-cost",
        price_scale=PriorKnowledge(avg_value_cost=1.0),
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
        price_scale=PriorKnowledge(avg_value_cost=0.25),
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
    instance = LinearTaskSpec(
        T=8000, cost_model=UniformCost(), dim=32, clusters=2, separation=0.35, T_test=10,
        noise=0.2
    ).build(42)
    config = SWEEP_CONFIGS[name]
    expected = reference_run(config, instance, np.random.default_rng(9))
    mech = Mechanism(config, instance).run(np.random.default_rng(9))
    columns = [getattr(mech.transcript, column).tolist() for column in mech.transcript.COLUMNS[1:]]
    assert columns == [list(c) for c in zip(*expected)]
    assert end_state(mech) == reference_end_state(config, instance, expected)


def test_run_loop_matches_reference_two_point_costs():
    instance = LinearTaskSpec(
        T=200, cost_model=TwoPointCost(0.3, 1.0), dim=4, clusters=2, separation=0.6, T_test=10
    ).build(7)
    config = MechanismConfig(budget=10.0, price_scale=AdaptiveScale(), learning_rate=FixedRate(0.25))
    expected = reference_run(config, instance, np.random.default_rng(3))
    mech = Mechanism(config, instance).run(np.random.default_rng(3))
    assert list(zip(mech.transcript.delta, mech.transcript.price, mech.transcript.cum_spend)) == [
        (row[0], row[2], row[7]) for row in expected
    ]
    assert end_state(mech) == reference_end_state(config, instance, expected)


FORCED_PATHS = {
    # the settle pass replays the whole run in one block
    "all-arrays": lambda instance: instance.horizon * instance.space.dim,
    # the settle pass replays one round per block
    "all-one-by-one": lambda instance: instance.space.dim,
}


@pytest.mark.parametrize("path", list(FORCED_PATHS))
@pytest.mark.parametrize("kind", ["linear-d24-correlated", "linear-d32-uniform"])
def test_window_evaluation_does_not_change_results(monkeypatch, path, kind):
    """Forcing the settle pass of a feature run to replay its posted
    hypotheses in one block, or one round at a time, reproduces the
    default run bit for bit."""
    instance = INSTANCES[kind]()
    for config in CONFIGS:
        default = Mechanism(config, instance).run(np.random.default_rng(9))
        monkeypatch.setattr("procure_learn.mechanism.WINDOW_ELEMENTS", FORCED_PATHS[path](instance))
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
    """A priced run that buys few of its rounds examines only those it
    could buy, so it takes far fewer margins than it has rounds, one row at
    a time (a visit) or in a block of rows (a block decision, which takes
    each row's margin once to guess and once to verify), and still matches
    the reference loop."""
    rows = []
    margin, margins = mechanism._margin, mechanism._margins
    monkeypatch.setattr(
        "procure_learn.mechanism._margin", lambda x, w: rows.append(1) or margin(x, w)
    )
    monkeypatch.setattr(
        "procure_learn.mechanism._margins", lambda X, y, H: rows.append(len(X)) or margins(X, y, H)
    )
    instance = INSTANCES["linear-d32-uniform"]()
    config = CONFIGS[CONFIG_IDS.index(config_id)]
    mech = Mechanism(config, instance).run(np.random.default_rng(9))
    assert mech.purchases <= sum(rows) < instance.horizon // 2
    expected = reference_run(config, instance, np.random.default_rng(9))
    assert mech.transcript.accepted.tolist() == [row[3] for row in expected]
    assert mech.transcript.loss.tolist() == [row[6] for row in expected]


@pytest.mark.parametrize(
    "config_id", ["naive-posted-price", "naive-at-cost", "baseline-posted-price"]
)
@pytest.mark.parametrize("kind", ["linear", "linear-d32-uniform", "linear-d24-correlated"])
def test_flat_feature_runs_take_no_scalar_margin(monkeypatch, config_id, kind):
    """A naive or baseline feature run decides its one flat-price list in
    blocks and never visits a round on its own."""

    def refuse(*args):
        raise AssertionError("a flat-price run took a margin one row at a time")

    monkeypatch.setattr("procure_learn.mechanism._margin", refuse)
    instance = INSTANCES[kind]()
    mech = Mechanism(CONFIGS[CONFIG_IDS.index(config_id)], instance).run(np.random.default_rng(9))
    assert mech.purchases > 0


def _mispredicting():
    """Large steps on the default ball of radius 3: a margin at a block's
    first hypothesis often misjudges the hinge at the round's own, so most
    blocks end early. (On a ball of radius below 1 no margin of a unit row
    reaches 1, and no guess can go wrong.) A fifth of the rounds are free,
    which a hard stop still buys."""
    return LinearTaskSpec(
        T=2000, cost_model=TwoPointCost(0.8, 1.0), dim=3, clusters=2, separation=0.6,
        T_test=5, noise=0.2
    ).build(42)


def _zero_sum_pairs():
    """Each row twice in a row, labelled +1 then -1: a run that buys both
    at q = 1 brings the gradient sum back to exactly zero, and its
    hypothesis to the zero row, where every margin is zero. A third of the
    rounds are free."""
    rng = np.random.default_rng(5)
    T, dim = 600, 4
    features = np.repeat(rng.uniform(-0.45, 0.45, size=(T // 2, dim)), 2, axis=0)
    costs = rng.random(T)
    costs[::3] = 0.0
    return ProblemInstance(
        space=l2_ball(dim, 3.0),
        costs=costs,
        features=features,
        labels=np.tile([1, -1], T // 2),
        feature_norms=np.linalg.norm(features, axis=1),
    )


BLOCK_INSTANCES = {"mispredicting": _mispredicting, "zero-sum-pairs": _zero_sum_pairs}

BLOCK_CONFIGS = {
    "baseline": MechanismConfig(
        budget=6.0, purchase_policy="baseline", learning_rate=FixedRate(2.0)
    ),
    "naive": MechanismConfig(budget=60.0, purchase_policy="naive", learning_rate=FixedRate(2.0)),
    "naive-at-cost": MechanismConfig(
        budget=60.0, payment_mode="at-cost", purchase_policy="naive", learning_rate=FixedRate(2.0)
    ),
    "fixed": MechanismConfig(
        budget=20.0, price_scale=FixedScale(3.0), learning_rate=FixedRate(2.0)
    ),
    "knowledge": MechanismConfig(
        budget=20.0,
        payment_mode="at-cost",
        price_scale=PriorKnowledge(avg_value_cost=0.5),
        learning_rate=FixedRate(2.0),
    ),
    "fixed-hard-stop": MechanismConfig(
        budget=15.0, price_scale=FixedScale(1.0), learning_rate=FixedRate(2.0), hard_stop=True
    ),
    "adaptive-hard-stop": MechanismConfig(
        budget=15.0, price_scale=AdaptiveScale(), learning_rate=FixedRate(2.0), hard_stop=True
    ),
}


def test_block_instances_reach_their_edge_cases(monkeypatch):
    """At the default block size the mispredicting instance cuts blocks
    short, and the zero-sum instance posts the zero hypothesis inside a
    block."""
    blocks = []
    feed_rows = FtrlLearner._feed_rows

    def record(self, gradients, inverse_weights, deltas, keep=None):
        posted = feed_rows(self, gradients, inverse_weights, deltas, keep)
        blocks.append((len(gradients), posted))
        return posted

    monkeypatch.setattr(FtrlLearner, "_feed_rows", record)
    Mechanism(BLOCK_CONFIGS["baseline"], _mispredicting()).run(np.random.default_rng(9))
    assert sum(len(posted) - 1 < guessed for guessed, posted in blocks) > 10
    blocks.clear()
    Mechanism(BLOCK_CONFIGS["baseline"], _zero_sum_pairs()).run(np.random.default_rng(9))
    assert any((posted[1:] == 0.0).all(axis=1).any() for _, posted in blocks)


@pytest.mark.parametrize("block", [1, 2, 3, "past-T"])
@pytest.mark.parametrize("kind", list(BLOCK_INSTANCES))
def test_block_decisions_match_reference_at_every_block_size(monkeypatch, kind, block):
    """Forcing the feature run's blocks to one, two or three listed rounds,
    or to more than the run has, reproduces the reference loop bit for bit
    on every config whose lists are decided whole, on an instance whose
    guesses often go wrong and on one whose gradient sum returns to zero."""
    instance = BLOCK_INSTANCES[kind]()
    size = instance.horizon + 1 if block == "past-T" else block
    monkeypatch.setattr("procure_learn.mechanism.BLOCK", size)
    for name, config in BLOCK_CONFIGS.items():
        expected = reference_run(config, instance, np.random.default_rng(9))
        mech = Mechanism(config, instance).run(np.random.default_rng(9))
        for column, values in zip(mech.transcript.COLUMNS[1:], zip(*expected)):
            assert getattr(mech.transcript, column).tolist() == list(values), (name, column)
        assert end_state(mech) == reference_end_state(config, instance, expected), name


@pytest.mark.parametrize("kind", ["coin-3000", "padded-coin-3000", "vertex-d7"])
def test_vertex_runs_decide_then_learn(monkeypatch, kind):
    """A vertex run never takes a margin and never feeds one round at a
    time, for any policy or scale: it decides, then learns in one block."""

    def refuse(*args, **kwargs):
        raise AssertionError("a vertex run took a margin or fed one round")

    instance = INSTANCES[kind]()
    monkeypatch.setattr("procure_learn.mechanism._margin", refuse)
    monkeypatch.setattr(FtrlLearner, "_feed", refuse)
    for config in CONFIGS:
        mech = Mechanism(config, instance).run(np.random.default_rng(9))
        assert len(mech.transcript) == instance.horizon


TRACKED_VERTEX_CONFIGS = {
    "adaptive": CONFIGS[CONFIG_IDS.index("priced-posted-price1")],
    "adaptive-at-cost": CONFIGS[CONFIG_IDS.index("priced-at-cost-adaptive")],
    # on coin-3000 these cross their hard stop only in the last rounds
    "knowledge-hard-stop": MechanismConfig(
        budget=20.0,
        payment_mode="at-cost",
        price_scale=PriorKnowledge(avg_value_cost=1.0),
        learning_rate=FixedRate(0.2),
        hard_stop=True,
    ),
    "adaptive-hard-stop": MechanismConfig(
        budget=15.0, price_scale=AdaptiveScale(), learning_rate=FixedRate(0.15), hard_stop=True
    ),
}


@pytest.mark.parametrize("name", list(TRACKED_VERTEX_CONFIGS))
def test_tracked_vertex_run_visits_few_rounds(monkeypatch, name):
    """A coin run with an adaptive scale or a hard stop re-decides only the
    rounds its lists hold, far fewer than it has, and still matches the
    reference loop."""
    calls = []
    priced_round = mechanism.priced_round
    monkeypatch.setattr(
        "procure_learn.mechanism.priced_round",
        lambda *args: calls.append(1) or priced_round(*args),
    )
    instance = INSTANCES["coin-3000"]()
    config = TRACKED_VERTEX_CONFIGS[name]
    mech = Mechanism(config, instance).run(np.random.default_rng(9))
    assert mech.purchases <= len(calls) < instance.horizon // 2
    monkeypatch.undo()
    expected = reference_run(config, instance, np.random.default_rng(9))
    columns = [getattr(mech.transcript, column).tolist() for column in mech.transcript.COLUMNS[1:]]
    assert columns == [list(c) for c in zip(*expected)]
    assert end_state(mech) == reference_end_state(config, instance, expected)


WORKLOAD_VERTEX_RUNS = {
    # the coin-at-cost workload's instance and mechanism config
    "coin-at-cost": (
        lambda: CoinSpec(20000, 0.05).build(42),
        MechanismConfig(
            budget=400.0,
            payment_mode="at-cost",
            price_scale=PriorKnowledge(avg_value_cost=1.0),
            learning_rate=TheoryRate(),
        ),
    ),
    # the same instance with the scales and policies that read the state
    # mid-run, and naive's spend prefix
    "coin-at-cost-adaptive": (
        lambda: CoinSpec(20000, 0.05).build(42),
        MechanismConfig(budget=400.0, payment_mode="at-cost", price_scale=AdaptiveScale()),
    ),
    "coin-knowledge-hard-stop": (
        lambda: CoinSpec(20000, 0.05).build(42),
        MechanismConfig(
            budget=400.0,
            payment_mode="at-cost",
            price_scale=PriorKnowledge(avg_value_cost=0.25),
            hard_stop=True,
        ),
    ),
    "coin-posted-price-naive": (
        lambda: CoinSpec(20000, 0.05).build(42),
        MechanismConfig(budget=400.0, purchase_policy="naive"),
    ),
    "padded-coin-naive-at-cost": (
        lambda: CoinSpec(10000, 0.1, coin_fraction=0.3).build(42),
        MechanismConfig(budget=200.0, payment_mode="at-cost", purchase_policy="naive"),
    ),
}


@pytest.mark.parametrize("name", list(WORKLOAD_VERTEX_RUNS))
def test_workload_sized_vertex_run_matches_reference(name):
    build, config = WORKLOAD_VERTEX_RUNS[name]
    instance = build()
    expected = reference_run(config, instance, np.random.default_rng(9))
    mech = Mechanism(config, instance).run(np.random.default_rng(9))
    columns = [getattr(mech.transcript, column).tolist() for column in mech.transcript.COLUMNS[1:]]
    assert columns == [list(c) for c in zip(*expected)]
    assert end_state(mech) == reference_end_state(config, instance, expected)


@st.composite
def drawn_runs(draw):
    """An instance and a mechanism config drawn over every kind, policy,
    payment mode, scale policy and hard stop, with costs in [0, 1]."""
    T = draw(st.integers(1, 300))
    seed = draw(st.integers(0, 2**16))
    kind = draw(st.sampled_from(["coin", "padded-coin", "linear"]))
    if kind == "coin":
        instance = CoinSpec(T, 0.15).build(seed)
    elif kind == "padded-coin":
        instance = CoinSpec(T, 0.1, coin_fraction=draw(st.floats(0.05, 1.0))).build(seed)
    else:
        cost = UniformCost(0.0, draw(st.floats(0.0, 1.0)))
        instance = LinearTaskSpec(
            T=T, cost_model=cost, dim=3, clusters=2, separation=0.6, T_test=5, noise=0.2
        ).build(seed)
    payment_mode = draw(st.sampled_from(["posted-price", "at-cost"]))
    price_scale = draw(
        st.one_of(
            st.just(AdaptiveScale()),
            st.floats(0.0, 50.0).map(FixedScale),
            st.floats(0.05, 1.0).map(lambda v: PriorKnowledge(avg_value_cost=v)),
        )
    )
    config = MechanismConfig(
        budget=draw(st.floats(0.5, 60.0)),
        payment_mode=payment_mode,
        purchase_policy=draw(st.sampled_from(["priced", "naive", "baseline"])),
        price_scale=price_scale,
        learning_rate=FixedRate(draw(st.floats(0.01, 1.0))),
        hard_stop=draw(st.booleans()),
    )
    return instance, config, seed


@settings(max_examples=300, deadline=None)
@given(drawn_runs())
def test_drawn_run_matches_reference(run):
    instance, config, seed = run
    expected = reference_run(config, instance, np.random.default_rng(seed))
    mech = Mechanism(config, instance).run(np.random.default_rng(seed))
    columns = [getattr(mech.transcript, column).tolist() for column in mech.transcript.COLUMNS[1:]]
    assert columns == [list(c) for c in zip(*expected)]
    assert end_state(mech) == reference_end_state(config, instance, expected)
