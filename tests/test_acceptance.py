"""Acceptance gate: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Monte-Carlo criteria use frozen seeds; the statistical margins were
sized so the checks are far from their tolerance under the pinned streams.
"""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from procure_learn.cli import main
from procure_learn.environment import (
    TwoPointCost,
    UniformCost,
    coin_sequence,
    digit_task,
    linear_task,
    padded_coin_sequence,
)
from procure_learn.mechanism import (
    AdaptiveScale,
    FixedRate,
    KnowledgeScale,
    Mechanism,
    MechanismConfig,
    PriorKnowledge,
    TheoryRate,
)
from procure_learn.metrics import offline_best, risk
from procure_learn.pricing import expected_payment, sample_prices, survival
from procure_learn.runner import trial_streams

from oracles import mean_round_risk, posted_hypotheses

SEED = 20240701


def _report(number, name, detail):
    print(f"ACCEPTANCE {number} ({name}): PASS - {detail}")


# ---------------------------------------------------------------------------
# 1. pricing-law fidelity
# ---------------------------------------------------------------------------


def test_criterion_1_pricing_law_fidelity():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    n = 200_000
    grid = np.linspace(0.05, 1.0, 10)
    worst = 0.0
    for dlt in (0.1, 0.5, 1.0):
        for scale in (0.5, 2.0, 4.0):
            prices = sample_prices(dlt, scale, rng.random(n))
            for c in grid:
                gap = abs(float(np.mean(prices >= c)) - survival(dlt, scale, float(c)))
                worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    assert worst <= 0.005
    assert elapsed < 5.0
    _report(1, "pricing-law fidelity", f"max survival gap {worst:.5f} in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. expected payment
# ---------------------------------------------------------------------------


def test_criterion_2_expected_payment():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED + 1)
    n = 200_000
    worst_z = 0.0
    for dlt, scale in ((1.0, 2.0), (0.5, 2.0), (0.8, 1.25)):
        prices = sample_prices(dlt, scale, rng.random(n))
        for cost in (0.0, 0.25, 0.81):
            paid = prices * (prices >= cost)
            se = float(paid.std(ddof=1)) / math.sqrt(n)
            z = abs(float(paid.mean()) - expected_payment(dlt, scale, cost)) / se
            worst_z = max(worst_z, z)
    elapsed = time.perf_counter() - start
    assert worst_z <= 3.0
    assert elapsed < 5.0
    _report(2, "expected payment", f"worst deviation {worst_z:.2f} SE over 9 combos in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. full-information learner bound
# ---------------------------------------------------------------------------


def test_criterion_3_full_information_bound():
    start = time.perf_counter()
    root = np.random.SeedSequence(SEED + 2)
    min_slack = math.inf
    for i, child in enumerate(root.spawn(50)):
        gen = np.random.default_rng(child)
        if i % 2 == 0:
            instance = coin_sequence(500, 0.45 * gen.random(), "heads", gen)
        else:
            instance = linear_task(
                4, 2, 0.3 + 0.5 * gen.random(), 400, 0, UniformCost(), gen
            )
        config = MechanismConfig(
            budget=1.0,
            purchase_policy="baseline",
            learning_rate=FixedRate(0.02 + 0.5 * gen.random()),
        )
        mech = Mechanism(config, instance)
        mech.run(np.random.default_rng(child.spawn(1)[0]))
        # against the certified lower bound: an upper bound on realized regret
        realized = mech.loss_total - offline_best(instance).lower_bound
        min_slack = min(min_slack, mech.learner.regret_bound() - realized)
        assert realized <= mech.learner.regret_bound() + 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(3, "full-information bound", f"min slack {min_slack:.3f} over 50 runs in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. budget compliance
# ---------------------------------------------------------------------------


def test_criterion_4_budget_compliance():
    start = time.perf_counter()
    T, budget = 10_000, 200.0
    config = MechanismConfig(
        budget=budget,
        payment_mode="posted-price",
        price_scale=KnowledgeScale(PriorKnowledge(avg_value_cost=0.3, avg_value=0.3)),
        learning_rate=TheoryRate(),
    )
    spends = []
    for trial in range(100):
        instance_ss, mech_ss, _ = trial_streams(SEED + 3, trial)
        instance = padded_coin_sequence(T, 0.3, 0.1, "heads", instance_ss)
        mech = Mechanism(config, instance)
        mech.run(np.random.default_rng(mech_ss))
        spends.append(mech.spend)
    mean_spend = float(np.mean(spends))
    elapsed = time.perf_counter() - start
    assert mean_spend <= 1.05 * budget
    assert elapsed < 60.0
    _report(4, "budget compliance", f"mean spend {mean_spend:.1f} vs budget {budget:.0f} in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. no data, no regret scaling
# ---------------------------------------------------------------------------


def test_criterion_5_regret_scaling():
    start = time.perf_counter()
    T, trials = 20_000, 200
    means = {}
    for budget in (100.0, 400.0, 1600.0):
        config = MechanismConfig(
            budget=budget,
            payment_mode="at-cost",
            price_scale=KnowledgeScale(PriorKnowledge(avg_value_cost=1.0)),
            learning_rate=TheoryRate(),
        )
        epsilon = 1.0 / math.sqrt(budget)
        regrets = []
        for trial in range(trials):
            instance_ss, mech_ss, _ = trial_streams(SEED + 4, trial)
            instance = coin_sequence(T, epsilon, "heads", instance_ss)
            mech = Mechanism(config, instance)
            mech.run(np.random.default_rng(mech_ss))
            regrets.append(mech.loss_total - offline_best(instance).total_loss)
        means[budget] = float(np.mean(regrets))
    elapsed = time.perf_counter() - start

    assert means[100.0] > means[400.0] > means[1600.0]
    ratio_a = means[100.0] / means[400.0]
    ratio_b = means[400.0] / means[1600.0]
    assert 1.3 <= ratio_a <= 3.0
    assert 1.3 <= ratio_b <= 3.0
    assert elapsed < 600.0
    _report(
        5,
        "no data, no regret scaling",
        f"mean regret {means[100.0]:.0f}/{means[400.0]:.0f}/{means[1600.0]:.0f}, "
        f"quadrupling ratios {ratio_a:.2f}, {ratio_b:.2f} in {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 6. correlation sensitivity
# ---------------------------------------------------------------------------

CORR_TASK = dict(dim=24, clusters=4, separation=0.8, spread=0.35, noise=0.14)
CORR_TARGETS = (0, 4)  # the boundary-hugging cluster of each class


def _correlation_cells(seed, trials=100, replays=4, T=1000, T_test=4000, eta=0.45):
    """Paired risks of priced/naive under matched-marginal cost models.

    The priced cells average ``replays`` mechanism replays per instance to
    estimate per-instance expected risk; naive is deterministic given the
    instance so one run suffices.
    """
    cells = {("priced", "corr"): [], ("priced", "ind"): [], ("naive", "corr"): [], ("naive", "ind"): []}
    gammas = {"corr": [], "ind": []}
    models = (
        ("corr", TwoPointCost(0.2, 1.0, CORR_TARGETS)),
        ("ind", TwoPointCost(0.2, 1.0)),
    )
    for trial in range(trials):
        instance_ss, _, _ = trial_streams(seed, trial)
        replay_seeds = np.random.SeedSequence(entropy=seed, spawn_key=(trial, 1)).spawn(replays)
        for tag, model in models:
            instance = linear_task(
                CORR_TASK["dim"], CORR_TASK["clusters"], CORR_TASK["separation"],
                T, T_test, model, instance_ss,
                spread=CORR_TASK["spread"], noise=CORR_TASK["noise"],
            )
            budget = 0.25 * float(instance.costs.sum())
            for policy in ("priced", "naive"):
                config = MechanismConfig(
                    budget=budget,
                    purchase_policy=policy,
                    price_scale=AdaptiveScale(),
                    learning_rate=FixedRate(eta),
                )
                seeds = replay_seeds if policy == "priced" else replay_seeds[:1]
                risks = []
                for ms in seeds:
                    mech = Mechanism(config, instance)
                    mech.run(np.random.default_rng(ms))
                    risks.append(risk(instance, mech.finalize(), "zero-one"))
                    if policy == "priced":
                        gammas[tag].append(mech.realized_avg_value_cost)
                cells[(policy, tag)].append(float(np.mean(risks)))
    return cells, gammas


def test_criterion_6_correlation_sensitivity():
    start = time.perf_counter()
    trials = 100
    cells, gammas = _correlation_cells(SEED + 5, trials=trials)
    gamma_ratio = float(np.mean(gammas["corr"]) / np.mean(gammas["ind"]))

    priced_diff = np.array(cells[("priced", "corr")]) - np.array(cells[("priced", "ind")])
    naive_diff = np.array(cells[("naive", "corr")]) - np.array(cells[("naive", "ind")])
    priced_se = float(priced_diff.std(ddof=1)) / math.sqrt(trials)
    naive_se = float(naive_diff.std(ddof=1)) / math.sqrt(trials)
    priced_z = float(priced_diff.mean()) / priced_se
    naive_z = float(naive_diff.mean()) / naive_se
    elapsed = time.perf_counter() - start

    assert gamma_ratio >= 1.5
    assert priced_diff.mean() > 0.0 and priced_z >= 3.0
    assert abs(naive_z) <= 2.0
    assert elapsed < 600.0
    _report(
        6,
        "correlation sensitivity",
        f"value-cost ratio {gamma_ratio:.2f}, priced degradation {priced_z:+.1f} SE, "
        f"naive shift {naive_z:+.1f} SE in {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 7. adaptive mechanism vs naive
# ---------------------------------------------------------------------------

VS_NAIVE_TASK = dict(dim=32, clusters=2, separation=0.35, noise=0.2)


def test_criterion_7_beats_naive():
    start = time.perf_counter()
    trials, T = 100, 8000
    summary = []
    for budget in (100.0, 200.0, 400.0):
        ours, naive = [], []
        for trial in range(trials):
            instance_ss, mech_ss, _ = trial_streams(SEED + 6, trial)
            instance = linear_task(
                VS_NAIVE_TASK["dim"], VS_NAIVE_TASK["clusters"], VS_NAIVE_TASK["separation"],
                T, 1500, UniformCost(), instance_ss, noise=VS_NAIVE_TASK["noise"],
            )
            for policy, sink in (("priced", ours), ("naive", naive)):
                config = MechanismConfig(
                    budget=budget,
                    purchase_policy=policy,
                    price_scale=AdaptiveScale(),
                    learning_rate=FixedRate(0.08),
                )
                mech = Mechanism(config, instance)
                mech.run(np.random.default_rng(mech_ss))
                sink.append(risk(instance, mech.finalize(), "zero-one"))
        ours_mean, naive_mean = float(np.mean(ours)), float(np.mean(naive))
        assert ours_mean <= naive_mean, f"budget {budget}: {ours_mean} vs {naive_mean}"
        summary.append(f"B={budget:.0f}: {ours_mean:.4f}<={naive_mean:.4f}")
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _report(7, "adaptive vs naive", "; ".join(summary) + f" in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 8. online-to-batch inequality
# ---------------------------------------------------------------------------


def test_criterion_8_online_to_batch():
    start = time.perf_counter()
    checked = 0
    for trial, policy, budget in [
        (0, "priced", 30.0),
        (1, "priced", 120.0),
        (2, "naive", 60.0),
        (3, "baseline", 10.0),
        (4, "priced", 15.0),
        (5, "naive", 250.0),
    ]:
        instance_ss, mech_ss, _ = trial_streams(SEED + 7, trial)
        instance = linear_task(5, 2, 0.6, 600, 400, UniformCost(), instance_ss)
        config = MechanismConfig(
            budget=budget,
            purchase_policy=policy,
            price_scale=AdaptiveScale(),
            learning_rate=FixedRate(0.12),
        )
        mech = Mechanism(config, instance)
        mech.run(np.random.default_rng(mech_ss))
        averaged = risk(instance, mech.finalize(), "surrogate")
        per_round = mean_round_risk(
            instance.family, posted_hypotheses(mech), instance.test_features, instance.test_labels
        )
        assert averaged <= per_round + 1e-12  # convexity, no tolerance
        checked += 1
    elapsed = time.perf_counter() - start
    _report(8, "online-to-batch", f"exact inequality on {checked} runs in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 9. byte determinism
# ---------------------------------------------------------------------------


def test_criterion_9_byte_determinism(tmp_path):
    start = time.perf_counter()
    config = {
        "instance": {"kind": "padded-coin", "T": 2000, "coin_fraction": 0.3, "epsilon": 0.1},
        "mechanism": {
            "budget": 40.0,
            "price_scale": {"mode": "from-knowledge", "avg_value_cost": 0.3, "avg_value": 0.3},
            "learning_rate": {"mode": "theory"},
        },
        "trials": 4,
        "seed": 97,
        "output_dir": str(tmp_path / "a"),
    }
    cfg_a = tmp_path / "a.json"
    cfg_a.write_text(json.dumps(config))
    config["output_dir"] = str(tmp_path / "b")
    cfg_b = tmp_path / "b.json"
    cfg_b.write_text(json.dumps(config))

    assert main(["run", "--config", str(cfg_a)]) == 0
    assert main(["run", "--config", str(cfg_b)]) == 0
    for name in ("transcript.csv", "summary.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    elapsed = time.perf_counter() - start
    _report(9, "byte determinism", f"transcript and summary byte-identical in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 10. optional digit-data replication
# ---------------------------------------------------------------------------


MNIST_DIR = os.environ.get("PROCURE_LEARN_MNIST_DIR", "")


def _mnist_paths():
    base = Path(MNIST_DIR)
    images = base / "train-images-idx3-ubyte"
    labels = base / "train-labels-idx1-ubyte"
    return images, labels


@pytest.mark.skipif(
    not MNIST_DIR or not _mnist_paths()[0].exists(),
    reason="set PROCURE_LEARN_MNIST_DIR to run the digit-data replication",
)
def test_criterion_10_digit_replication():
    images, labels = _mnist_paths()
    start = time.perf_counter()
    trials = 10
    results = {"baseline": [], "priced": [], "naive": []}
    train_size = None
    for trial in range(trials):
        instance_ss, mech_ss, _ = trial_streams(SEED + 9, trial)
        instance = digit_task(str(images), str(labels), UniformCost(), instance_ss)
        train_size = instance.horizon
        rate = 0.1 / float(np.mean(instance.feature_norms))
        budget = 0.1 * instance.horizon  # sub-full budget
        for policy in ("baseline", "priced", "naive"):
            config = MechanismConfig(
                budget=budget,
                purchase_policy=policy,
                price_scale=AdaptiveScale(),
                learning_rate=FixedRate(rate),
            )
            mech = Mechanism(config, instance)
            mech.run(np.random.default_rng(mech_ss))
            results[policy].append(risk(instance, mech.finalize(), "zero-one"))
    base, ours, naive = (float(np.mean(results[p])) for p in ("baseline", "priced", "naive"))
    elapsed = time.perf_counter() - start
    # qualitative ordering at sub-full budgets; exact curve values are not asserted
    assert base <= ours <= naive
    _report(
        10,
        "digit replication",
        f"train size {train_size}, risks baseline {base:.4f} <= ours {ours:.4f} <= naive {naive:.4f} "
        f"in {elapsed:.0f}s",
    )
