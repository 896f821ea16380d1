"""Acceptance gate: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Monte-Carlo criteria use frozen seeds; the statistical margins were
sized so the checks are far from their tolerance under the pinned streams.

Criteria 4-7 run the shipped experiments, overriding only seed and trial
count: criterion 4 runs `scripts/configs/padded_coin_budget.json` through
`run_trials`, criterion 7 runs `scripts/configs/linear_uniform_sweep.json`
through `run_sweep`, criterion 5 calls `run_budget` of
`scripts/regret_vs_budget.py` and criterion 6 calls `correlation_cells` of
`scripts/correlation_effect.py`.
"""

import json
import math
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from procure_learn.cli import main
from procure_learn.environment import IdxSpec, LinearTaskSpec, UniformCost
from procure_learn.mechanism import AdaptiveScale, FixedRate, Mechanism, MechanismConfig
from procure_learn.metrics import risk
from procure_learn.runner import load_config, run_sweep, run_trials, trial_streams
from procure_learn.verify import (
    check_expected_payment,
    check_full_information_bound,
    check_survival_empirical,
)

from correlation_effect import correlation_cells
from oracles import mean_round_risk, posted_hypotheses
from regret_vs_budget import run_budget

SEED = 20240701
CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"


def _report(number, name, detail):
    print(f"ACCEPTANCE {number} ({name}): PASS - {detail}")


# ---------------------------------------------------------------------------
# 1. pricing-law fidelity
# ---------------------------------------------------------------------------


def test_criterion_1_pricing_law_fidelity():
    start = time.perf_counter()
    result = check_survival_empirical(n=200_000, seed=SEED, tolerance=0.005)
    elapsed = time.perf_counter() - start
    assert result.passed, result
    assert elapsed < 5.0
    _report(1, "pricing-law fidelity", f"max survival gap {result.observed:.5f} in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. expected payment
# ---------------------------------------------------------------------------


def test_criterion_2_expected_payment():
    start = time.perf_counter()
    result = check_expected_payment(n=200_000, seed=SEED + 1)
    elapsed = time.perf_counter() - start
    assert result.passed, result
    assert elapsed < 5.0
    _report(2, "expected payment", f"worst deviation {result.observed:.2f} SE in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. full-information learner bound
# ---------------------------------------------------------------------------


def test_criterion_3_full_information_bound():
    start = time.perf_counter()
    result = check_full_information_bound(instances=50, seed=SEED + 2)
    elapsed = time.perf_counter() - start
    assert result.passed, result
    assert elapsed < 30.0
    _report(3, "full-information bound", f"{result.detail} in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. budget compliance
# ---------------------------------------------------------------------------


def test_criterion_4_budget_compliance():
    start = time.perf_counter()
    config = replace(load_config(CONFIGS / "padded_coin_budget.json"), seed=SEED + 3, trials=100)
    budget = config.mechanism.budget
    mean_spend = float(np.mean([r.spend for r in run_trials(config)]))
    elapsed = time.perf_counter() - start
    assert mean_spend <= 1.05 * budget
    assert elapsed < 60.0
    _report(4, "budget compliance", f"mean spend {mean_spend:.1f} vs budget {budget:.0f} in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. no data, no regret scaling
# ---------------------------------------------------------------------------


def test_criterion_5_regret_scaling():
    start = time.perf_counter()
    means = {budget: run_budget(budget, 20_000, 200, SEED + 4)[0] for budget in (100.0, 400.0, 1600.0)}
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


def test_criterion_6_correlation_sensitivity():
    start = time.perf_counter()
    trials = 100
    cells, gammas = correlation_cells(SEED + 5, trials, 4, 1000, 0.45)
    gamma_ratio = float(np.mean(gammas["correlated"]) / np.mean(gammas["independent"]))

    priced_diff = np.array(cells[("priced", "correlated")]) - np.array(cells[("priced", "independent")])
    naive_diff = np.array(cells[("naive", "correlated")]) - np.array(cells[("naive", "independent")])
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


def test_criterion_7_beats_naive():
    start = time.perf_counter()
    config = replace(load_config(CONFIGS / "linear_uniform_sweep.json"), seed=SEED + 6, trials=100)
    risks = {(row.policy, row.budget): row.risk_zero_one_mean for row in run_sweep(config, jobs=2)}
    summary = []
    for budget in config.budget_grid:
        ours_mean, naive_mean = risks[("priced", budget)], risks[("naive", budget)]
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
        instance = LinearTaskSpec(
            T=600, cost_model=UniformCost(), dim=5, clusters=2, separation=0.6, T_test=400
        ).build(instance_ss)
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
            posted_hypotheses(mech), instance.test_features, instance.test_labels
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
        instance = IdxSpec(str(images), str(labels), UniformCost()).build(instance_ss)
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
