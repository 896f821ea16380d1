import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from procure_learn.core import InvalidConfigError
from procure_learn.environment import ConstantCost, TwoPointCost, UniformCost
from procure_learn.mechanism import (
    AdaptiveScale,
    FixedRate,
    KnowledgeScale,
    Mechanism,
    MechanismConfig,
    PriorKnowledge,
    TheoryRate,
)
from procure_learn.runner import (
    SWEEP_POLICIES,
    CoinSpec,
    IdxSpec,
    LinearTaskSpec,
    PaddedCoinSpec,
    build_instance,
    parse_config,
    run_sweep,
    run_trials,
    trial_streams,
    _sweep_trial_job,
)


def _base_config(**overrides):
    d = {
        "instance": {"kind": "coin", "T": 400, "epsilon": 0.1},
        "mechanism": {"budget": 20.0},
        "seed": 5,
    }
    d.update(overrides)
    return d


def test_parse_config_defaults():
    config = parse_config(_base_config())
    assert isinstance(config.instance, CoinSpec)
    assert config.instance.bias == "heads"
    assert config.mechanism.purchase_policy == "priced"
    assert isinstance(config.mechanism.price_scale, AdaptiveScale)
    assert isinstance(config.mechanism.learning_rate, TheoryRate)
    assert config.mechanism.horizon == 400  # taken from the instance
    assert config.trials == 1 and config.output_dir == "out"
    assert config.budget_grid is None


def test_parse_config_all_instance_kinds():
    padded = parse_config(
        _base_config(instance={"kind": "padded-coin", "T": 100, "coin_fraction": 0.5})
    )
    assert isinstance(padded.instance, PaddedCoinSpec)

    linear = parse_config(
        _base_config(
            instance={
                "kind": "linear",
                "T": 100,
                "cost_model": {"kind": "uniform"},
                "spread": 0.5,
            }
        )
    )
    assert isinstance(linear.instance, LinearTaskSpec)
    assert linear.instance.spread == 0.5
    assert isinstance(linear.instance.cost_model, UniformCost)

    idx = parse_config(
        _base_config(
            instance={
                "kind": "idx",
                "images": "i",
                "labels": "l",
                "cost_model": {"kind": "constant", "value": 0.3},
                "limit": 50,
            }
        )
    )
    assert isinstance(idx.instance, IdxSpec)
    assert idx.instance.limit == 50
    assert isinstance(idx.instance.cost_model, ConstantCost)


def test_parse_config_cost_model_spellings():
    ind = parse_config(
        _base_config(
            instance={
                "kind": "linear",
                "T": 50,
                "cost_model": {"kind": "two-point-independent", "p_high": 0.3},
            }
        )
    ).instance.cost_model
    assert isinstance(ind, TwoPointCost) and ind.target_groups is None

    corr = parse_config(
        _base_config(
            instance={
                "kind": "linear",
                "T": 50,
                "cost_model": {
                    "kind": "two-point-correlated",
                    "p_high": 0.3,
                    "target_groups": [1, 3],
                },
            }
        )
    ).instance.cost_model
    assert corr.target_groups == (1, 3)

    with pytest.raises(InvalidConfigError):
        parse_config(
            _base_config(
                instance={
                    "kind": "linear",
                    "T": 50,
                    "cost_model": {"kind": "two-point-correlated"},
                }
            )
        )


def test_parse_config_rejects_unknowns():
    with pytest.raises(InvalidConfigError):
        parse_config(_base_config(instance={"kind": "quadratic", "T": 10}))
    with pytest.raises(InvalidConfigError):
        parse_config(_base_config(mechanism={"budget": 1.0, "price_scale": {"mode": "magic"}}))
    with pytest.raises(InvalidConfigError):
        parse_config(_base_config(mechanism={"budget": 1.0, "learning_rate": {"mode": "warp"}}))
    with pytest.raises(InvalidConfigError):
        parse_config(_base_config(trials=0))


def test_trial_streams_are_stable_and_distinct():
    a1 = trial_streams(9, 0)
    a2 = trial_streams(9, 0)
    b = trial_streams(9, 1)
    assert a1[2] == a2[2] != b[2]
    assert np.random.default_rng(a1[0]).random() == np.random.default_rng(a2[0]).random()
    assert np.random.default_rng(a1[0]).random() != np.random.default_rng(a1[1]).random()


def test_run_trials_worker_count_invariance():
    config = parse_config(_base_config(trials=4))
    serial = run_trials(config, jobs=1)
    pooled = run_trials(config, jobs=2)
    assert [r.seed for r in serial] == [r.seed for r in pooled]
    assert [r.spend for r in serial] == [r.spend for r in pooled]
    assert [r.regret for r in serial] == [r.regret for r in pooled]


def test_run_trials_skip_regret():
    config = parse_config(_base_config(trials=2))
    results = run_trials(config, jobs=1, compute_regret=False)
    assert all(math.isnan(r.regret) for r in results)
    assert all(math.isnan(r.stats.opt_value_cost) for r in results)
    assert all(r.spend >= 0.0 for r in results)


def test_sweep_cells_are_instance_paired():
    config = parse_config(
        _base_config(
            trials=3,
            budget_grid=[10.0, 40.0],
            mechanism={
                "budget": 10.0,
                "payment_mode": "at-cost",
                "price_scale": {"mode": "from-knowledge", "avg_value_cost": 1.0},
            },
        )
    )
    rows = run_sweep(config, jobs=1)
    assert len(rows) == 6
    by_key = {(r.policy, r.budget): r for r in rows}
    # baseline ignores the budget entirely (risks are nan: no test set on coins)
    low, high = by_key[("baseline", 10.0)], by_key[("baseline", 40.0)]
    assert (low.regret_mean, low.regret_se, low.spend_mean) == (
        high.regret_mean,
        high.regret_se,
        high.spend_mean,
    )
    assert math.isnan(low.risk_zero_one_mean) and math.isnan(high.risk_zero_one_mean)
    # spending respects each budget for the constrained policies
    assert by_key[("naive", 10.0)].spend_mean == 10.0
    assert by_key[("naive", 40.0)].spend_mean == 40.0


def test_sweep_trial_runs_baseline_once(monkeypatch):
    config = parse_config(
        _base_config(
            budget_grid=[10.0, 20.0, 40.0],
            instance={
                "kind": "linear",
                "T": 300,
                "T_test": 50,
                "dim": 4,
                "cost_model": {"kind": "uniform"},
            },
        )
    )
    runs = []
    real_run = Mechanism.run

    def counted_run(self, rng):
        runs.append(self.config.purchase_policy)
        return real_run(self, rng)

    monkeypatch.setattr(Mechanism, "run", counted_run)
    cells = _sweep_trial_job((config, 0, SWEEP_POLICIES))
    grid = config.budget_grid
    assert len(runs) == (len(SWEEP_POLICIES) - 1) * len(grid) + 1
    assert runs.count("baseline") == 1
    baseline = [c for c in cells if c.policy == "baseline"]
    assert [c.budget for c in baseline] == list(grid)
    assert len({dataclasses.replace(c, budget=0.0) for c in baseline}) == 1
    assert not math.isnan(baseline[0].risk_zero_one)  # the linear task has a test set


def test_fallback_knowledge_runs_end_to_end():
    # only the mean cost is known: scale comes from the sqrt substitution
    config = parse_config(
        _base_config(
            mechanism={
                "budget": 30.0,
                "payment_mode": "at-cost",
                "price_scale": {"mode": "from-knowledge", "avg_cost": 1.0},
            }
        )
    )
    instance = build_instance(config.instance, trial_streams(config.seed, 0)[0])
    mech = Mechanism(config.mechanism, instance)
    assert mech.price_scale == pytest.approx(400 / 30.0)
    mech.run(np.random.default_rng(1))
    assert mech.spend <= 2.0 * 30.0  # loose sanity bound on one realization


SHIPPED_CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"


@pytest.mark.parametrize("payment_mode", ["posted-price", "at-cost"])
def test_adaptive_scale_keeps_padded_coin_within_budget(payment_mode):
    # 70% of the shipped padded-coin stream is free filler with delta == 0;
    # the adaptive scale starts at 0 and must not buy that filler at c_max
    d = json.loads((SHIPPED_CONFIGS / "padded_coin_budget.json").read_text())
    d["mechanism"].update(price_scale={"mode": "adaptive"}, payment_mode=payment_mode)
    d["trials"] = 5
    config = parse_config(d)
    spends = [r.spend for r in run_trials(config, compute_regret=False)]
    assert np.mean(spends) <= 1.05 * config.mechanism.budget


def test_reference_policies_ignore_budget_in_theory_rate():
    inst_seed = trial_streams(3, 0)[0]
    spec = CoinSpec(T=200, epsilon=0.1)
    for policy in ("naive", "baseline"):
        rates = set()
        for budget in (5.0, 500.0):
            config = MechanismConfig(
                budget=budget,
                purchase_policy=policy,
                price_scale=KnowledgeScale(PriorKnowledge(avg_value_cost=1.0)),
            )
            mech = Mechanism(config, build_instance(spec, inst_seed))
            rates.add(mech.learner.learning_rate)
        assert len(rates) == 1


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "procure_learn", "verify", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "--quick" in proc.stdout
