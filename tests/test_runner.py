import dataclasses
import json
import math
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from procure_learn.core import InvalidConfigError
from procure_learn.environment import (
    CoinSpec,
    IdxSpec,
    LinearTaskSpec,
    TwoPointCost,
    UniformCost,
)
from procure_learn.mechanism import (
    AdaptiveScale,
    FixedRate,
    Mechanism,
    MechanismConfig,
    POLICIES,
    PriorKnowledge,
    TheoryRate,
)
from procure_learn import runner
from procure_learn.runner import (
    ExperimentConfig,
    load_config,
    parse_config,
    run_sweep,
    run_trial,
    run_trials,
    trial_streams,
)

from oracles import _fmt, write_idx_images, write_idx_labels


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
    assert config.trials == 1 and config.output_dir == "out"
    assert config.budget_grid is None


def test_parse_config_all_instance_kinds(tmp_path):
    padded = parse_config(_base_config(instance={"kind": "coin", "T": 100, "coin_fraction": 0.5}))
    assert isinstance(padded.instance, CoinSpec) and padded.instance.coins == 50

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

    # an idx spec reads both headers and the labels when parsed; the pixels
    # are read only in a trial
    write_idx_images(tmp_path / "i", np.zeros((60, 2, 2), dtype=np.uint8))
    write_idx_labels(tmp_path / "l", np.tile(np.array([9, 1], dtype=np.uint8), 30))
    idx = parse_config(
        _base_config(
            instance={
                "kind": "idx",
                "images": str(tmp_path / "i"),
                "labels": str(tmp_path / "l"),
                "cost_model": {"kind": "uniform", "low": 0.3, "high": 0.3},
                "limit": 50,
            }
        )
    )
    assert isinstance(idx.instance, IdxSpec)
    assert idx.instance.limit == 50
    assert idx.instance.cost_model == UniformCost(0.3, 0.3)


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
    # json.load accepts NaN and Infinity
    for value in (math.nan, math.inf):
        scale = {"mode": "fixed", "value": value}
        with pytest.raises(InvalidConfigError):
            parse_config(_base_config(mechanism={"budget": 1.0, "price_scale": scale}))
    # cost-model parameters are checked when the config is parsed; an infinite
    # uniform high used to overflow in the first trial, a negative high_cost
    # to warn from np.sqrt first
    for cost_model in (
        {"kind": "uniform", "low": -1.0, "high": -1.0},
        {"kind": "uniform", "low": math.inf, "high": math.inf},
        {"kind": "uniform", "low": -0.1},
        {"kind": "uniform", "low": 0.6, "high": 0.4},
        {"kind": "uniform", "high": math.inf},
        {"kind": "uniform", "high": math.nan},
        {"kind": "two-point-independent", "p_high": 1.5},
        {"kind": "two-point-independent", "p_high": math.nan},
        {"kind": "two-point-independent", "high_cost": -1.0},
        {"kind": "two-point-correlated", "high_cost": math.inf, "target_groups": [0]},
    ):
        instance = {"kind": "linear", "T": 50, "cost_model": cost_model}
        with pytest.raises(InvalidConfigError):
            parse_config(_base_config(instance=instance))
    linear = {"kind": "linear", "T": 50, "cost_model": {"kind": "uniform"}}
    # spellings that only restated another kind are refused by name: a coin
    # of coin_fraction f, and the uniform cost of low = high = v
    for bad, message in [
        ({"kind": "padded-coin", "T": 100, "coin_fraction": 0.5}, "instance kind 'padded-coin'"),
        ({**linear, "cost_model": {"kind": "constant", "value": 0.3}}, "cost_model kind 'constant'"),
    ]:
        with pytest.raises(InvalidConfigError, match=f"^unknown {message}$"):
            parse_config(_base_config(instance=bad))
    # a key no parser reads used to leave its setting at the default
    for key, config in {
        "trails": _base_config(trails=5),
        "epsilion": _base_config(instance={"kind": "coin", "T": 400, "epsilion": 0.3}),
        "noise": _base_config(instance={"kind": "coin", "T": 400, "noise": 0.3}),
        "epsilon": _base_config(instance={**linear, "epsilon": 0.3}),
        "target_groups": _base_config(
            instance={
                **linear,
                "cost_model": {"kind": "two-point-independent", "target_groups": [0]},
            }
        ),
        "hard_stpo": _base_config(mechanism={"budget": 20, "hard_stpo": True}),
        "value": _base_config(
            mechanism={"budget": 20, "price_scale": {"mode": "adaptive", "value": 2.0}}
        ),
        "avg_values": _base_config(
            mechanism={
                "budget": 20,
                "price_scale": {"mode": "from-knowledge", "avg_values": 0.3},
            }
        ),
        "scale": _base_config(
            mechanism={"budget": 20, "learning_rate": {"mode": "fixed", "value": 0.1, "scale": 2}}
        ),
        # money is in units of the largest cost, so the cost cap is no key
        "c_max": _base_config(mechanism={"budget": 20, "c_max": 1.0}),
    }.items():
        with pytest.raises(InvalidConfigError, match=f"unknown key.*'{key}'"):
            parse_config(config)
    # an integer key used to be truncated: 2.7 trials ran as 2, T true as 1
    # round and target group 0.5 as group 0
    two_point = {"kind": "two-point-correlated", "target_groups": [0, 1]}
    idx = {"kind": "idx", "images": "i", "labels": "l", "cost_model": {"kind": "uniform"}}
    for key, bad in [
        ("trials", _base_config(trials=2.7)),
        ("seed", _base_config(seed=1.5)),
        ("T", _base_config(instance={"kind": "coin", "T": 50.9})),
        ("T", _base_config(instance={"kind": "coin", "T": True})),
        ("T", _base_config(instance={"kind": "coin", "T": 50.5, "coin_fraction": 0.5})),
        ("T", _base_config(instance={**linear, "T": "50"})),
        ("T_test", _base_config(instance={**linear, "T_test": 10.5})),
        ("dim", _base_config(instance={**linear, "dim": False})),
        ("clusters", _base_config(instance={**linear, "clusters": 1.5})),
        (
            "target_groups",
            _base_config(instance={**linear, "cost_model": {**two_point, "target_groups": [0.5]}}),
        ),
        ("limit", _base_config(instance={**idx, "limit": 10.5})),
        ("positive_digits", _base_config(instance={**idx, "positive_digits": [9, 8.5]})),
        ("negative_digits", _base_config(instance={**idx, "negative_digits": 1})),
    ]:
        with pytest.raises(InvalidConfigError, match=f"^{key} must be "):
            parse_config(bad)
    # a number key read any JSON value through float: true ran as B = 1,
    # "5" as 5, {} or null ended in a TypeError, 10**400 in an OverflowError;
    # a string budget_grid swept each of its characters
    for key, bad in [
        ("budget", _base_config(mechanism={"budget": True})),
        ("budget", _base_config(mechanism={"budget": "5"})),
        ("epsilon", _base_config(instance={"kind": "coin", "T": 50, "epsilon": "0.1"})),
        ("epsilon", _base_config(instance={"kind": "coin", "T": 50, "epsilon": 10**400})),
        ("coin_fraction", _base_config(instance={"kind": "coin", "T": 50, "coin_fraction": "0.5"})),
        ("value", _base_config(mechanism={"budget": 5, "learning_rate": {"mode": "fixed", "value": True}})),
        ("output_dir", _base_config(output_dir={})),
        ("budget_grid", _base_config(budget_grid="12")),
        ("budget_grid", _base_config(budget_grid=3)),
        ("budget_grid", _base_config(budget_grid=[10.0, None])),
    ] + [
        (key, config)
        for odd in ({}, [], None)
        for key, config in [
            ("budget", _base_config(mechanism={"budget": odd})),
            ("epsilon", _base_config(instance={"kind": "coin", "T": 50, "epsilon": odd})),
            ("high", _base_config(instance={**linear, "cost_model": {"kind": "uniform", "high": odd}})),
            ("value", _base_config(mechanism={"budget": 5, "price_scale": {"mode": "fixed", "value": odd}})),
        ]
    ]:
        with pytest.raises(InvalidConfigError, match=f"^{key} must be "):
            parse_config(bad)
    # every tagged section needs its tag: a price_scale or learning_rate
    # without a mode used to fall back to a default written a second time
    for mechanism in (
        {"budget": 20, "price_scale": {}},
        {"budget": 20, "learning_rate": {"scale": 2.0}},
    ):
        with pytest.raises(InvalidConfigError, match="missing required key 'mode'"):
            parse_config(_base_config(mechanism=mechanism))
    # only a tagged section reads a tag
    for config in (
        _base_config(mechanism={"budget": 20, "kind": "priced"}),
        _base_config(mechanism={"budget": 20, "price_scale": {"mode": "adaptive", "kind": "x"}}),
        _base_config(kind="coin"),
    ):
        with pytest.raises(InvalidConfigError, match="unknown key.*'kind'"):
            parse_config(config)


def test_every_parsed_field_has_a_parser():
    # a missing parser would be a KeyError, which the CLI reports with a traceback
    tables = (runner._INSTANCE_KINDS, runner._COST_MODEL_KINDS, runner._SCALE_MODES, runner._RATE_MODES)
    classes = {runner.ExperimentConfig, MechanismConfig, *(c for t in tables for c in t.values())}
    for cls in classes:
        for f in dataclasses.fields(cls):
            assert f.type in runner._PARSE_FIELD, (cls.__name__, f.name, f.type)


def test_correlated_cost_model_refuses_by_its_config_not_its_draw():
    # the drawn share of the targeted rows decided whether a trial ran: this
    # config used to fail in one of its trials with "fraction 0.2250"
    cost = {"kind": "two-point-correlated", "p_high": 0.25, "target_groups": [0]}
    instance = {"kind": "linear", "T": 40, "clusters": 2, "cost_model": cost}
    config = parse_config(_base_config(instance=instance, trials=8))
    results = run_trials(config)
    assert len(results) == 8
    # and a p_high the targets cannot be expected to carry is refused by the spec
    for bad, message in [
        ({**cost, "p_high": 0.3}, "exceeds the share 0.25"),
        ({**cost, "target_groups": [4]}, "are not among the instance's tags"),
    ]:
        with pytest.raises(InvalidConfigError, match=message):
            parse_config(_base_config(instance={**instance, "cost_model": bad}))


def test_parse_mechanism_hard_stop_takes_only_a_boolean():
    def hard_stop(**mechanism):
        return parse_config(_base_config(mechanism={"budget": 10, **mechanism})).mechanism.hard_stop

    assert hard_stop(hard_stop=True) is True
    assert hard_stop(hard_stop=False) is False
    assert hard_stop() is False
    # bool("false") is True: a quoted flag once turned the hard stop on
    for value in ("false", "true", 0, 1, None):
        with pytest.raises(InvalidConfigError):
            hard_stop(hard_stop=value)


def test_trial_streams_are_stable_and_distinct():
    a1 = trial_streams(9, 0)
    a2 = trial_streams(9, 0)
    b = trial_streams(9, 1)
    assert a1[2] == a2[2] != b[2]
    assert np.random.default_rng(a1[0]).random() == np.random.default_rng(a2[0]).random()
    assert np.random.default_rng(a1[0]).random() != np.random.default_rng(a1[1]).random()


def test_run_trials_worker_count_invariance():
    config = parse_config(_base_config(trials=4))
    serial = run_trials(config, jobs=1, record_transcript=True)
    pooled = run_trials(config, jobs=2, record_transcript=True)
    assert [r.seed for r in serial] == [r.seed for r in pooled]
    assert [r.spend for r in serial] == [r.spend for r in pooled]
    assert [r.regret for r in serial] == [r.regret for r in pooled]
    assert [r.stats for r in serial] == [r.stats for r in pooled]
    # only trial 0 records its transcript, and it survives the pool
    assert serial[0].transcript.loss.tolist() == pooled[0].transcript.loss.tolist()
    assert not pooled[0].transcript.loss.flags.writeable
    assert len(serial[0].transcript) == 400
    assert all(r.transcript is None for r in serial[1:] + pooled[1:])
    for r in serial:
        assert (r.policy, r.budget) == ("priced", 20.0)
        assert r.spend >= 0.0
        assert math.isfinite(r.regret) and math.isfinite(r.stats.opt_value_cost)
        assert 0.0 <= r.stats.opt_value_cost <= r.stats.avg_sqrt_cost <= 1.0


def test_pool_starts_no_more_workers_than_trials(monkeypatch):
    import concurrent.futures

    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, work, chunksize=1):
            return map(fn, work)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    config = parse_config(_base_config(trials=3))
    assert len(run_trials(config, jobs=64)) == 3
    assert started == [3]


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


def _count_calls(monkeypatch, owner, name, log):
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        log.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


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
    grid = [
        dataclasses.replace(config.mechanism, purchase_policy=policy, budget=budget)
        for policy in POLICIES
        for budget in config.budget_grid
    ]
    runs = []
    real_run = Mechanism.run

    def counted_run(self, rng):
        runs.append(self.config.purchase_policy)
        return real_run(self, rng)

    monkeypatch.setattr(Mechanism, "run", counted_run)
    calls = []
    _count_calls(monkeypatch, LinearTaskSpec, "build", calls)
    _count_calls(monkeypatch, runner, "offline_best", calls)
    results = run_trial(config, 0, grid)
    assert calls == ["build", "offline_best"]
    assert len(runs) == (len(POLICIES) - 1) * len(config.budget_grid) + 1
    assert runs.count("baseline") == 1
    assert [(r.policy, r.budget) for r in results] == [(m.purchase_policy, m.budget) for m in grid]
    baseline = [r for r in results if r.policy == "baseline"]
    assert [r.budget for r in baseline] == list(config.budget_grid)
    assert len({dataclasses.replace(r, budget=0.0) for r in baseline}) == 1
    assert not math.isnan(baseline[0].risk_zero_one)  # the linear task has a test set


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_one_instance_and_one_oracle_per_trial(monkeypatch, command):
    config = parse_config(_base_config(trials=3, budget_grid=[10.0, 40.0]))
    calls = []
    _count_calls(monkeypatch, CoinSpec, "build", calls)
    _count_calls(monkeypatch, runner, "offline_best", calls)
    if command == "run":
        assert len(run_trials(config, jobs=1)) == 3
    else:
        assert len(run_sweep(config, jobs=1)) == len(POLICIES) * 2
    assert calls == ["build", "offline_best"] * 3


def test_sweep_rejects_bad_budget_before_any_trial(monkeypatch):
    # the config refuses its grid's budgets, so no trial starts
    calls = []
    _count_calls(monkeypatch, CoinSpec, "build", calls)
    with pytest.raises(InvalidConfigError, match="budget must be positive and finite, got 0.0"):
        run_sweep(parse_config(_base_config(trials=2, budget_grid=[10.0, 0.0])), jobs=1)
    assert calls == []


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
    instance = config.instance.build(trial_streams(config.seed, 0)[0])
    mech = Mechanism(config.mechanism, instance)
    assert mech.price_scale == pytest.approx(400 / 30.0)
    mech.run(np.random.default_rng(1))
    assert mech.spend <= 2.0 * 30.0  # loose sanity bound on one realization


SHIPPED_CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"


@pytest.mark.parametrize("payment_mode", ["posted-price", "at-cost"])
def test_adaptive_scale_keeps_padded_coin_within_budget(payment_mode):
    # 70% of the shipped padded-coin stream is free filler with delta == 0;
    # the adaptive scale starts at 0 and must not buy that filler at price 1
    d = json.loads((SHIPPED_CONFIGS / "padded_coin_budget.json").read_text())
    d["mechanism"].update(price_scale={"mode": "adaptive"}, payment_mode=payment_mode)
    d["trials"] = 5
    config = parse_config(d)
    spends = [r.spend for r in run_trials(config)]
    assert np.mean(spends) <= 1.05 * config.mechanism.budget


# ROADMAP item 1's grid. Under posted-price an adaptive scale that has so
# far bought only free rounds stays 0, and a scale of 0 buys every round with
# an active hinge at price 1; at-cost runs pay the cost. The three cells with
# zero-cost mass overspend until item 1 is mended, which must flip them
ITEM_1_COSTS = {
    "uniform-0-0": UniformCost(0.0, 0.0),
    "p_high-0.002": TwoPointCost(p_high=0.002),
    "p_high-0.02": TwoPointCost(p_high=0.02),
    "uniform-0-1": UniformCost(0.0, 1.0),
}
OVERSPENDS = pytest.mark.xfail(strict=True, reason="ROADMAP item 1")


@pytest.mark.parametrize(
    "payment_mode, cost",
    [
        pytest.param(
            mode, cost, marks=OVERSPENDS if mode == "posted-price" and cost != "uniform-0-1" else ()
        )
        for mode in ("at-cost", "posted-price")
        for cost in ITEM_1_COSTS
    ],
)
def test_adaptive_mean_spend_within_budget_on_item_1_grid(payment_mode, cost):
    instance = LinearTaskSpec(
        T=3000, cost_model=ITEM_1_COSTS[cost], dim=8, separation=0.35, noise=0.2, T_test=0
    )
    mechanism = MechanismConfig(budget=20.0, payment_mode=payment_mode, price_scale=AdaptiveScale())
    config = ExperimentConfig(instance, mechanism, trials=10, seed=0)
    spends = [r.spend for r in run_trials(config)]
    assert np.mean(spends) <= 1.05 * mechanism.budget


def test_reference_policies_ignore_budget_in_theory_rate():
    inst_seed = trial_streams(3, 0)[0]
    spec = CoinSpec(T=200, epsilon=0.1)
    for policy in ("naive", "baseline"):
        rates = set()
        for budget in (5.0, 500.0):
            config = MechanismConfig(
                budget=budget,
                purchase_policy=policy,
                price_scale=PriorKnowledge(avg_value_cost=1.0),
            )
            mech = Mechanism(config, spec.build(inst_seed))
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


@pytest.mark.parametrize("name", ["linear_correlated.json", "padded_coin_budget.json"])
def test_results_hold_python_floats(name):
    # numpy scalars would leak into the API; the CSV writer formats the
    # transcript's float64 columns by their bits and its bool column as 1/0
    config = dataclasses.replace(load_config(str(SHIPPED_CONFIGS / name)), trials=1)
    (result,) = run_trials(config, record_transcript=True)
    assert type(result.spend) is float
    transcript = result.transcript
    for column in transcript.COLUMNS[1:]:
        kind = np.bool_ if column == "accepted" else np.float64
        assert getattr(transcript, column).dtype == kind, column


def _float_from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


SPECIAL_FLOATS = [
    -0.0, 0.0, math.nan, -math.nan, _float_from_bits(0x7FF8_0000_0000_0001),
    math.inf, -math.inf, 5e-324, -2.5e-310, 1e300, -1e-300, 1e-300, -1e300,
    3.0, -7.0, 2.0**53, 0.1, 1 / 3,
]
floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_subnormal=True))
COLUMN_POOLS = {
    "float": floats,
    "bool": st.booleans(),
    "int": st.integers(-(2**63), 2**63 - 1),
    "str": st.text("abcxyz_-.0123456789", max_size=6),
    # ints a float64 holds exactly, so numpy reads the column as float
    "mixed": st.one_of(st.integers(-(2**53), 2**53), floats),
}
B = runner._CSV_BLOCK_ROWS


@st.composite
def csv_tables(draw):
    """A row count at a block edge or small, and columns of every kind; each
    column repeats values drawn from a small pool, as transcripts do."""
    n = draw(st.sampled_from([0, 1, 2, 7, B - 1, B, B + 1]))
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMN_POOLS)), min_size=1, max_size=6))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    columns = [np.arange(n)]
    for kind in kinds:
        pool = draw(st.lists(COLUMN_POOLS[kind], min_size=1, max_size=8))
        columns.append([pool[i] for i in rng.integers(0, len(pool), n).tolist()])
    return columns


@settings(max_examples=60, deadline=None)
@given(csv_tables())
@example([np.arange(len(SPECIAL_FLOATS)), SPECIAL_FLOATS, SPECIAL_FLOATS[::-1]])
def test_columnar_writer_matches_per_value_formatting(columns):
    header = [f"c{i}" for i in range(len(columns))]
    expected = "".join(
        ",".join(map(_fmt, row)) + "\n" for row in [header, *zip(*columns)]
    ).encode()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        runner._write_csv(path, header, columns)
        assert path.read_bytes() == expected
