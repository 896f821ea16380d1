import hashlib
import json
import os
from pathlib import Path

import pytest

from procure_learn.cli import main


def _write_config(path, **overrides):
    config = {
        "instance": {"kind": "coin", "T": 300, "epsilon": 0.1, "bias": "heads"},
        "mechanism": {
            "budget": 30.0,
            "payment_mode": "posted-price",
            "purchase_policy": "priced",
            "price_scale": {
                "mode": "from-knowledge",
                "avg_value_cost": 1.0,
                "avg_value": 1.0,
            },
            "learning_rate": {"mode": "theory"},
        },
        "trials": 3,
        "seed": 11,
        "output_dir": str(path.parent / "out"),
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and key in config and isinstance(config[key], dict):
            config[key].update(value)
        else:
            config[key] = value
    path.write_text(json.dumps(config))
    return config


def test_run_writes_deterministic_artifacts(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    _write_config(cfg_path)
    assert main(["run", "--config", str(cfg_path)]) == 0
    out = tmp_path / "out"
    transcript = (out / "transcript.csv").read_bytes()
    summary = (out / "summary.csv").read_bytes()
    printed = capsys.readouterr().out
    assert "regret:" in printed and "spend:" in printed

    header = transcript.decode().splitlines()[0]
    assert header == "t,delta,cost,price,accepted,q,payment,loss,cum_spend"
    assert summary.decode().splitlines()[0].startswith("trial,seed,spend,purchases,regret")
    assert len(transcript.decode().splitlines()) == 301

    # identical config, identical bytes
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert (out / "transcript.csv").read_bytes() == transcript
    assert (out / "summary.csv").read_bytes() == summary


def test_run_jobs_do_not_change_output(tmp_path):
    cfg_path = tmp_path / "config.json"
    _write_config(cfg_path, budget_grid=[10.0, 30.0])
    out = tmp_path / "out"
    for command, files in (
        ("run", ("transcript.csv", "summary.csv")),
        ("sweep", ("sweep.csv",)),
    ):
        assert main([command, "--config", str(cfg_path), "--jobs", "1"]) == 0
        one = [(out / name).read_bytes() for name in files]
        assert main([command, "--config", str(cfg_path), "--jobs", "2"]) == 0
        assert [(out / name).read_bytes() for name in files] == one


def test_seed_override_changes_results(tmp_path, monkeypatch):
    cfg_path = tmp_path / "config.json"
    _write_config(cfg_path)
    assert main(["run", "--config", str(cfg_path)]) == 0
    base = (tmp_path / "out" / "summary.csv").read_bytes()

    monkeypatch.setenv("PROCURE_LEARN_SEED", "999")
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "out" / "summary.csv").read_bytes() != base
    monkeypatch.delenv("PROCURE_LEARN_SEED")

    assert main(["run", "--config", str(cfg_path), "--seed", "999"]) == 0
    overridden = (tmp_path / "out" / "summary.csv").read_bytes()
    assert overridden != base
    # the flag must not leak into the process environment
    assert "PROCURE_LEARN_SEED" not in os.environ


def test_baseline_spend_column_zero(tmp_path):
    cfg_path = tmp_path / "config.json"
    _write_config(
        cfg_path,
        mechanism={"purchase_policy": "baseline"},
        trials=1,
    )
    assert main(["run", "--config", str(cfg_path)]) == 0
    lines = (tmp_path / "out" / "transcript.csv").read_text().splitlines()[1:]
    payments = [float(line.split(",")[6]) for line in lines]
    assert payments == [0.0] * 300
    spends = [float(line.split(",")[8]) for line in lines]
    assert spends == [0.0] * 300


def test_naive_budget_five(tmp_path):
    cfg_path = tmp_path / "config.json"
    _write_config(
        cfg_path,
        mechanism={"purchase_policy": "naive", "budget": 5.0},
        trials=1,
    )
    assert main(["run", "--config", str(cfg_path)]) == 0
    rows = (tmp_path / "out" / "transcript.csv").read_text().splitlines()[1:]
    accepted = [row.split(",")[4] for row in rows]
    payments = [float(row.split(",")[6]) for row in rows]
    assert accepted[:5] == ["1"] * 5 and set(accepted[5:]) == {"0"}
    assert payments[:5] == [1.0] * 5 and sum(payments) == 5.0


def test_invalid_config_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"instance": {"kind": "coin", "T": 10}}))
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert "error:" in capsys.readouterr().err

    cfg2 = tmp_path / "bad2.json"
    cfg2.write_text(json.dumps({
        "instance": {"kind": "warp", "T": 10},
        "mechanism": {"budget": 1.0},
    }))
    assert main(["run", "--config", str(cfg2)]) == 2

    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2


def test_zero_round_config_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    _write_config(cfg_path, instance={"T": 0})
    assert main(["run", "--config", str(cfg_path), "--jobs", "1"]) == 2
    assert "horizon T >= 1, got T = 0" in capsys.readouterr().err


def test_sweep_rows_and_baseline_invariance(tmp_path):
    cfg_path = tmp_path / "config.json"
    _write_config(
        cfg_path,
        trials=2,
        budget_grid=[10.0, 20.0, 40.0],
        mechanism={"payment_mode": "at-cost", "price_scale": {"mode": "from-knowledge", "avg_value_cost": 1.0}},
    )
    assert main(["sweep", "--config", str(cfg_path)]) == 0
    lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("policy,budget,trials,regret_mean")
    assert len(lines) == 1 + 3 * 3  # three policies x three budgets

    by_policy = {}
    for line in lines[1:]:
        parts = line.split(",")
        by_policy.setdefault(parts[0], []).append(",".join(parts[2:]))
    # baseline ignores the budget: identical aggregate cells across the grid
    assert len(set(by_policy["baseline"])) == 1
    assert len(by_policy["priced"]) == 3


def test_sweep_requires_grid(tmp_path):
    cfg_path = tmp_path / "config.json"
    _write_config(cfg_path)
    assert main(["sweep", "--config", str(cfg_path)]) == 2


def test_oracle_padded_coin(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    _write_config(
        cfg_path,
        instance={"kind": "padded-coin", "T": 1000, "coin_fraction": 0.3, "epsilon": 0.1},
    )
    assert main(["oracle", "--config", str(cfg_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["stats"]["opt_value_cost"] == pytest.approx(0.3)
    assert report["stats"]["avg_cost"] == pytest.approx(0.3)


def test_oracle_heads_vertex(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    _write_config(cfg_path, instance={"kind": "coin", "T": 2000, "epsilon": 0.1, "bias": "heads"})
    assert main(["oracle", "--config", str(cfg_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["hypothesis_head"] == [1.0, 0.0]


def test_oracle_zero_cost_instance(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    _write_config(
        cfg_path,
        instance={
            "kind": "linear",
            "T": 200,
            "T_test": 50,
            "cost_model": {"kind": "constant", "value": 0.0},
        },
    )
    assert main(["oracle", "--config", str(cfg_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["stats"]["avg_cost"] == 0.0
    assert report["stats"]["opt_value_cost"] == 0.0


def test_linear_config_roundtrip(tmp_path):
    cfg_path = tmp_path / "config.json"
    _write_config(
        cfg_path,
        instance={
            "kind": "linear",
            "T": 100,
            "T_test": 20,
            "dim": 3,
            "cost_model": {
                "kind": "two-point-correlated",
                "p_high": 0.2,
                "high_cost": 1.0,
                "target_groups": [0, 2],
            },
        },
        mechanism={"price_scale": {"mode": "adaptive"}, "learning_rate": {"mode": "fixed", "value": 0.1}},
        trials=1,
    )
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "out" / "summary.csv").exists()


# SHA-256 of the CSVs of `run --jobs 1` on each shipped vertex config with
# three trials; a change to the run loop, the transcript assembly or the CSV
# writer that moves one byte of output fails here
PINNED_OUTPUT = {
    "coin_at_cost.json": {
        "transcript.csv": "da765e8484db52ca0683ebc4a809bf31063cc95ab12c884ac14611e07c6d1ede",
        "summary.csv": "2cda7f2ab217fe74322b23a0ad2138ff69f2cb45abf4826e6c97113c5d6b013c",
    },
    "padded_coin_budget.json": {
        "transcript.csv": "2e1858502d312079ea505c11ace6bb660b0ae725c968b8309390a2dedee278e7",
        "summary.csv": "da65feb15311d2accb21b8ec186232f3a13715ba13f1e8a17dccfd629871d52a",
    },
}


@pytest.mark.parametrize("name", list(PINNED_OUTPUT))
def test_vertex_configs_output_pinned(tmp_path, name):
    shipped = Path(__file__).resolve().parents[1] / "scripts" / "configs" / name
    config = json.loads(shipped.read_text())
    config.update(trials=3, output_dir=str(tmp_path / "out"))
    cfg_path = tmp_path / name
    cfg_path.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg_path), "--jobs", "1"]) == 0
    digests = {
        csv: hashlib.sha256((tmp_path / "out" / csv).read_bytes()).hexdigest()
        for csv in PINNED_OUTPUT[name]
    }
    assert digests == PINNED_OUTPUT[name]
