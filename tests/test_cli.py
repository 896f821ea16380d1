import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
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
            if value.get("kind", config[key].get("kind")) != config[key].get("kind"):
                config[key] = {}  # another kind reads other keys
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


@pytest.mark.parametrize(
    "mechanism, field",
    [
        # an adaptive posted-price run used to post and pay inf in round 0
        ({"c_max": math.inf, "price_scale": {"mode": "adaptive"}}, "c_max"),
        # a knowledge scale used to blame the prior for the scale 0.0
        ({"budget": math.inf}, "budget"),
    ],
    ids=["c_max", "budget"],
)
def test_non_finite_budget_or_c_max_exits_2(tmp_path, capsys, mechanism, field):
    cfg_path = tmp_path / "config.json"
    _write_config(cfg_path, mechanism=mechanism)
    assert "Infinity" in cfg_path.read_text()
    assert main(["run", "--config", str(cfg_path), "--jobs", "1"]) == 2
    assert f"error: {field}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "transcript.csv").exists()


def test_bad_cost_model_exits_2_before_any_output(tmp_path):
    # an infinite uniform high used to exit 1 with an OverflowError traceback
    # from the first trial, after the output directory was made
    cfg_path = tmp_path / "config.json"
    cost_model = {"kind": "uniform", "high": math.inf}
    _write_config(cfg_path, instance={"kind": "linear", "T": 50, "cost_model": cost_model})
    proc = subprocess.run(
        [sys.executable, "-m", "procure_learn", "run", "--config", str(cfg_path), "--jobs", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "error: need finite 0 <= low <= high, got 0.0, inf" in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "cost_model, mechanism, message",
    [
        ({"kind": "uniform", "high": 2.0}, {}, "cost_model high 2.0 exceeds the mechanism's c_max 1.0"),
        ({"kind": "uniform"}, {"c_max": 0.5}, "cost_model high 1.0 exceeds the mechanism's c_max 0.5"),
        ({"kind": "constant", "value": 1.5}, {}, "cost_model value 1.5 exceeds"),
        ({"kind": "two-point-independent", "high_cost": 3.0}, {}, "cost_model high_cost 3.0 exceeds"),
    ],
    ids=["uniform", "c_max", "constant", "two-point"],
)
def test_cost_model_above_c_max_exits_2_before_any_output(
    tmp_path, capsys, cost_model, mechanism, message
):
    # a uniform high of 2 with the default c_max 1 used to pass the parser,
    # make the output directory and then exit 2 in the first trial
    cfg_path = tmp_path / "config.json"
    _write_config(
        cfg_path, instance={"kind": "linear", "T": 50, "cost_model": cost_model}, mechanism=mechanism
    )
    assert main(["run", "--config", str(cfg_path), "--jobs", "1"]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cost_model_that_never_draws_its_high_cost_is_accepted(tmp_path):
    cfg_path = tmp_path / "config.json"
    cost_model = {"kind": "two-point-independent", "p_high": 0.0, "high_cost": 3.0}
    _write_config(cfg_path, instance={"kind": "linear", "T": 50, "cost_model": cost_model}, trials=1)
    assert main(["run", "--config", str(cfg_path), "--jobs", "1"]) == 0


@pytest.mark.parametrize(
    "overrides, section",
    [
        ({"instance": "coin"}, "instance"),
        ({"mechanism": ["budget", 30.0]}, "mechanism"),
        ({"mechanism": {"price_scale": "adaptive"}}, "price_scale"),
        ({"mechanism": {"learning_rate": 0.1}}, "learning_rate"),
        ({"instance": {"kind": "linear", "T": 50, "cost_model": "uniform"}}, "cost_model"),
    ],
    ids=["instance", "mechanism", "price_scale", "learning_rate", "cost_model"],
)
def test_section_that_is_not_an_object_exits_2(tmp_path, capsys, overrides, section):
    # "price_scale": "adaptive" used to exit 1 with an AttributeError traceback
    cfg_path = tmp_path / "config.json"
    _write_config(cfg_path, **overrides)
    assert main(["run", "--config", str(cfg_path), "--jobs", "1"]) == 2
    assert f"error: {section} must be a JSON object, got " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exits_2(tmp_path, capsys, command, jobs):
    # -3 used to run serially and 0 to mean every core
    cfg_path = tmp_path / "config.json"
    _write_config(cfg_path, budget_grid=[10.0])
    assert main([command, "--config", str(cfg_path), "--jobs", jobs]) == 2
    assert f"--jobs must be at least 1, got {jobs}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_import_leaves_pool_and_verify_unloaded():
    # a --jobs 1 run or sweep never uses them; only pooled runs and verify load them
    unloaded = ("concurrent.futures", "multiprocessing", "procure_learn.verify")
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import procure_learn.cli, sys; "
            f"print([m for m in {unloaded!r} if m in sys.modules])",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("timeout", [None, "30"])
def test_cli_import_sets_openblas_thread_timeout_before_numpy(timeout):
    # the package sets it before numpy (and so OpenBLAS) loads; a user's value wins
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    if timeout is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = timeout
    probe = (
        "import os, sys\n"
        "seen = []\n"
        "def hook(event, args):\n"
        "    if event == 'import' and args[0] == 'numpy' and not seen:\n"
        "        seen.append(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))\n"
        "sys.addaudithook(hook)\n"
        "import procure_learn.cli\n"
        "print(seen)\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == repr([timeout or "4"])


def test_default_jobs_counts_usable_cores(monkeypatch):
    from procure_learn.cli import _jobs

    default = argparse.Namespace(jobs=None)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _jobs(default) == 1  # e.g. under taskset -c 0 on a larger machine
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _jobs(default) == 8  # platforms without affinity masks


def test_overspend_warns_on_stderr(tmp_path, capsys):
    # scale 0.001 puts every coin round in the atom: each is bought at c_max = 1
    cfg_path = tmp_path / "config.json"
    _write_config(
        cfg_path,
        mechanism={"price_scale": {"mode": "fixed", "value": 0.001}},
        budget_grid=[10.0, 1000.0],
    )
    assert main(["run", "--config", str(cfg_path), "--jobs", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "warning: mean spend 300 exceeds 1.05 x budget 30\n"
    assert "spend: 300 +/- 0" in captured.out and "warning" not in captured.out

    assert main(["sweep", "--config", str(cfg_path), "--jobs", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "warning: priced mean spend 300 exceeds 1.05 x budget 10\n"
    assert "warning" not in captured.out


@pytest.mark.parametrize("name", ["coin_at_cost.json", "padded_coin_budget.json"])
def test_shipped_config_does_not_warn(tmp_path, capsys, name):
    # as shipped (20 and 50 trials); a mean over a few trials can stray past
    # 1.05 x budget by chance, as padded_coin_budget.json's does at 3 trials
    shipped = Path(__file__).resolve().parents[1] / "scripts" / "configs" / name
    config = json.loads(shipped.read_text())
    config.update(output_dir=str(tmp_path / "out"))
    cfg_path = tmp_path / name
    cfg_path.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg_path), "--jobs", "1"]) == 0
    assert capsys.readouterr().err == ""


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
    # the vertex oracle is exact
    assert report["gap"] == 0.0
    assert report["lower_bound"] == report["total_loss"]
    assert report["converged"]


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
    assert report["gap"] == report["total_loss"] - report["lower_bound"] >= 0.0
    assert report["converged"] == (report["gap"] <= 1e-4 * 200)


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


# SHA-256 of the CSVs that `run` or `sweep` at --jobs 1 writes for shipped
# configs at a given trial count: (command, trials, {file: digest}). The
# vertex configs pin transcripts of constant and rarely changing columns,
# linear_correlated.json per-round floats that vary every round, and the
# sweep the policy string column; a change to the run loop, the transcript
# assembly or the CSV writer that moves one byte of output fails here
PINNED_OUTPUT = {
    "coin_at_cost.json": ("run", 3, {
        "transcript.csv": "da765e8484db52ca0683ebc4a809bf31063cc95ab12c884ac14611e07c6d1ede",
        "summary.csv": "2cda7f2ab217fe74322b23a0ad2138ff69f2cb45abf4826e6c97113c5d6b013c",
    }),
    "padded_coin_budget.json": ("run", 3, {
        "transcript.csv": "2e1858502d312079ea505c11ace6bb660b0ae725c968b8309390a2dedee278e7",
        "summary.csv": "da65feb15311d2accb21b8ec186232f3a13715ba13f1e8a17dccfd629871d52a",
    }),
    "linear_correlated.json": ("run", 2, {
        "transcript.csv": "ffa127951b318c054f53ae5ed5311a5af9f3df3ea57d0c4e477f1f43a1e53ae4",
        "summary.csv": "0b0a1ec73a5d7a95a33401b54aaec9c1b110a3db61f6366c39fc34d1cec34f6f",
    }),
    "linear_uniform_sweep.json": ("sweep", 1, {
        "sweep.csv": "e44310f57d7b2cf2d1c2852532c4db34743e0e7e2a1601d261f847503f9df6b6",
    }),
}


@pytest.mark.parametrize("name", list(PINNED_OUTPUT))
def test_shipped_config_output_pinned(tmp_path, name):
    command, trials, pinned = PINNED_OUTPUT[name]
    shipped = Path(__file__).resolve().parents[1] / "scripts" / "configs" / name
    config = json.loads(shipped.read_text())
    config.update(trials=trials, output_dir=str(tmp_path / "out"))
    cfg_path = tmp_path / name
    cfg_path.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg_path), "--jobs", "1"]) == 0
    digests = {
        csv: hashlib.sha256((tmp_path / "out" / csv).read_bytes()).hexdigest()
        for csv in pinned
    }
    assert digests == pinned
