import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from procure_learn import runner
from procure_learn.cli import main

from oracles import write_idx_images, write_idx_labels


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


def _child(args, unbuffered=False, stdout=subprocess.PIPE, stderr=subprocess.PIPE):
    """``python -m procure_learn`` with ``args``; its stdout is block-buffered
    unless ``unbuffered``, whatever the calling environment says."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [sys.executable, "-m", "procure_learn", *args]
    return subprocess.run(argv, env=env, stdout=stdout, stderr=stderr, text=True)


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


def test_seed_override_changes_results(tmp_path, monkeypatch, capsys):
    # --seed overrides the config's seed, for run and oracle alike; the
    # environment variable that used to override it is not read, even when
    # it is not an integer
    cfg_path = tmp_path / "config.json"
    _write_config(cfg_path)

    def outputs(*args):
        """The run's two CSVs and printout, then the oracle's report."""
        assert main(["run", "--config", str(cfg_path), *args]) == 0
        printed = capsys.readouterr().out
        assert main(["oracle", "--config", str(cfg_path), *args]) == 0
        csvs = [(tmp_path / "out" / name).read_bytes() for name in ("transcript.csv", "summary.csv")]
        return [*csvs, printed, capsys.readouterr().out]

    base = outputs()
    for value in ("999", "abc"):
        monkeypatch.setenv("PROCURE_LEARN_SEED", value)
        assert outputs() == base
    assert outputs("--seed", "11") == base  # the config's own seed
    assert all(new != old for new, old in zip(outputs("--seed", "999"), base))


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
    "mechanism, message",
    [
        # an infinite c_max used to post and pay inf in round 0; money is
        # now in units of the largest cost, and the key is refused by name
        ({"c_max": math.inf, "price_scale": {"mode": "adaptive"}}, "unknown key(s) 'c_max'"),
        # a knowledge scale used to blame the prior for the scale 0.0
        ({"budget": math.inf}, "budget"),
        # 1e-6 of it underflowed to 0, and the first adaptive purchase
        # raised ZeroDivisionError after the output directory was made
        (
            {"budget": 1e-320, "price_scale": {"mode": "adaptive"}},
            "budget 1e-320 is below the smallest budget 1e-100",
        ),
    ],
    ids=["c_max", "budget", "tiny-budget"],
)
def test_out_of_range_budget_or_deleted_c_max_exits_2(tmp_path, capsys, mechanism, message):
    cfg_path = tmp_path / "config.json"
    _write_config(cfg_path, mechanism=mechanism)
    written = json.loads(cfg_path.read_text())["mechanism"]
    assert all(written[key] == value for key, value in mechanism.items())
    assert main(["run", "--config", str(cfg_path), "--jobs", "1"]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bad_cost_model_exits_2_before_any_output(tmp_path):
    # an infinite uniform high used to exit 1 with an OverflowError traceback
    # from the first trial, after the output directory was made
    cfg_path = tmp_path / "config.json"
    cost_model = {"kind": "uniform", "high": math.inf}
    _write_config(cfg_path, instance={"kind": "linear", "T": 50, "cost_model": cost_model})
    proc = _child(["run", "--config", str(cfg_path), "--jobs", "1"])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "error: need 0 <= low <= high <= 1, got 0.0, inf" in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "cost_model, mechanism, message",
    [
        ({"kind": "uniform", "high": 2.0}, {}, "need 0 <= low <= high <= 1, got 0.0, 2.0"),
        ({"kind": "uniform"}, {"c_max": 0.5}, "unknown key(s) 'c_max' in mechanism"),
        # a fixed cost is a uniform one of zero width; the old kind is refused
        ({"kind": "constant", "value": 1.5}, {}, "unknown cost_model kind 'constant'"),
        ({"kind": "two-point-independent", "high_cost": 3.0}, {}, "high_cost must lie in [0, 1], got 3.0"),
        # a high cost above 1 used to be accepted when p_high is 0
        (
            {"kind": "two-point-independent", "p_high": 0.0, "high_cost": 3.0},
            {}, "high_cost must lie in [0, 1], got 3.0",
        ),
    ],
    ids=["uniform", "c_max", "constant", "two-point", "two-point-never-drawn"],
)
def test_cost_model_above_unit_cost_exits_2_before_any_output(
    tmp_path, capsys, cost_model, mechanism, message
):
    # money is in units of the largest cost: each cost model refuses a cost
    # above 1 that it could draw (a uniform high of 2 used to pass the
    # parser, make the output directory and then exit 2 in the first trial),
    # and a config that still sets c_max is refused by name
    cfg_path = tmp_path / "config.json"
    _write_config(
        cfg_path, instance={"kind": "linear", "T": 50, "cost_model": cost_model}, mechanism=mechanism
    )
    assert main(["run", "--config", str(cfg_path), "--jobs", "1"]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize(
    "instance",
    [{"kind": "coin", "T": 50}, {"kind": "coin", "T": 50, "coin_fraction": 0.5}],
    ids=["coin", "padded-coin"],
)
def test_coin_config_with_removed_key_exits_2_before_any_output(tmp_path, command, instance):
    # a coin flip costs 1; a c_max of 0.5 used to pass the parser, make the
    # output directory and then exit 2 in the first trial. The key is gone,
    # money being in units of the largest cost, and both commands refuse it
    # by name before any output
    cfg_path = tmp_path / "config.json"
    _write_config(
        cfg_path,
        instance=instance,
        mechanism={"budget": 5.0, "c_max": 0.5},
        budget_grid=[5.0, 10.0],
    )
    proc = _child([command, "--config", str(cfg_path), "--jobs", "1"])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "error: unknown key(s) 'c_max' in mechanism" in proc.stderr
    assert not (tmp_path / "out").exists()


def test_padded_coin_of_only_filler_is_accepted(tmp_path):
    # round(0.01 * 40) flips: the stream is all free filler, worthless to
    # the learner, so no run buys or pays for any of it
    cfg_path = tmp_path / "config.json"
    instance = {"kind": "coin", "T": 40, "coin_fraction": 0.01}
    _write_config(cfg_path, instance=instance, trials=1)
    assert main(["run", "--config", str(cfg_path), "--jobs", "1"]) == 0
    summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert summary[1].split(",")[2:4] == ["0", "0"]  # spend, purchases


LINEAR = {"kind": "linear", "T": 50, "cost_model": {"kind": "uniform"}}


def _idx_instance(tmp, truncate=False):
    """An idx instance of eight 2 x 2 images in ``tmp``; with ``truncate``
    the image file lacks its last byte."""
    images, labels = tmp / "images.idx", tmp / "labels.idx"
    write_idx_images(images, np.zeros((8, 2, 2), dtype=np.uint8))
    if truncate:
        images.write_bytes(images.read_bytes()[:-1])
    write_idx_labels(labels, np.array([9, 1] * 4, dtype=np.uint8))
    return {"kind": "idx", "images": str(images), "labels": str(labels), "cost_model": {"kind": "uniform"}}


LATE_REFUSALS = {
    # (config overrides, or None for the shipped digits_idx.json; extra
    # arguments; extra environment; the whole error line), or a function of
    # the test's directory that gives them
    "padded-coin-fraction": (
        {"instance": {"coin_fraction": 0.0}}, [], {}, "coin_fraction must lie in (0, 1], got 0.0",
    ),
    # spellings that only restated another: a coin of coin_fraction f, and
    # the uniform cost of low = high = v
    "padded-coin-kind": (
        {"instance": {"kind": "padded-coin", "T": 50, "coin_fraction": 0.5}},
        [], {}, "unknown instance kind 'padded-coin'",
    ),
    "constant-kind": (
        {"instance": {**LINEAR, "cost_model": {"kind": "constant", "value": 0.0}}},
        [], {}, "unknown cost_model kind 'constant'",
    ),
    "coin-T": ({"instance": {"T": 0}}, [], {}, "an instance needs a horizon T >= 1, got T = 0"),
    "coin-epsilon": ({"instance": {"epsilon": 0.9}}, [], {}, "epsilon must lie in [0, 0.5), got 0.9"),
    "coin-bias": ({"instance": {"bias": "sideways"}}, [], {}, "bias must be 'heads' or 'tails', got 'sideways'"),
    "linear-dim": ({"instance": {**LINEAR, "dim": 0}}, [], {}, "need dimension >= 2, got 0"),
    "linear-clusters": (
        {"instance": {**LINEAR, "clusters": 0}}, [], {}, "need at least one cluster per class, got 0",
    ),
    "linear-T_test": ({"instance": {**LINEAR, "T_test": -1}}, [], {}, "need T_test >= 0, got -1"),
    "linear-radius": (
        {"instance": {**LINEAR, "radius": -1}}, [], {}, "ball radius must be positive and finite",
    ),
    "linear-noise": ({"instance": {**LINEAR, "noise": math.nan}}, [], {}, "noise must be finite, got nan"),
    "linear-separation": (
        {"instance": {**LINEAR, "separation": math.inf}}, [], {}, "separation must be finite, got inf",
    ),
    "linear-spread": (
        {"instance": {**LINEAR, "spread": -math.inf}}, [], {}, "spread must be finite, got -inf",
    ),
    "correlated-target": (
        {"instance": {**LINEAR, "cost_model": {"kind": "two-point-correlated", "target_groups": [99]}}},
        [], {}, "target_groups [99] are not among the instance's tags [0, 1, 2, 3]",
    ),
    "idx-limit": lambda tmp: (
        {"instance": {**_idx_instance(tmp), "limit": 0}}, [], {}, "limit must be >= 1, got 0",
    ),
    "idx-holdout": lambda tmp: (
        {"instance": {**_idx_instance(tmp), "holdout_fraction": 1}},
        [], {}, "holdout_fraction must lie in [0, 1), got 1.0",
    ),
    "idx-truncated-images": lambda tmp: (
        {"instance": _idx_instance(tmp, truncate=True)},
        [], {}, f"{tmp / 'images.idx'}: truncated file, needed 32 bytes at byte offset 16",
    ),
    # the theory rate has no multiplier, and prior knowledge is
    # avg_value_cost with avg_value: the keys that only restated it are gone
    "theory-scale": (
        {"mechanism": {"learning_rate": {"mode": "theory", "scale": 0}}},
        [], {}, "unknown key(s) 'scale' in learning_rate",
    ),
    "avg_sqrt_cost-key": (
        {"mechanism": {"price_scale": {"mode": "from-knowledge", "avg_sqrt_cost": 0.5}}},
        [], {}, "unknown key(s) 'avg_sqrt_cost' in price_scale",
    ),
    "avg_cost-key": (
        {"mechanism": {"price_scale": {"mode": "from-knowledge", "avg_value_cost": 0.5, "avg_cost": 0.25}}},
        [], {}, "unknown key(s) 'avg_cost' in price_scale",
    ),
    # no sequence has avg_value_cost above avg_value; on the shipped padded
    # coin this prior used to price 6x too low and spend 6 budgets
    "inconsistent-prior": (
        {"mechanism": {"price_scale": {"mode": "from-knowledge", "avg_value_cost": 0.55, "avg_value": 0.3}}},
        [], {}, "avg_value_cost 0.55 exceeds avg_value 0.3; every sequence has avg_value_cost <= avg_value",
    ),
    "budget-grid": ({"budget_grid": [-1]}, [], {}, "budget must be positive and finite, got -1.0"),
    # a sweep used to run every cell of a repeated budget twice and write
    # each of its sweep.csv rows twice
    "budget-grid-repeat": ({"budget_grid": [1, 4, 1]}, [], {}, "budget_grid repeats the budget 1.0"),
    "config-seed": ({"seed": -1}, [], {}, "seed must be >= 0, got -1"),
    "flag-seed": ({}, ["--seed", "-2"], {}, "seed must be >= 0, got -2"),
    "idx-files-absent": (
        None, [], {},
        "cannot read the images file '/path/to/train-images-idx3-ubyte': No such file or directory",
    ),
}


@pytest.mark.parametrize("case", list(LATE_REFUSALS))
def test_config_its_builder_refuses_exits_2_before_any_output(tmp_path, case):
    # each used to pass the parser, make the output directory and only then
    # exit 2 in the first trial; a negative seed ended in numpy's "expected
    # non-negative integer"
    case = LATE_REFUSALS[case]
    overrides, args, env, message = case(tmp_path) if callable(case) else case
    cfg_path = tmp_path / "config.json"
    if overrides is None:  # the shipped config, writing under tmp_path
        shipped = Path(__file__).resolve().parents[1] / "scripts" / "configs" / "digits_idx.json"
        config = {**json.loads(shipped.read_text()), "output_dir": str(tmp_path / "out")}
        cfg_path.write_text(json.dumps(config))
    else:
        _write_config(cfg_path, **overrides)
    proc = subprocess.run(
        [sys.executable, "-m", "procure_learn", "run", "--config", str(cfg_path), "--jobs", "1", *args],
        capture_output=True,
        text=True,
        env={**os.environ, **env},
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert [line for line in proc.stderr.splitlines() if "error:" in line] == [f"error: {message}"]
    assert not (tmp_path / "out").exists()


def test_config_too_large_to_allocate_exits_2(tmp_path, capsys):
    # numpy refuses a test set of 10**12 rows at once, allocating nothing;
    # the MemoryError used to end the run with a traceback and exit 1
    cfg_path = tmp_path / "config.json"
    _write_config(cfg_path, instance={**LINEAR, "T": 10, "T_test": 10**12})
    assert main(["run", "--config", str(cfg_path), "--jobs", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1


def _section_keys(tag, *classes):
    """A section's tag, if it has one, then each field of its classes once."""
    fields = (f.name for cls in classes for f in dataclasses.fields(cls))
    return list(dict.fromkeys([*([tag] if tag else []), *fields]))


# the keys of each config section, read from the dataclasses the parser
# reads; the property below sets any of them
SCHEMA_KEYS = {
    "config": _section_keys(None, runner.ExperimentConfig),
    "instance": _section_keys("kind", *runner._INSTANCE_KINDS.values()),
    "cost_model": _section_keys("kind", *runner._COST_MODEL_KINDS.values()),
    "mechanism": _section_keys(None, runner.MechanismConfig),
    "price_scale": _section_keys("mode", *runner._SCALE_MODES.values()),
    "learning_rate": _section_keys("mode", *runner._RATE_MODES.values()),
}
ODD_VALUES = [
    0, 1, 2, -1, -0.5, 0.5, math.nan, math.inf, -math.inf, True, False, "x", "5", None,
    {}, [], [1], {"kind": "x"},
]


@st.composite
def _config_trees(draw, root):
    """A config of T = 40 and 2 trials for any instance kind, cost model,
    price scale and learning rate, with up to three keys of any section set
    to an odd value. The deleted spellings ``padded-coin`` and ``constant``
    are drawn too, to be refused."""
    kind = draw(st.sampled_from(["coin", "padded-coin", "linear", "idx"]))
    cost = draw(st.sampled_from([
        {"kind": "constant", "value": 0.5},
        {"kind": "uniform", "low": 0.5, "high": 0.5},
        {"kind": "uniform"},
        {"kind": "two-point-independent", "p_high": 0.3},
        {"kind": "two-point-correlated", "p_high": 0.2, "target_groups": [9 if kind == "idx" else 0]},
    ]))
    instance = {
        "coin": {"kind": "coin", "T": 40, "coin_fraction": draw(st.floats(0.01, 1.0))},
        "padded-coin": {"kind": "padded-coin", "T": 40, "coin_fraction": 0.5},
        "linear": {**LINEAR, "T": 40, "T_test": 10, "dim": 3},
        "idx": _idx_instance(root),
    }[kind]
    if "cost_model" in instance:
        instance["cost_model"] = cost
    scale = draw(st.sampled_from([
        {"mode": "adaptive"}, {"mode": "fixed", "value": 2.0}, {"mode": "from-knowledge", "avg_value_cost": 0.5},
    ]))
    rate = draw(st.sampled_from([{"mode": "theory"}, {"mode": "fixed", "value": 0.1}]))
    mechanism = {"budget": 5.0, "price_scale": scale, "learning_rate": rate}
    config = {
        "instance": instance, "mechanism": mechanism, "trials": 2, "seed": 1,
        "output_dir": str(root / "out"), "budget_grid": [5.0],
    }
    config = json.loads(json.dumps(config))  # fresh dicts: the sampled ones are shared
    sections = {
        "config": config, "instance": config["instance"],
        "cost_model": config["instance"].get("cost_model", {}), "mechanism": config["mechanism"],
        "price_scale": config["mechanism"]["price_scale"],
        "learning_rate": config["mechanism"]["learning_rate"],
    }
    for _ in range(draw(st.integers(0, 3))):
        section = draw(st.sampled_from(sorted(SCHEMA_KEYS)))
        key = draw(st.sampled_from(SCHEMA_KEYS[section]))
        value = draw(st.sampled_from(ODD_VALUES))
        if not (key == "output_dir" and isinstance(value, str)):  # keep output under root
            sections[section][key] = value
    return config


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_every_config_runs_or_is_refused_before_any_output(tmp_path_factory, data):
    root = tmp_path_factory.mktemp("config")
    config = data.draw(_config_trees(root))
    path = root / "config.json"
    path.write_text(json.dumps(config))
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(["run", "--config", str(path), "--jobs", "1"])
    out = root / "out"
    if code == 0:
        assert (out / "transcript.csv").is_file() and (out / "summary.csv").is_file()
    else:
        errors = [line for line in stderr.getvalue().splitlines() if "error:" in line]
        assert code == 2 and len(errors) == 1 and errors[0].startswith("error: "), stderr.getvalue()
        assert not out.exists()


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
    # a --jobs 1 run or sweep never uses them; only pooled runs and verify
    # load them. The import is the start-up every command pays, so it loads
    # the run path's modules and otherwise only the standard library and
    # numpy: an import added to it fails here
    probe = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import procure_learn.cli\n"
        "added = set(sys.modules) - before\n"
        "print(json.dumps({m: getattr(sys.modules[m], '__file__', None) is None for m in added}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    added = json.loads(proc.stdout)  # module name: whether it has no file
    run_path = ("cli", "core", "environment", "ftrl", "mechanism", "metrics", "pricing", "runner")
    package = sorted(m for m in added if m.split(".")[0] == "procure_learn")
    assert package == ["procure_learn"] + [f"procure_learn.{m}" for m in run_path]
    assert [m for m in ("concurrent.futures", "multiprocessing") if m in added] == []
    other = [
        m
        for m, fileless in added.items()
        if m.split(".")[0] not in {"procure_learn", "numpy", *sys.stdlib_module_names}
        and not (fileless and (m == "cython_runtime" or m.startswith("_cython_")))
    ]
    assert other == []  # numpy's Cython runtime modules have no file


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
    # scale 0.001 puts every coin round in the atom: each is bought at price 1
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


# price scale 0 puts every coin round in the atom: each is bought at price 1
OVERSPEND = {
    "instance": {"T": 200},
    "mechanism": {"budget": 5.0, "price_scale": {"mode": "fixed", "value": 0.0}},
}


def test_process_outputs_match_in_process_main(tmp_path, capsys):
    in_process = tmp_path / "in_process" / "config.json"
    child = tmp_path / "child" / "config.json"
    for path in (in_process, child):
        path.parent.mkdir()
        _write_config(path, **OVERSPEND)
    assert main(["run", "--config", str(in_process), "--jobs", "1"]) == 0
    expected = capsys.readouterr()

    proc = _child(["run", "--config", str(child), "--jobs", "1"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    out = tmp_path / "child" / "out"
    assert lines[0] == f"wrote {out / 'transcript.csv'} and {out / 'summary.csv'}"
    assert lines[1:] == expected.out.splitlines()[1:] and len(lines) == 5
    assert "spend: 200 +/- 0" in lines
    # both streams reach their pipes although the process skips the teardown
    assert proc.stderr == expected.err == "warning: mean spend 200 exceeds 1.05 x budget 5\n"
    for name in ("transcript.csv", "summary.csv"):
        assert (out / name).read_bytes() == (tmp_path / "in_process" / "out" / name).read_bytes()


def test_process_sweep_jobs_do_not_change_output(tmp_path):
    written = []
    for jobs in ("2", "1"):
        cfg_path = tmp_path / jobs / "config.json"
        cfg_path.parent.mkdir()
        _write_config(cfg_path, budget_grid=[10.0, 30.0])
        proc = _child(["sweep", "--config", str(cfg_path), "--jobs", jobs])
        assert proc.returncode == 0, proc.stderr
        assert len(proc.stdout.splitlines()) == 1 + 3 * 2
        written.append((cfg_path.parent / "out" / "sweep.csv").read_bytes())
    assert written[0] == written[1]


def test_usage_error_exits_2_from_a_process():
    proc = _child(["run"])
    assert proc.returncode == 2
    assert "the following arguments are required: --config" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "unbuffered, both",
    [(False, False), (True, False), (False, True), (True, True)],
    ids=["buffered", "unbuffered", "both-closed-buffered", "both-closed-unbuffered"],
)
def test_closed_stdout_pipe_exit(tmp_path, unbuffered, both):
    # buffered, the final flush in entry fails (it used to exit 120 with a
    # BrokenPipeError traceback); unbuffered, the first print fails inside
    # main. Either way the output is unwritable: exit 2, one error line. With
    # stderr closed too, the overspend warning and the error line cannot be
    # written either (buffered, that used to exit 120): exit 2 all the same
    cfg_path = tmp_path / "config.json"
    _write_config(cfg_path, **OVERSPEND)
    read_end, write_end = os.pipe()
    os.close(read_end)
    stderr = write_end if both else subprocess.PIPE
    try:
        proc = _child(["run", "--config", str(cfg_path), "--jobs", "1"], unbuffered, write_end, stderr)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    if both:
        return  # nothing the child wrote can be read
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert errors == ["error: [Errno 32] Broken pipe"]
    assert "Traceback" not in proc.stderr


def test_entry_flushes_both_streams_then_exits_with_mains_code(monkeypatch):
    from procure_learn import cli

    class Exited(Exception):
        pass

    out, err = io.BytesIO(), io.BytesIO()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(out, encoding="utf-8"))
    monkeypatch.setattr(sys, "stderr", io.TextIOWrapper(err, encoding="utf-8"))

    def fake_main():
        sys.stdout.write("partial")  # no newline: it stays in the buffer until a flush
        sys.stderr.write("warned")
        return 3

    def fake_exit(code):
        raise Exited(code, out.getvalue(), err.getvalue())

    monkeypatch.setattr(cli, "main", fake_main)
    monkeypatch.setattr(os, "_exit", fake_exit)
    with pytest.raises(Exited) as exited:
        cli.entry()
    assert exited.value.args == (3, b"partial", b"warned")


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
        instance={"kind": "coin", "T": 1000, "coin_fraction": 0.3, "epsilon": 0.1},
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
            "cost_model": {"kind": "uniform", "low": 0.0, "high": 0.0},
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
        "transcript.csv": "04c7078ab988888fb074ae6c8101320ba2c174c86be9f525dcb48c12b0e7d491",
        "summary.csv": "abe1ef50cc8169c5a3cf568d24d1c235a35bffb41615fc42d8bf2c2e64a01387",
    }),
    "padded_coin_budget.json": ("run", 3, {
        "transcript.csv": "78261f00e459d0d3a2c2fba49b4f4234437969c98ceff08e176b3d9509af4478",
        "summary.csv": "b2125258e4a91996f4142bc2dc6601483861bf8d553a1c1487fe5ecb35ac9a4b",
    }),
    "linear_correlated.json": ("run", 2, {
        "transcript.csv": "bf978c6df94fc2d71350ee2173288c6ecd2c86ab38972a55088afaedb46bb1e2",
        "summary.csv": "e8af116555fe6f8f021df5d8b3fc4effb12638fc29467fc3a28ef156cbe2f68b",
    }),
    "linear_uniform_sweep.json": ("sweep", 1, {
        "sweep.csv": "639db71541f160ef49ef85a3116230b18b211125a631f27692c2c73a146a6462",
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
