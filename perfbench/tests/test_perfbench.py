"""Self-test of the benchmark: metric names and units, failure counting, tracing.

    python3 -m pytest perfbench/tests -q

Takes about 20 seconds: it runs the coin-at-cost workload once per trace mode
with the shortest measuring time.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from checks import OutputChecker, program_columns  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Every metric the benchmark's definition names, with its unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "rounds_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "environment.build_ms": "ms",
    "environment.data_point_calls": "count",
    "environment.data_point_ms": "ms",
    "core.loss_delta_calls": "count",
    "core.loss_delta_ms": "ms",
    "core.grad_calls": "count",
    "core.grad_ms": "ms",
    "ftrl.feed_calls": "count",
    "ftrl.feed_ms": "ms",
    "pricing.sample_price_calls": "count",
    "pricing.survival_calls": "count",
    "pricing.quote_ms": "ms",
    "mechanism.run_us_per_round.priced": "us",
    "mechanism.run_us_per_round.naive": "us",
    "mechanism.run_us_per_round.baseline": "us",
    "mechanism.purchase_rate.priced": "share",
    "mechanism.purchase_rate.naive": "share",
    "mechanism.purchase_rate.baseline": "share",
    "mechanism.run_self_share": "share",
    "mechanism.runs_per_trial": "count",
    "metrics.oracle_ms": "ms",
    "metrics.oracle_iterations": "count",
    "metrics.oracle_converged_share": "share",
    "metrics.risk_calls": "count",
    "metrics.risk_ms": "ms",
    "runner.trial_ms_p50": "ms",
    "runner.trial_ms_tail": "ms",
    "runner.trial_ms_tail_pct": "percentile",
    "runner.trial_samples": "count",
    "runner.csv_write_ms": "ms",
    "runner.csv_bytes": "bytes",
    "runner.pool_busy_share": "share",
    "tracing.overhead_share": "share",
}


def _units(entries):
    return {m["name"]: m["unit"] for m in entries}


def test_definition_lists_every_metric_and_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert _units(spec["end_to_end"]) == END_TO_END
    assert _units(spec["per_layer"]) == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace, expected", [(0, END_TO_END), (1, PER_LAYER)])
def test_run_emits_every_metric_with_its_unit(trace, expected):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "coin-at-cost",
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert "failed_share 0" in lines
    if trace:
        m = result["metrics"]
        assert m["metrics.oracle_iterations"]["value"] == 0  # vertex oracle enumerates
        assert m["mechanism.runs_per_trial"]["value"] == 1


def _small_run_workload():
    w = WORKLOADS["coin-at-cost"]
    config = dict(w.config, instance=dict(w.config["instance"], T=300), trials=2)
    return replace(w, config=config)


def test_truncated_csv_counts_as_failed(tmp_path, capsys):
    from procure_learn.cli import main

    workload = _small_run_workload()
    config_path, out_dir = workload.write_config(tmp_path, seed=3)
    checker = OutputChecker(workload, program_columns())

    assert main(workload.cli_args(config_path, 1)) == 0
    assert checker.check("intact", 0, out_dir)

    transcript = out_dir / "transcript.csv"
    data = transcript.read_bytes()
    transcript.write_bytes(data[: len(data) // 2])
    assert not checker.check("truncated", 0, out_dir)
    assert checker.failed / checker.attempted == 0.5
    assert any(f.startswith("truncated: transcript.csv") for f in checker.failures)


def test_other_failures_are_counted(tmp_path, capsys):
    from procure_learn.cli import main

    workload = _small_run_workload()
    config_path, out_dir = workload.write_config(tmp_path, seed=3)
    checker = OutputChecker(workload, program_columns())
    assert main(workload.cli_args(config_path, 1)) == 0
    assert checker.check("first", 0, out_dir)

    assert not checker.check("nonzero exit", 2, out_dir)
    (out_dir / "summary.csv").unlink()
    assert not checker.check("missing", 0, out_dir)
    assert main(workload.cli_args(config_path, 1)) == 0
    transcript = out_dir / "transcript.csv"
    lines = transcript.read_text().split("\n")
    lines[1] += "0"  # same rows and a finite value, different bytes
    transcript.write_text("\n".join(lines))
    assert not checker.check("changed bytes", 0, out_dir)
    assert checker.failures[-1] == "changed bytes: output bytes differ from the first repeat with this seed"
    assert (checker.attempted, checker.failed) == (4, 3)


def test_absent_target_reports_zero(monkeypatch):
    from procure_learn.environment import ProblemInstance

    monkeypatch.delattr(ProblemInstance, "data_point")
    tracer = Tracer()
    with tracer.invocation():
        pass
    assert "environment.ProblemInstance.data_point" in tracer.absent
    metrics = tracer.metrics(trials_per_invocation=1)
    assert metrics["environment.data_point_calls"] == (0.0, "count")
    assert not hasattr(ProblemInstance, "data_point")
