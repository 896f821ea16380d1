"""The benchmark's workloads: fixed-shape configs whose only input is the seed.

Each workload has the shape of a config shipped in ``scripts/configs/``, with
the trial count sized so that one CLI invocation takes a few seconds and a
run of the benchmark repeats it ten or more times. BENCHMARK.json and
README.md say why each workload is here: which layers it stresses, which it
bypasses, and the measurements behind the choice.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

# Policies and budgets of the sweep workload, in the order sweep.csv lists them.
SWEEP_POLICIES = ("priced", "naive", "baseline")
SWEEP_BUDGETS = (100.0, 200.0, 400.0)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "run" or "sweep"
    config: dict  # the config JSON without seed and output_dir
    pool: bool  # True: --jobs min(2, nproc); False: --jobs 1
    runs_per_trial: int  # Mechanism.run calls per trial, as the workload states them

    @property
    def trials(self) -> int:
        return self.config["trials"]

    @property
    def horizon(self) -> int:
        return self.config["instance"]["T"]

    @property
    def rounds(self) -> int:
        """Simulated mechanism rounds of one CLI invocation."""
        return self.trials * self.runs_per_trial * self.horizon

    def jobs(self) -> int:
        return min(2, os.cpu_count() or 1) if self.pool else 1

    def write_config(self, directory: Path, seed: int) -> tuple[Path, Path]:
        """Write the config for ``seed`` into ``directory``; return (config, output dir)."""
        out_dir = directory / "out"
        config = dict(self.config, seed=seed, output_dir=str(out_dir))
        path = directory / f"{self.name}.json"
        path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
        return path, out_dir

    def cli_args(self, config_path: Path, jobs: int) -> list[str]:
        return [self.command, "--config", str(config_path), "--jobs", str(jobs)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="coin-at-cost",
            command="run",
            config={
                "instance": {"kind": "coin", "T": 20000, "epsilon": 0.05, "bias": "heads"},
                "mechanism": {
                    "budget": 400.0,
                    "payment_mode": "at-cost",
                    "purchase_policy": "priced",
                    "price_scale": {"mode": "from-knowledge", "avg_value_cost": 1.0},
                    "learning_rate": {"mode": "theory"},
                },
                "trials": 10,
            },
            pool=False,
            runs_per_trial=1,
        ),
        Workload(
            name="linear-sweep",
            command="sweep",
            config={
                "instance": {
                    "kind": "linear",
                    "T": 8000,
                    "T_test": 1500,
                    "dim": 32,
                    "clusters": 2,
                    "separation": 0.35,
                    "noise": 0.2,
                    "cost_model": {"kind": "uniform", "low": 0.0, "high": 1.0},
                },
                "mechanism": {
                    "budget": 200.0,
                    "payment_mode": "posted-price",
                    "purchase_policy": "priced",
                    "price_scale": {"mode": "adaptive"},
                    "learning_rate": {"mode": "fixed", "value": 0.08},
                },
                "trials": 4,
                "budget_grid": list(SWEEP_BUDGETS),
            },
            pool=True,
            runs_per_trial=len(SWEEP_POLICIES) * len(SWEEP_BUDGETS),
        ),
        Workload(
            name="linear-correlated",
            command="run",
            config={
                "instance": {
                    "kind": "linear",
                    "T": 1000,
                    "T_test": 4000,
                    "dim": 24,
                    "clusters": 4,
                    "separation": 0.8,
                    "spread": 0.35,
                    "noise": 0.14,
                    "cost_model": {
                        "kind": "two-point-correlated",
                        "p_high": 0.2,
                        "high_cost": 1.0,
                        "target_groups": [0, 4],
                    },
                },
                "mechanism": {
                    "budget": 50.0,
                    "payment_mode": "posted-price",
                    "purchase_policy": "priced",
                    "price_scale": {"mode": "adaptive"},
                    "learning_rate": {"mode": "fixed", "value": 0.45},
                },
                "trials": 10,
            },
            pool=False,
            runs_per_trial=1,
        ),
    )
}
