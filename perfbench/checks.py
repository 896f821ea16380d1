"""Output checks for one CLI invocation.

An invocation fails when it exits nonzero, when a CSV it should write is
missing or has another header than the program's column constants, when a
CSV has the wrong number of rows, when a regret or spend value is not finite,
when a baseline spend is not zero, or when its output bytes differ from an
earlier repeat with the same seed. Spend is deliberately not compared with the
budget: this is not a budget-compliance test (see README.md).
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

from workloads import SWEEP_BUDGETS, SWEEP_POLICIES, Workload


def program_columns() -> dict:
    """The CSV headers procure_learn declares, keyed "summary", "sweep", "transcript"."""
    from procure_learn import mechanism, runner

    return {
        "summary": runner.SUMMARY_COLUMNS,
        "sweep": runner.SWEEP_COLUMNS,
        "transcript": mechanism.Transcript.COLUMNS,
    }


def expected_csvs(workload: Workload, columns: dict) -> dict:
    """file name -> (header, row count) that one invocation must write.

    ``columns`` is what program_columns() returns.
    """
    if workload.command == "sweep":
        return {"sweep.csv": (tuple(columns["sweep"]), len(SWEEP_POLICIES) * len(SWEEP_BUDGETS))}
    return {
        "summary.csv": (tuple(columns["summary"]), workload.trials),
        "transcript.csv": (tuple(columns["transcript"]), workload.horizon),
    }


def _finite(value: str) -> bool:
    try:
        return math.isfinite(float(value))
    except ValueError:
        return False


def check_csvs(workload: Workload, out_dir: Path, columns: dict) -> list[str]:
    """Problems found in the CSVs of one invocation; empty when all is well."""
    problems = []
    for name, (header, n_rows) in expected_csvs(workload, columns).items():
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name}: missing")
            continue
        with open(path, newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
        if not rows or tuple(rows[0]) != header:
            problems.append(f"{name}: header differs from {header}")
            continue
        body = rows[1:]
        if len(body) != n_rows:
            problems.append(f"{name}: {len(body)} rows, expected {n_rows}")
        for i, row in enumerate(body, start=1):
            if len(row) != len(header):
                problems.append(f"{name}: row {i} has {len(row)} fields, expected {len(header)}")
                continue
            record = dict(zip(header, row))
            for key, value in record.items():
                if key.startswith(("regret", "spend")) and not _finite(value):
                    problems.append(f"{name}: row {i} {key}={value!r} is not finite")
            if name == "sweep.csv" and record.get("policy") == "baseline":
                if not _finite(record["spend_mean"]) or float(record["spend_mean"]) != 0.0:
                    problems.append(f"{name}: row {i} baseline spend_mean={record['spend_mean']!r}")
    return problems


def output_digest(out_dir: Path) -> str:
    """SHA-256 over the names and bytes of every file the invocation wrote."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


class OutputChecker:
    """Checks every invocation of one run and remembers the first digest."""

    def __init__(self, workload: Workload, columns: dict):
        self.workload = workload
        self.columns = columns
        self.digest = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, label: str, exit_code: int, out_dir: Path) -> bool:
        """Record one invocation; True when it passed every check."""
        self.attempted += 1
        if exit_code != 0:
            problems = [f"exit code {exit_code}"]
        else:
            problems = check_csvs(self.workload, out_dir, self.columns)
            digest = output_digest(out_dir)
            if self.digest is None:
                if not problems:
                    self.digest = digest
            elif digest != self.digest:
                problems.append("output bytes differ from the first repeat with this seed")
        self.failures.extend(f"{label}: {p}" for p in problems)
        self.failed += bool(problems)
        return not problems
