import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    # the suite's filterwarnings setting does not reach a child interpreter
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_regret_vs_budget_runs():
    # epsilon = 1 / sqrt(B) must stay below 0.5, so the smallest budget is above 4
    out = _run_script(
        "regret_vs_budget.py", "--rounds", "200", "--trials", "2", "--budgets", "16", "64"
    )
    rows = [line.split() for line in out.splitlines()]
    budgets = [row[0] for row in rows if len(row) == 5 and row[0].isdigit()]
    assert budgets == ["16", "64"]


def test_correlation_effect_runs():
    out = _run_script(
        "correlation_effect.py", "--rounds", "200", "--trials", "2", "--replays", "1"
    )
    lines = out.splitlines()
    assert lines[0].startswith("realized value-cost statistic: correlated/independent = ")
    assert [line.split(":")[0].strip() for line in lines[1:]] == ["priced", "naive"]
