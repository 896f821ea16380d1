import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_regret_vs_budget_runs():
    # epsilon = 1 / sqrt(B) must stay below 0.5, so the smallest budget is above 4
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "regret_vs_budget.py"),
         "--rounds", "200", "--trials", "2", "--budgets", "16", "64"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    budgets = [row[0] for row in rows if len(row) == 5 and row[0].isdigit()]
    assert budgets == ["16", "64"]
