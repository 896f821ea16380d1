"""Command-line interface: run, sweep, verify, oracle.

``run`` executes seeded trials and writes a per-round transcript CSV (trial 0)
plus a per-trial summary CSV; ``sweep`` compares the priced, naive, and
baseline policies over a budget grid on paired instances; ``verify`` runs the
Monte-Carlo invariant suite and emits a JSON report; ``oracle`` reports the
best-in-hindsight hypothesis and the instance's difficulty statistics.

``run``, ``sweep`` and ``oracle`` use the config's seed unless ``--seed``
overrides it. ``run`` and ``sweep`` warn on stderr when a mean spend
exceeds 1.05 times the budget; their stdout and CSVs are the same either
way.
Exit codes: 0 success, 1 verify failures, 2 invalid config, unwritable
output (a closed stdout or stderr pipe included) or arrays too large to
allocate.
The process entry, ``entry``, flushes stdout and stderr after ``main``
returns and ends the process without the interpreter's teardown; ``main``
itself only returns its exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from .core import InvalidConfigError
from .environment import FormatError
from .metrics import hindsight_stats, offline_best
from .runner import (
    ExperimentConfig,
    load_config,
    mean_se,
    run_sweep,
    run_trials,
    trial_streams,
    write_summary_csv,
    write_sweep_csv,
    write_transcript_csv,
)


def _load(args) -> ExperimentConfig:
    """The ``--config`` file's config, at the ``--seed`` flag's seed if set."""
    config = load_config(args.config)
    if args.seed is None:
        return config
    return dataclasses.replace(config, seed=args.seed)


def _prepare_output(config: ExperimentConfig) -> Path:
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    probe = out / ".write-probe"
    probe.write_text("")
    probe.unlink()
    return out


def _jobs(args) -> int:
    """The ``--jobs`` worker count; when the flag is omitted, the cores this
    process may run on (its affinity mask, where the platform has one)."""
    if args.jobs is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if args.jobs < 1:
        raise InvalidConfigError(f"--jobs must be at least 1, got {args.jobs}")
    return args.jobs


def _warn_overspend(label: str, spend: float, budget: float) -> None:
    """Say on stderr when a mean spend broke the budget by more than 5%."""
    if spend > 1.05 * budget:
        print(f"warning: {label} {spend:.6g} exceeds 1.05 x budget {budget:g}", file=sys.stderr)


def _mean_se_line(name: str, values) -> str:
    values = np.asarray(values, dtype=np.float64)
    values = values[~np.isnan(values)]
    if len(values) == 0:
        return f"{name}: n/a"
    mean, se = mean_se(values)
    return f"{name}: {mean:.6g} +/- {se:.3g}"


def cmd_run(args) -> int:
    jobs = _jobs(args)
    config = _load(args)
    out = _prepare_output(config)

    results = run_trials(config, jobs, record_transcript=True)

    write_transcript_csv(out / "transcript.csv", results[0].transcript)
    write_summary_csv(out / "summary.csv", results)

    print(f"wrote {out / 'transcript.csv'} and {out / 'summary.csv'}")
    print(_mean_se_line("regret", [r.regret for r in results]))
    print(_mean_se_line("risk (zero-one)", [r.risk_zero_one for r in results]))
    print(_mean_se_line("risk (surrogate)", [r.risk_surrogate for r in results]))
    spends = [r.spend for r in results]
    print(_mean_se_line("spend", spends))
    _warn_overspend("mean spend", float(np.mean(spends)), config.mechanism.budget)
    return 0


def cmd_sweep(args) -> int:
    jobs = _jobs(args)
    config = _load(args)
    if not config.budget_grid:
        raise InvalidConfigError("sweep needs a budget_grid in the config")
    out = _prepare_output(config)
    rows = run_sweep(config, jobs)
    write_sweep_csv(out / "sweep.csv", rows)
    print(f"wrote {out / 'sweep.csv'} ({len(rows)} rows)")
    for row in rows:
        print(
            f"  {row.policy:>8} B={row.budget:<8g} regret {row.regret_mean:.4g}"
            f" risk01 {row.risk_zero_one_mean:.4g} spend {row.spend_mean:.4g}"
        )
        _warn_overspend(f"{row.policy} mean spend", row.spend_mean, row.budget)
    return 0


def cmd_verify(args) -> int:
    from .verify import run_checks  # run and sweep never load the suite

    report = run_checks(quick=args.quick)
    text = json.dumps(report, indent=2)
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0 if report["all_passed"] else 1


def cmd_oracle(args) -> int:
    config = _load(args)
    instance_ss, _, _ = trial_streams(config.seed, 0)
    instance = config.instance.build(instance_ss)
    solution = offline_best(instance)
    coords = solution.hypothesis.coords
    report = {
        "dimension": int(instance.space.dim),
        "hypothesis_head": [float(x) for x in coords[:8]],
        "hypothesis_norm": float(np.linalg.norm(coords)),
        "total_loss": solution.total_loss,
        "lower_bound": solution.lower_bound,
        "gap": solution.total_loss - solution.lower_bound,
        "converged": solution.converged,
        "iterations": solution.iterations,
        "stats": hindsight_stats(instance, solution),
    }
    print(json.dumps(report, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="procure-learn",
        description="Budgeted data-purchasing learning mechanisms, simulated.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute seeded trials, write transcript + summary CSVs")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--jobs", type=int, default=None, help="worker count (default: usable cores)")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.set_defaults(fn=cmd_run)

    p_sweep = sub.add_parser("sweep", help="policy x budget grid on paired instances")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--jobs", type=int, default=None, help="worker count (default: usable cores)")
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the Monte-Carlo invariant suite")
    p_verify.add_argument("--quick", action="store_true", help="smaller sample sizes")
    p_verify.add_argument("--output", default=None, help="also write the JSON report here")
    p_verify.set_defaults(fn=cmd_verify)

    p_oracle = sub.add_parser("oracle", help="best-in-hindsight hypothesis and stats")
    p_oracle.add_argument("--config", required=True)
    p_oracle.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_oracle.set_defaults(fn=cmd_oracle)
    return parser


def _report(exc: BaseException) -> None:
    """One ``error:`` line on stderr, unless stderr cannot take it (a closed
    pipe): the exit code then reports the failure alone."""
    with contextlib.suppress(OSError):
        print(f"error: {exc}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InvalidConfigError, FormatError, OSError, ValueError, MemoryError) as exc:
        _report(exc)
        return 2


def entry() -> None:
    """``python -m procure_learn`` and the ``procure-learn`` script: run
    ``main``, flush both streams and exit with its code, skipping the
    interpreter's teardown (tens of milliseconds of garbage collection and
    deallocation). Every output file is closed and every pool worker joined
    before ``main`` returns. A stdout that cannot take the final flush, as
    a closed pipe, is unwritable output: exit 2 with one ``error:`` line,
    as ``main`` reports a print that fails; so is a stderr that cannot take
    its flush. Uncaught exceptions take the normal exit path."""
    code = main()
    try:
        sys.stdout.flush()
    except OSError as exc:
        if code != 2:  # main has not reported the failed print already
            _report(exc)
        code = 2
    try:
        sys.stderr.flush()
    except OSError:
        code = 2
    os._exit(code)
