"""Benchmark of the procure-learn CLI.

    python3 perfbench/run.py --workload coin-at-cost --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src/``. The
workload's config JSON is written, with its seed, into a temporary directory
inside the checkout, and the CLI writes its CSVs there; the directory is
removed at the end.

``--trace 0`` measures end to end: it repeats ``python -m procure_learn
run|sweep`` in a fresh process until ``--seconds`` have passed and reports
medians, after timing a fresh interpreter that imports the CLI and loads the
config. ``--trace 1`` gives the per-layer numbers: it drives the same CLI
path in-process at ``--jobs 1``, alternating untraced and traced invocations,
with the wrappers of tracing.py installed for the traced ones.

Every invocation's output is checked (checks.py). The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it give the environment, the failures, the output
SHA-256 and the same metrics for a human reader. The run record, with every
sample and, for a traced run, every coarse span, goes to
``.bench_out/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

from checks import OutputChecker, program_columns
from tracing import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TIME_LIMIT_S = 170.0  # a run must end within 180 s; no child may outlive this
SETUP_PROBES = 7  # fresh interpreters timed per run, after one warm-up
SETUP_PROBE = (
    "import sys, procure_learn.cli\n"
    "from procure_learn.runner import load_config\n"
    "load_config(sys.argv[1])\n"
    "print(procure_learn.cli.__file__)\n"
)


@dataclass
class Sample:
    """One timed child process (or in-process call, with cpu and rss 0)."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def child_env(tmp: Path) -> dict:
    env = dict(os.environ)
    env.pop("PROCURE_LEARN_SEED", None)  # the CLI would let it override the config seed
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["TMPDIR"] = str(tmp)
    return env


def run_child(argv: list[str], env: dict, cwd: Path, log: Path, timeout: float) -> tuple[Sample, str]:
    """Run one child to completion; CPU time and peak RSS cover its whole
    process tree (wait4 reports the child plus its reaped descendants)."""
    with open(log, "w+b") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(timeout, 0.1), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read().decode("utf-8", errors="replace")
    sample = Sample(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        exit_code=proc.returncode,
    )
    return sample, text


class Bench:
    """One run of one workload: its generated inputs, checker and time limit."""

    def __init__(self, workload, seed: int, tmp: Path, columns: dict, started: float):
        self.workload = workload
        self.tmp = tmp
        self.config_path, self.out_dir = workload.write_config(tmp, seed)
        self.env = child_env(tmp)
        self.checker = OutputChecker(workload, columns)
        self.started = started

    def time_left(self) -> float:
        return TIME_LIMIT_S - (time.perf_counter() - self.started)

    def setup_times(self) -> list[float]:
        """Wall times of fresh interpreters that import the CLI and load the config."""
        times = []
        for i in range(SETUP_PROBES + 1):
            argv = [sys.executable, "-c", SETUP_PROBE, str(self.config_path)]
            sample, text = run_child(argv, self.env, self.tmp, self.tmp / "setup.log", self.time_left())
            if sample.exit_code != 0:
                raise BenchmarkError(f"importing procure_learn.cli failed:\n{text}")
            lines = text.strip().splitlines()
            if not lines or not Path(lines[-1]).resolve().is_relative_to(SRC.resolve()):
                raise BenchmarkError(f"procure_learn.cli was not imported from {SRC}: {text.strip()}")
            if i:  # the first probe may compile bytecode, which users pay once
                times.append(sample.wall_s)
        return times

    def cli_child(self, label: str) -> Sample:
        """``python -m procure_learn`` in a fresh process, checked."""
        reset(self.out_dir)
        argv = [sys.executable, "-m", "procure_learn"]
        argv += self.workload.cli_args(self.config_path, self.workload.jobs())
        sample, text = run_child(argv, self.env, self.tmp, self.tmp / "cli.log", self.time_left())
        if not self.checker.check(label, sample.exit_code, self.out_dir):
            sys.stderr.write(text[-2000:])
        return sample

    def cli_in_process(self, label: str, tracer=None) -> Sample:
        """``procure_learn.cli.main`` at --jobs 1 in this process, checked."""
        from procure_learn.cli import main

        reset(self.out_dir)
        argv = self.workload.cli_args(self.config_path, 1)
        with tracer.invocation() if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(argv)
            except Exception:  # a crash is a failed invocation, not a benchmark error
                traceback.print_exc()
                code = 1
            wall = time.perf_counter() - start
        self.checker.check(label, code, self.out_dir)
        return Sample(wall, 0.0, 0.0, code)

    def done(self, stop: float) -> bool:
        return time.perf_counter() >= stop or self.time_left() <= 0


def reset(out_dir: Path) -> None:
    shutil.rmtree(out_dir, ignore_errors=True)


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    setup = bench.setup_times()
    samples = []
    stop = time.perf_counter() + seconds
    while not samples or not bench.done(stop):
        samples.append(bench.cli_child(f"cli#{len(samples)}"))
    rounds = bench.workload.rounds
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median([s.wall_s for s in samples]), "s"),
        "rounds_per_s": (statistics.median([rounds / s.wall_s for s in samples]), "1/s"),
        "cpu_s": (statistics.median([s.cpu_s for s in samples]), "s"),
        "peak_rss_mb": (statistics.median([s.rss_mb for s in samples]), "MB"),
    }
    return metrics, {"setup_s": setup, "cli": [asdict(s) for s in samples]}


def per_layer(bench: Bench, seconds: float) -> tuple[dict, dict]:
    stop = time.perf_counter() + seconds
    fresh = bench.cli_child("cli#0")
    tracer = Tracer()
    plain, traced = [], []
    while not plain or not bench.done(stop):
        plain.append(bench.cli_in_process(f"in-process#{len(plain)}"))
        traced.append(bench.cli_in_process(f"traced#{len(traced)}", tracer))

    jobs = bench.workload.jobs()
    metrics = tracer.metrics(bench.workload.trials)
    metrics["runner.pool_busy_share"] = (fresh.cpu_s / (jobs * fresh.wall_s), "share")
    plain_wall = statistics.median([s.wall_s for s in plain])
    overhead = (statistics.median([s.wall_s for s in traced]) - plain_wall) / plain_wall
    metrics["tracing.overhead_share"] = (overhead, "share")
    record = {
        "cli": [asdict(fresh)],
        "in_process": [asdict(s) for s in plain],
        "traced": [asdict(s) for s in traced],
        "absent": tracer.absent,
        "spans": [dict(zip(("id", "parent", "invocation", "name", "start", "end"), s)) for s in tracer.spans],
    }
    return metrics, record


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def environment(seed: int) -> dict:
    import numpy

    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "seed": seed,
    }


def import_program() -> dict:
    """Import procure_learn from this checkout's src/; return its CSV columns."""
    if not (SRC / "procure_learn" / "__init__.py").is_file():
        raise BenchmarkError(f"no procure_learn package under {SRC}")
    sys.path.insert(0, str(SRC))
    import procure_learn

    if not Path(procure_learn.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchmarkError(f"procure_learn was imported from {procure_learn.__file__}, not {SRC}")
    return program_columns()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    workload = WORKLOADS[args.workload]
    try:
        columns = import_program()
    except (BenchmarkError, ImportError, AttributeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
            bench = Bench(workload, args.seed, Path(tmp), columns, started)
            measure = per_layer if args.trace else end_to_end
            metrics, record = measure(bench, args.seconds)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        with contextlib.suppress(OSError):
            tmp_root.rmdir()

    checker = bench.checker
    env_record = environment(args.seed)
    failed_share = checker.failed / checker.attempted
    record.update(
        workload=workload.name,
        trace=args.trace,
        environment=env_record,
        jobs=workload.jobs(),
        attempted=checker.attempted,
        failed=checker.failed,
        failures=checker.failures,
        output_sha256=checker.digest,
        metrics={k: v for k, (v, _) in metrics.items()},
    )
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )

    print("environment " + json.dumps(env_record))
    print(f"workload {workload.name}: {checker.attempted} CLI invocations, {checker.failed} failed")
    print(f"failed_share {failed_share:g}")
    for failure in checker.failures:
        print(f"FAILED {failure}")
    print(f"output_sha256 {checker.digest}")
    if args.trace:
        print("absent targets: " + (", ".join(record["absent"]) or "none"))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:.6g} {unit}")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
