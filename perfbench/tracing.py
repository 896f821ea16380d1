"""Per-layer tracer for the in-process benchmark run.

The tracer wraps the public functions each ``procure_learn`` module exposes at
the attribute the program looks up at call time (a module global or a class
attribute), so nothing under ``src/`` changes. Every wrapper counts calls and
accumulates inclusive time and the time its traced children took, which gives
each layer's self time. Coarse targets (a trial, an instance build, a run, an
oracle call, a CSV write) also keep one span per call: id, parent id, the CLI
invocation it belongs to, name, start and end. Per-round targets keep only
the aggregates, because one span per round would cost more than the round.

A target the program no longer has is reported as absent with a zero count.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

POLICIES = ("priced", "naive", "baseline")
LAYERS = (
    "environment.build",
    "environment.data_point",
    "core.loss_delta",
    "core.grad",
    "ftrl.feed",
    "pricing.sample_price",
    "pricing.survival",
    "pricing.quote",
    "mechanism.run",
    "metrics.oracle",
    "metrics.risk",
    "runner.trial",
    "runner.csv_write",
)
TAIL_PERCENTILES = (99, 95, 90, 75, 50)


@dataclass
class Layer:
    calls: int = 0
    total_s: float = 0.0
    child_s: float = 0.0


@dataclass
class PolicyRuns:
    rounds: int = 0
    purchases: int = 0
    seconds: float = 0.0


def _module(name):
    try:
        return importlib.import_module(f"procure_learn.{name}")
    except ImportError:
        return None


class Tracer:
    def __init__(self):
        self.layers = {name: Layer() for name in LAYERS}
        self.spans: list[tuple] = []  # (id, parent id, invocation, name, start, end)
        self.policies = {p: PolicyRuns() for p in POLICIES}
        self.oracle_iterations = 0
        self.oracle_converged = 0
        self.csv_bytes = 0
        self.trial_s: list[float] = []
        self.absent: list[str] = []
        self.invocations = 0
        self._open: list[list[float]] = []  # child-time accumulator per open wrapped call
        self._open_spans: list[int] = []
        self._ids = itertools.count()
        self._patches: list[tuple] = []

    # -- targets ---------------------------------------------------------------

    def _targets(self):
        """(label, owner or None, attribute, layer, keeps spans, after-hook) per wrap point."""
        m = {n: _module(n) for n in ("cli", "core", "environment", "ftrl", "mechanism", "runner")}
        specs = [
            ("runner", "", "build_instance", "environment.build", True, None),
            ("runner", "", "offline_best", "metrics.oracle", True, self._after_oracle),
            ("runner", "", "risk", "metrics.risk", True, None),
            ("runner", "", "run_trial", "runner.trial", True, self._after_trial),
            ("runner", "", "_sweep_trial_job", "runner.trial", True, self._after_trial),
            ("cli", "", "run_trial", "runner.trial", True, self._after_trial),
            ("cli", "", "write_transcript_csv", "runner.csv_write", True, self._after_csv),
            ("cli", "", "write_summary_csv", "runner.csv_write", True, self._after_csv),
            ("cli", "", "write_sweep_csv", "runner.csv_write", True, self._after_csv),
            ("mechanism", "", "sample_price", "pricing.sample_price", False, None),
            ("mechanism", "", "survival", "pricing.survival", False, None),
            ("mechanism", "", "priced_round", "pricing.quote", False, None),
            ("mechanism", "Mechanism", "run", "mechanism.run", True, self._after_run),
            ("ftrl", "FtrlLearner", "feed_gradient", "ftrl.feed", False, None),
            ("environment", "ProblemInstance", "data_point", "environment.data_point", False, None),
        ]
        # every loss family class that defines loss_delta or grad itself
        core = m["core"]
        base = getattr(core, "LossFamily", None)
        families = []
        if isinstance(base, type):
            families = [c for c in vars(core).values() if isinstance(c, type) and issubclass(c, base)]
        for attr in ("loss_delta", "grad"):
            owners = sorted(f.__name__ for f in families if attr in vars(f))
            specs += [("core", owner, attr, f"core.{attr}", False, None) for owner in owners or ["LossFamily"]]

        targets = []
        for module_name, owner_name, attr, layer, keep, after in specs:
            owner = m[module_name]
            if owner is not None and owner_name:
                owner = getattr(owner, owner_name, None)
            if not callable(getattr(owner, attr, None)):
                owner = None
            label = ".".join(p for p in (module_name, owner_name, attr) if p)
            targets.append((label, owner, attr, layer, keep, after))
        return targets

    # -- hooks -----------------------------------------------------------------

    def _after_run(self, args, result, seconds):
        mech = args[0]
        runs = self.policies.setdefault(mech.config.purchase_policy, PolicyRuns())
        runs.rounds += mech.rounds_done
        runs.purchases += mech.purchases
        runs.seconds += seconds

    def _after_oracle(self, args, result, seconds):
        self.oracle_iterations += result.iterations
        self.oracle_converged += bool(result.converged)

    def _after_csv(self, args, result, seconds):
        self.csv_bytes += Path(args[0]).stat().st_size

    def _after_trial(self, args, result, seconds):
        self.trial_s.append(seconds)

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, fn, layer_name, keep_span, after):
        layer = self.layers[layer_name]
        open_calls = self._open
        open_spans = self._open_spans
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0.0]
            open_calls.append(children)
            if keep_span:
                span_id = next(ids)
                parent = open_spans[-1] if open_spans else None
                open_spans.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                open_calls.pop()
                if open_calls:
                    open_calls[-1][0] += elapsed
                layer.calls += 1
                layer.total_s += elapsed
                layer.child_s += children[0]
                if keep_span:
                    open_spans.pop()
                    spans.append((span_id, parent, self.invocations, layer_name, start, end))
            if after is not None:
                after(args, result, elapsed)
            return result

        return wrapper

    def install(self) -> None:
        self.absent = []
        for label, owner, attr, layer, keep, after in self._targets():
            if owner is None:
                self.absent.append(label)
                continue
            own = attr in vars(owner)
            original = vars(owner)[attr] if own else None
            setattr(owner, attr, self._wrap(getattr(owner, attr), layer, keep, after))
            self._patches.append((owner, attr, own, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, own, original = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @contextmanager
    def invocation(self):
        """Trace one CLI invocation: install the wrappers, open its root span."""
        self.install()
        span_id = next(self._ids)
        self._open_spans.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open_spans.pop()
            self.uninstall()
            self.spans.append((span_id, None, self.invocations, "cli.invocation", start, end))
            self.invocations += 1

    # -- metrics ---------------------------------------------------------------

    def metrics(self, trials_per_invocation: int) -> dict:
        """Per-layer values, as (value, unit) per metric name.

        ``*_ms`` is inclusive milliseconds per CLI invocation and ``*_calls``
        calls per CLI invocation, averaged over the traced invocations.
        """
        n = max(1, self.invocations)
        L = self.layers

        def ms(name):
            return L[name].total_s * 1e3 / n, "ms"

        def calls(name):
            return L[name].calls / n, "count"

        run = L["mechanism.run"]
        oracle_calls = L["metrics.oracle"].calls
        out = {
            "environment.build_ms": ms("environment.build"),
            "environment.data_point_calls": calls("environment.data_point"),
            "environment.data_point_ms": ms("environment.data_point"),
            "core.loss_delta_calls": calls("core.loss_delta"),
            "core.loss_delta_ms": ms("core.loss_delta"),
            "core.grad_calls": calls("core.grad"),
            "core.grad_ms": ms("core.grad"),
            "ftrl.feed_calls": calls("ftrl.feed"),
            "ftrl.feed_ms": ms("ftrl.feed"),
            "pricing.sample_price_calls": calls("pricing.sample_price"),
            "pricing.survival_calls": calls("pricing.survival"),
            "pricing.quote_ms": ms("pricing.quote"),
        }
        for policy in POLICIES:
            p = self.policies[policy]
            out[f"mechanism.run_us_per_round.{policy}"] = (
                p.seconds * 1e6 / p.rounds if p.rounds else 0.0, "us",
            )
        for policy in POLICIES:
            p = self.policies[policy]
            out[f"mechanism.purchase_rate.{policy}"] = (
                p.purchases / p.rounds if p.rounds else 0.0, "share",
            )
        out["mechanism.run_self_share"] = (
            (run.total_s - run.child_s) / run.total_s if run.total_s else 0.0, "share",
        )
        out["mechanism.runs_per_trial"] = (run.calls / (n * trials_per_invocation), "count")
        out["metrics.oracle_ms"] = ms("metrics.oracle")
        out["metrics.oracle_iterations"] = (
            self.oracle_iterations / oracle_calls if oracle_calls else 0.0, "count",
        )
        out["metrics.oracle_converged_share"] = (
            self.oracle_converged / oracle_calls if oracle_calls else 0.0, "share",
        )
        out["metrics.risk_calls"] = calls("metrics.risk")
        out["metrics.risk_ms"] = ms("metrics.risk")

        p50, tail, pct = trial_percentiles(self.trial_s)
        out["runner.trial_ms_p50"] = (p50 * 1e3, "ms")
        out["runner.trial_ms_tail"] = (tail * 1e3, "ms")
        out["runner.trial_ms_tail_pct"] = (pct, "percentile")
        out["runner.trial_samples"] = (len(self.trial_s), "count")
        out["runner.csv_write_ms"] = ms("runner.csv_write")
        out["runner.csv_bytes"] = (self.csv_bytes / n, "bytes")
        return out


def trial_percentiles(samples: list[float]) -> tuple[float, float, int]:
    """(median, tail value, tail percentile): the tail is the highest of
    TAIL_PERCENTILES with at least ten samples beyond it, else the maximum."""
    if not samples:
        return 0.0, 0.0, 0
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        if n * (100 - pct) / 100 >= 10:
            return statistics.median(ordered), ordered[math.ceil(pct / 100 * n) - 1], pct
    return statistics.median(ordered), ordered[-1], 100
