"""Experiment orchestration: seeded trials, sweeps, and artifact emission.

A trial's randomness is derived entirely from (root seed, trial index) via
spawn keys, so results are identical regardless of worker count or
scheduling; runs within a trial are sequential by nature, parallelism is
across trials only. Sweeps run every (policy, budget) combination of a trial
on the identical instance and the identical mechanism stream for paired
comparisons. Emitted CSV bytes are a pure function of (config, seed):
floats are serialized with 17 significant digits and wall times stay out of
the files.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .core import InvalidConfigError
from .environment import (
    ConstantCost,
    CostModel,
    ProblemInstance,
    TwoPointCost,
    UniformCost,
    coin_sequence,
    digit_task,
    linear_task,
    padded_coin_sequence,
)
from .mechanism import (
    AdaptiveScale,
    BASELINE,
    FixedRate,
    FixedScale,
    KnowledgeScale,
    Mechanism,
    MechanismConfig,
    NAIVE,
    PRICED,
    PriorKnowledge,
    TheoryRate,
)
from .metrics import OfflineSolution, SequenceStats, offline_best, risk

SWEEP_POLICIES = (PRICED, NAIVE, BASELINE)


# ---------------------------------------------------------------------------
# Instance specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoinSpec:
    T: int
    epsilon: float
    bias: str = "heads"


@dataclass(frozen=True)
class PaddedCoinSpec:
    T: int
    coin_fraction: float
    epsilon: float
    bias: str = "heads"


@dataclass(frozen=True)
class LinearTaskSpec:
    T: int
    cost_model: CostModel
    dim: int = 4
    clusters: int = 2
    separation: float = 0.6
    T_test: int = 1000
    radius: float = 3.0
    spread: float = 0.35
    noise: float = 0.1


@dataclass(frozen=True)
class IdxSpec:
    images: str
    labels: str
    cost_model: CostModel
    positive_digits: tuple[int, ...] = (9, 8)
    negative_digits: tuple[int, ...] = (1, 4)
    limit: Optional[int] = None
    holdout_fraction: float = 0.5
    radius: float = 10.0


InstanceSpec = Union[CoinSpec, PaddedCoinSpec, LinearTaskSpec, IdxSpec]


def build_instance(spec: InstanceSpec, seed) -> ProblemInstance:
    if isinstance(spec, CoinSpec):
        return coin_sequence(spec.T, spec.epsilon, spec.bias, seed)
    if isinstance(spec, PaddedCoinSpec):
        return padded_coin_sequence(spec.T, spec.coin_fraction, spec.epsilon, spec.bias, seed)
    if isinstance(spec, LinearTaskSpec):
        return linear_task(
            spec.dim,
            spec.clusters,
            spec.separation,
            spec.T,
            spec.T_test,
            spec.cost_model,
            seed,
            radius=spec.radius,
            spread=spec.spread,
            noise=spec.noise,
        )
    if isinstance(spec, IdxSpec):
        return digit_task(
            spec.images,
            spec.labels,
            spec.cost_model,
            seed,
            positive_digits=spec.positive_digits,
            negative_digits=spec.negative_digits,
            limit=spec.limit,
            holdout_fraction=spec.holdout_fraction,
            radius=spec.radius,
        )
    raise InvalidConfigError(f"unknown instance spec {type(spec).__name__}")


def spec_horizon(spec: InstanceSpec) -> Optional[int]:
    return getattr(spec, "T", None)


# ---------------------------------------------------------------------------
# Experiment configuration (JSON round-trippable)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    instance: InstanceSpec
    mechanism: MechanismConfig
    trials: int = 1
    seed: int = 0
    output_dir: str = "out"
    budget_grid: Optional[tuple[float, ...]] = None
    oracle_iterations: int = 1500

    def __post_init__(self):
        if self.trials < 1:
            raise InvalidConfigError("need at least one trial")


def _require(d: dict, key: str, where: str):
    if key not in d:
        raise InvalidConfigError(f"missing required key {key!r} in {where}")
    return d[key]


def parse_cost_model(d: dict) -> CostModel:
    kind = _require(d, "kind", "cost_model")
    if kind == "constant":
        return ConstantCost(float(d.get("value", 1.0)))
    if kind == "uniform":
        return UniformCost(float(d.get("low", 0.0)), float(d.get("high", 1.0)))
    if kind == "two-point-independent":
        return TwoPointCost(float(d.get("p_high", 0.2)), float(d.get("high_cost", 1.0)), None)
    if kind == "two-point-correlated":
        targets = tuple(int(g) for g in _require(d, "target_groups", "cost_model"))
        return TwoPointCost(float(d.get("p_high", 0.2)), float(d.get("high_cost", 1.0)), targets)
    raise InvalidConfigError(f"unknown cost model kind {kind!r}")


def parse_instance(d: dict) -> InstanceSpec:
    kind = _require(d, "kind", "instance")
    if kind == "coin":
        return CoinSpec(int(_require(d, "T", "instance")), float(d.get("epsilon", 0.1)), d.get("bias", "heads"))
    if kind == "padded-coin":
        return PaddedCoinSpec(
            int(_require(d, "T", "instance")),
            float(_require(d, "coin_fraction", "instance")),
            float(d.get("epsilon", 0.1)),
            d.get("bias", "heads"),
        )
    if kind == "linear":
        return LinearTaskSpec(
            T=int(_require(d, "T", "instance")),
            cost_model=parse_cost_model(_require(d, "cost_model", "instance")),
            dim=int(d.get("dim", 4)),
            clusters=int(d.get("clusters", 2)),
            separation=float(d.get("separation", 0.6)),
            T_test=int(d.get("T_test", 1000)),
            radius=float(d.get("radius", 3.0)),
            spread=float(d.get("spread", 0.35)),
            noise=float(d.get("noise", 0.1)),
        )
    if kind == "idx":
        return IdxSpec(
            images=str(_require(d, "images", "instance")),
            labels=str(_require(d, "labels", "instance")),
            cost_model=parse_cost_model(_require(d, "cost_model", "instance")),
            positive_digits=tuple(int(x) for x in d.get("positive_digits", (9, 8))),
            negative_digits=tuple(int(x) for x in d.get("negative_digits", (1, 4))),
            limit=None if d.get("limit") is None else int(d["limit"]),
            holdout_fraction=float(d.get("holdout_fraction", 0.5)),
            radius=float(d.get("radius", 10.0)),
        )
    raise InvalidConfigError(f"unknown instance kind {kind!r}")


def parse_mechanism(d: dict, horizon: Optional[int]) -> MechanismConfig:
    scale_cfg = d.get("price_scale", {"mode": "adaptive"})
    mode = scale_cfg.get("mode", "adaptive")
    if mode == "adaptive":
        scale = AdaptiveScale()
    elif mode == "fixed":
        scale = FixedScale(float(_require(scale_cfg, "value", "price_scale")))
    elif mode == "from-knowledge":
        stats = {
            k: (None if scale_cfg.get(k) is None else float(scale_cfg[k]))
            for k in ("avg_value_cost", "avg_value", "avg_sqrt_cost", "avg_cost")
        }
        scale = KnowledgeScale(PriorKnowledge(**stats))
    else:
        raise InvalidConfigError(f"unknown price_scale mode {mode!r}")

    rate_cfg = d.get("learning_rate", {"mode": "theory"})
    rate_mode = rate_cfg.get("mode", "theory")
    if rate_mode == "theory":
        rate = TheoryRate(float(rate_cfg.get("scale", 1.0)))
    elif rate_mode == "fixed":
        rate = FixedRate(float(_require(rate_cfg, "value", "learning_rate")))
    else:
        raise InvalidConfigError(f"unknown learning_rate mode {rate_mode!r}")

    return MechanismConfig(
        budget=float(_require(d, "budget", "mechanism")),
        payment_mode=d.get("payment_mode", "posted-price"),
        purchase_policy=d.get("purchase_policy", "priced"),
        price_scale=scale,
        learning_rate=rate,
        hard_stop=bool(d.get("hard_stop", False)),
        c_max=float(d.get("c_max", 1.0)),
        horizon=horizon,
    )


def parse_config(d: dict) -> ExperimentConfig:
    instance = parse_instance(_require(d, "instance", "config"))
    mechanism = parse_mechanism(_require(d, "mechanism", "config"), spec_horizon(instance))
    grid = d.get("budget_grid")
    return ExperimentConfig(
        instance=instance,
        mechanism=mechanism,
        trials=int(d.get("trials", 1)),
        seed=int(d.get("seed", 0)),
        output_dir=str(d.get("output_dir", "out")),
        budget_grid=None if grid is None else tuple(float(b) for b in grid),
        oracle_iterations=int(d.get("oracle_iterations", 1500)),
    )


def load_config(path: str) -> ExperimentConfig:
    with open(path) as f:
        return parse_config(json.load(f))


# ---------------------------------------------------------------------------
# Trials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialResult:
    trial: int
    seed: int
    spend: float
    purchases: int
    regret: float
    risk_surrogate: float
    risk_zero_one: float
    stats: SequenceStats
    wall_time: float


def trial_streams(root_seed: int, trial: int):
    """(instance seed, mechanism seed, printable per-trial seed)."""
    ss = np.random.SeedSequence(entropy=root_seed, spawn_key=(trial,))
    instance_ss, mech_ss = ss.spawn(2)
    return instance_ss, mech_ss, int(ss.generate_state(1)[0])


def _trial_stats(
    instance: ProblemInstance, mech: Mechanism, solution: Optional[OfflineSolution]
) -> SequenceStats:
    sqrt_costs = np.sqrt(instance.costs)
    if solution is None:
        opt = math.nan
    else:
        star = instance.grad_norms_at(solution.hypothesis.coords)
        opt = float(np.mean(star * sqrt_costs))
    return SequenceStats(
        avg_value_cost=mech.realized_avg_value_cost,
        avg_value=mech.realized_avg_value,
        avg_sqrt_cost=float(np.mean(sqrt_costs)),
        avg_cost=float(np.mean(instance.costs)),
        opt_value_cost=opt,
    )


def _scored_run(
    mcfg: MechanismConfig,
    instance: ProblemInstance,
    mech_ss: np.random.SeedSequence,
    *,
    record_transcript: bool = False,
) -> tuple[Mechanism, float, float]:
    """Run one mechanism on a trial's instance and mechanism stream; return
    it with the surrogate and zero-one test risks of its final hypothesis
    (nan without a test set)."""
    mech = Mechanism(mcfg, instance, record_transcript=record_transcript)
    mech.run(np.random.default_rng(mech_ss))
    final = mech.finalize()
    if instance.has_test_set:
        fam = instance.family
        risk_s = risk(fam, final, instance.test_features, instance.test_labels, "surrogate")
        risk_01 = risk(fam, final, instance.test_features, instance.test_labels, "zero-one")
    else:
        risk_s = risk_01 = math.nan
    return mech, risk_s, risk_01


def run_trial(
    config: ExperimentConfig,
    trial: int,
    *,
    record_transcript: bool = False,
    compute_regret: bool = True,
) -> tuple[TrialResult, Mechanism]:
    start = time.perf_counter()
    instance_ss, mech_ss, trial_seed = trial_streams(config.seed, trial)
    instance = build_instance(config.instance, instance_ss)
    mech, risk_s, risk_01 = _scored_run(
        config.mechanism, instance, mech_ss, record_transcript=record_transcript
    )
    solution = offline_best(instance, config.oracle_iterations) if compute_regret else None
    regret_value = mech.loss_total - solution.total_loss if solution else math.nan

    result = TrialResult(
        trial=trial,
        seed=trial_seed,
        spend=mech.spend,
        purchases=mech.purchases,
        regret=regret_value,
        risk_surrogate=risk_s,
        risk_zero_one=risk_01,
        stats=_trial_stats(instance, mech, solution),
        wall_time=time.perf_counter() - start,
    )
    return result, mech


def _trial_job(args) -> TrialResult:
    config, trial, compute_regret = args
    return run_trial(config, trial, compute_regret=compute_regret)[0]


def run_trials(
    config: ExperimentConfig,
    jobs: int = 1,
    *,
    compute_regret: bool = True,
    indices: Optional[Sequence[int]] = None,
) -> list[TrialResult]:
    """Trials in index order; byte-identical results for any job count."""
    if indices is None:
        indices = range(config.trials)
    work = [(config, t, compute_regret) for t in indices]
    if jobs <= 1 or len(work) <= 1:
        return [_trial_job(w) for w in work]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_trial_job, work, chunksize=1))


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepCell:
    trial: int
    policy: str
    budget: float
    regret: float
    risk_surrogate: float
    risk_zero_one: float
    spend: float


@dataclass(frozen=True)
class SweepRow:
    policy: str
    budget: float
    trials: int
    regret_mean: float
    regret_se: float
    risk_zero_one_mean: float
    risk_zero_one_se: float
    risk_surrogate_mean: float
    risk_surrogate_se: float
    spend_mean: float
    spend_se: float


def _sweep_trial_job(args) -> list[SweepCell]:
    """Every (policy, budget) cell of one trial. ``baseline`` neither spends
    nor prices, and its learning rate does not depend on the budget, so it
    runs once and its scores fill every budget's cell."""
    config, trial, policies = args
    instance_ss, mech_ss, _ = trial_streams(config.seed, trial)
    instance = build_instance(config.instance, instance_ss)
    oracle_total = offline_best(instance, config.oracle_iterations).total_loss
    cells = []
    baseline = None  # (regret, risk_surrogate, risk_zero_one, spend)
    for policy in policies:
        for budget in config.budget_grid:
            mcfg = dataclasses.replace(  # validates every budget of the grid
                config.mechanism, purchase_policy=policy, budget=budget
            )
            if policy == BASELINE and baseline is not None:
                scores = baseline
            else:
                mech, risk_s, risk_01 = _scored_run(mcfg, instance, mech_ss)
                scores = (mech.loss_total - oracle_total, risk_s, risk_01, mech.spend)
                if policy == BASELINE:
                    baseline = scores
            cells.append(SweepCell(trial, policy, budget, *scores))
    return cells


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    mean = float(np.mean(values))
    if len(values) < 2:
        return mean, 0.0
    return mean, float(np.std(values, ddof=1) / math.sqrt(len(values)))


def run_sweep(
    config: ExperimentConfig,
    jobs: int = 1,
    policies: Sequence[str] = SWEEP_POLICIES,
) -> list[SweepRow]:
    """One aggregate row per (policy, budget), all policies on paired trials."""
    if not config.budget_grid:
        raise InvalidConfigError("sweep needs a nonempty budget_grid")
    work = [(config, t, tuple(policies)) for t in range(config.trials)]
    if jobs <= 1 or config.trials == 1:
        per_trial = [_sweep_trial_job(w) for w in work]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_trial = list(pool.map(_sweep_trial_job, work, chunksize=1))

    rows = []
    for policy in policies:
        for budget in config.budget_grid:
            cells = [
                c
                for trial_cells in per_trial
                for c in trial_cells
                if c.policy == policy and c.budget == budget
            ]
            regret_m, regret_se = _mean_se(np.array([c.regret for c in cells]))
            r01_m, r01_se = _mean_se(np.array([c.risk_zero_one for c in cells]))
            rs_m, rs_se = _mean_se(np.array([c.risk_surrogate for c in cells]))
            spend_m, spend_se = _mean_se(np.array([c.spend for c in cells]))
            rows.append(
                SweepRow(
                    policy=policy,
                    budget=budget,
                    trials=len(cells),
                    regret_mean=regret_m,
                    regret_se=regret_se,
                    risk_zero_one_mean=r01_m,
                    risk_zero_one_se=r01_se,
                    risk_surrogate_mean=rs_m,
                    risk_surrogate_se=rs_se,
                    spend_mean=spend_m,
                    spend_se=spend_se,
                )
            )
    return rows


# ---------------------------------------------------------------------------
# Artifact emission
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if type(x) is float:  # nearly every value written
        return f"{x:.17g}"
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return f"{float(x):.17g}"


def _write_csv(path, columns: Sequence[str], rows) -> None:
    """A header and one line per row, every value formatted by ``_fmt``."""
    lines = [",".join(columns)]
    lines.extend(",".join(map(_fmt, row)) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_transcript_csv(path, transcript) -> None:
    columns = [getattr(transcript, name) for name in transcript.COLUMNS[1:]]
    _write_csv(path, transcript.COLUMNS, zip(range(len(transcript)), *columns))


SUMMARY_COLUMNS = (
    "trial",
    "seed",
    "spend",
    "purchases",
    "regret",
    "risk_surrogate",
    "risk_zero_one",
    *(f.name for f in dataclasses.fields(SequenceStats)),
)


def write_summary_csv(path, results: Sequence[TrialResult]) -> None:
    _write_csv(
        path,
        SUMMARY_COLUMNS,
        (
            (r.trial, r.seed, r.spend, r.purchases, r.regret, r.risk_surrogate,
             r.risk_zero_one, *dataclasses.astuple(r.stats))
            for r in results
        ),
    )


SWEEP_COLUMNS = tuple(f.name for f in dataclasses.fields(SweepRow))


def write_sweep_csv(path, rows: Sequence[SweepRow]) -> None:
    _write_csv(path, SWEEP_COLUMNS, map(dataclasses.astuple, rows))
