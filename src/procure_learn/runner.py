"""Experiment orchestration: seeded trials, sweeps, and artifact emission.

``run`` and ``sweep`` share one trial executor, ``run_trial``. It builds a
trial's instance and calls the oracle once, then runs and scores each
mechanism config of a list on that instance and the trial's mechanism
stream: ``run`` passes its one config, ``sweep`` the policy x budget grid,
so a sweep's comparisons are paired. One pool helper sends every trial of
either command through it. A trial's randomness is derived entirely from
(root seed, trial index) via spawn keys, so results are identical
regardless of worker count or scheduling; runs within a trial are
sequential, parallelism is across trials only; the process pool is
imported only when a command asks for more than one worker.

One writer, ``_write_csv``, emits every CSV column by column: bools as 1/0,
ints and strings as themselves, and floats with 17 significant digits, each
distinct float (told apart by its bits) formatted once however often it
repeats, then the rows joined and written a block at a time. The bytes are
those of formatting every value on its own. Emitted CSV bytes are a pure
function of (config, seed): wall times stay out of the files.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
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
    POLICIES,
    PriorKnowledge,
    TheoryRate,
    Transcript,
)
from .metrics import OfflineSolution, SequenceStats, offline_best, risk


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

    def __post_init__(self):
        if self.trials < 1:
            raise InvalidConfigError("need at least one trial")


def _require(d: dict, key: str, where: str):
    if key not in d:
        raise InvalidConfigError(f"missing required key {key!r} in {where}")
    return d[key]


def _reject_unread(d: dict, where: str, *read: str) -> None:
    """Refuse the keys of ``d`` that its parser does not ``read``: a
    misspelt key would leave its setting at the default without a word."""
    unread = sorted(set(d).difference(read))
    if unread:
        raise InvalidConfigError(f"unknown key(s) {', '.join(map(repr, unread))} in {where}")


def _section(d, where: str) -> dict:
    """``d``, refused by name unless it is a JSON object."""
    if not isinstance(d, dict):
        raise InvalidConfigError(f"{where} must be a JSON object, got {json.dumps(d)}")
    return d


def _fields(spec) -> list[str]:
    """The field names of a dataclass whose config keys they are."""
    return [f.name for f in dataclasses.fields(spec)]


def parse_cost_model(d: dict) -> CostModel:
    kind = _require(_section(d, "cost_model"), "kind", "cost_model")
    if kind == "constant":
        _reject_unread(d, "cost_model", "kind", "value")
        return ConstantCost(float(d.get("value", 1.0)))
    if kind == "uniform":
        _reject_unread(d, "cost_model", "kind", "low", "high")
        return UniformCost(float(d.get("low", 0.0)), float(d.get("high", 1.0)))
    if kind == "two-point-independent":
        _reject_unread(d, "cost_model", "kind", "p_high", "high_cost")
        return TwoPointCost(float(d.get("p_high", 0.2)), float(d.get("high_cost", 1.0)), None)
    if kind == "two-point-correlated":
        _reject_unread(d, "cost_model", "kind", "p_high", "high_cost", "target_groups")
        targets = tuple(int(g) for g in _require(d, "target_groups", "cost_model"))
        return TwoPointCost(float(d.get("p_high", 0.2)), float(d.get("high_cost", 1.0)), targets)
    raise InvalidConfigError(f"unknown cost model kind {kind!r}")


def parse_instance(d: dict) -> InstanceSpec:
    kind = _require(_section(d, "instance"), "kind", "instance")
    if kind == "coin":
        _reject_unread(d, "instance", "kind", *_fields(CoinSpec))
        return CoinSpec(int(_require(d, "T", "instance")), float(d.get("epsilon", 0.1)), d.get("bias", "heads"))
    if kind == "padded-coin":
        _reject_unread(d, "instance", "kind", *_fields(PaddedCoinSpec))
        return PaddedCoinSpec(
            int(_require(d, "T", "instance")),
            float(_require(d, "coin_fraction", "instance")),
            float(d.get("epsilon", 0.1)),
            d.get("bias", "heads"),
        )
    if kind == "linear":
        _reject_unread(d, "instance", "kind", *_fields(LinearTaskSpec))
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
        _reject_unread(d, "instance", "kind", *_fields(IdxSpec))
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


def parse_mechanism(d: dict) -> MechanismConfig:
    _reject_unread(_section(d, "mechanism"), "mechanism", *_fields(MechanismConfig))
    scale_cfg = _section(d.get("price_scale", {"mode": "adaptive"}), "price_scale")
    mode = scale_cfg.get("mode", "adaptive")
    if mode == "adaptive":
        _reject_unread(scale_cfg, "price_scale", "mode")
        scale = AdaptiveScale()
    elif mode == "fixed":
        _reject_unread(scale_cfg, "price_scale", "mode", "value")
        scale = FixedScale(float(_require(scale_cfg, "value", "price_scale")))
    elif mode == "from-knowledge":
        names = ("avg_value_cost", "avg_value", "avg_sqrt_cost", "avg_cost")
        _reject_unread(scale_cfg, "price_scale", "mode", *names)
        stats = {k: (None if scale_cfg.get(k) is None else float(scale_cfg[k])) for k in names}
        scale = KnowledgeScale(PriorKnowledge(**stats))
    else:
        raise InvalidConfigError(f"unknown price_scale mode {mode!r}")

    rate_cfg = _section(d.get("learning_rate", {"mode": "theory"}), "learning_rate")
    rate_mode = rate_cfg.get("mode", "theory")
    if rate_mode == "theory":
        _reject_unread(rate_cfg, "learning_rate", "mode", "scale")
        rate = TheoryRate(float(rate_cfg.get("scale", 1.0)))
    elif rate_mode == "fixed":
        _reject_unread(rate_cfg, "learning_rate", "mode", "value")
        rate = FixedRate(float(_require(rate_cfg, "value", "learning_rate")))
    else:
        raise InvalidConfigError(f"unknown learning_rate mode {rate_mode!r}")

    hard_stop = d.get("hard_stop", False)
    if not isinstance(hard_stop, bool):
        raise InvalidConfigError(f"hard_stop must be true or false, not {hard_stop!r}")

    return MechanismConfig(
        budget=float(_require(d, "budget", "mechanism")),
        payment_mode=d.get("payment_mode", "posted-price"),
        purchase_policy=d.get("purchase_policy", "priced"),
        price_scale=scale,
        learning_rate=rate,
        hard_stop=hard_stop,
        c_max=float(d.get("c_max", 1.0)),
    )


def parse_config(d: dict) -> ExperimentConfig:
    _reject_unread(_section(d, "config"), "config", *_fields(ExperimentConfig))
    instance = parse_instance(_require(d, "instance", "config"))
    mechanism = parse_mechanism(_require(d, "mechanism", "config"))
    cost_model = getattr(instance, "cost_model", None)
    if cost_model is not None and cost_model.ceiling()[1] > mechanism.c_max:
        key, cost = cost_model.ceiling()
        raise InvalidConfigError(
            f"cost_model {key} {cost} exceeds the mechanism's c_max {mechanism.c_max}: "
            "every cost must lie in [0, c_max]"
        )
    grid = d.get("budget_grid")
    return ExperimentConfig(
        instance=instance,
        mechanism=mechanism,
        trials=int(d.get("trials", 1)),
        seed=int(d.get("seed", 0)),
        output_dir=str(d.get("output_dir", "out")),
        budget_grid=None if grid is None else tuple(float(b) for b in grid),
    )


def load_config(path: str) -> ExperimentConfig:
    with open(path) as f:
        return parse_config(json.load(f))


# ---------------------------------------------------------------------------
# Trials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialResult:
    """One mechanism config scored on one trial; ``transcript`` is its run's
    per-round log when the trial was asked for it."""

    trial: int
    seed: int
    policy: str
    budget: float
    spend: float
    purchases: int
    regret: float
    risk_surrogate: float
    risk_zero_one: float
    stats: SequenceStats
    transcript: Optional[Transcript] = field(default=None, compare=False, repr=False)


def trial_streams(root_seed: int, trial: int):
    """(instance seed, mechanism seed, printable per-trial seed)."""
    ss = np.random.SeedSequence(entropy=root_seed, spawn_key=(trial,))
    instance_ss, mech_ss = ss.spawn(2)
    return instance_ss, mech_ss, int(ss.generate_state(1)[0])


def hindsight_stats(instance: ProblemInstance, solution: OfflineSolution) -> dict[str, float]:
    """The entries of ``SequenceStats`` that no run changes: the mean
    delta * sqrt(cost) at the offline optimum and the two cost summaries."""
    sqrt_costs = np.sqrt(instance.costs)
    star = instance.grad_norms_at(solution.hypothesis.coords)
    return {
        "opt_value_cost": float(np.mean(star * sqrt_costs)),
        "avg_sqrt_cost": float(np.mean(sqrt_costs)),
        "avg_cost": float(np.mean(instance.costs)),
    }


def run_trial(
    config: ExperimentConfig,
    trial: int,
    mechanisms: Sequence[MechanismConfig],
    record_transcript: bool = False,
) -> list[TrialResult]:
    """Run and score each mechanism config on one trial, in order.

    The trial's instance is built and the oracle called once; every config
    runs on that instance and on the same mechanism stream, which pairs
    them. ``baseline`` neither spends nor prices, and its learning rate does
    not depend on the budget, so a baseline config that differs from the
    first one only in its budget takes that run's scores.
    """
    instance_ss, mech_ss, trial_seed = trial_streams(config.seed, trial)
    instance = build_instance(config.instance, instance_ss)
    solution = offline_best(instance)
    fixed_stats = hindsight_stats(instance, solution)
    results = []
    baseline = None  # (config, result) of the first baseline run
    for mcfg in mechanisms:
        if (
            mcfg.purchase_policy == BASELINE
            and baseline is not None
            and dataclasses.replace(baseline[0], budget=mcfg.budget) == mcfg
        ):
            results.append(dataclasses.replace(baseline[1], budget=mcfg.budget))
            continue
        mech = Mechanism(mcfg, instance)
        mech.run(np.random.default_rng(mech_ss))
        final = mech.finalize()
        if instance.has_test_set:
            risk_s = risk(instance, final, "surrogate")
            risk_01 = risk(instance, final, "zero-one")
        else:
            risk_s = risk_01 = math.nan
        result = TrialResult(
            trial=trial,
            seed=trial_seed,
            policy=mcfg.purchase_policy,
            budget=mcfg.budget,
            spend=mech.spend,
            purchases=mech.purchases,
            regret=mech.loss_total - solution.total_loss,
            risk_surrogate=risk_s,
            risk_zero_one=risk_01,
            stats=SequenceStats(
                avg_value_cost=mech.realized_avg_value_cost,
                avg_value=mech.realized_avg_value,
                **fixed_stats,
            ),
            transcript=mech.transcript if record_transcript else None,
        )
        if mcfg.purchase_policy == BASELINE and baseline is None:
            baseline = (mcfg, result)
        results.append(result)
    return results


def _trial_job(args) -> list[TrialResult]:
    return run_trial(*args)  # the module global, looked up once per trial


def _all_trials(
    config: ExperimentConfig,
    mechanisms: Sequence[MechanismConfig],
    jobs: int,
    record_first: bool = False,
) -> list[list[TrialResult]]:
    """``run_trial`` on every trial of ``config``, in index order, across
    ``jobs`` worker processes; byte-identical results for any job count.
    With ``record_first`` trial 0 records its transcripts."""
    work = [(config, t, mechanisms, record_first and t == 0) for t in range(config.trials)]
    if jobs <= 1 or len(work) <= 1:
        return [_trial_job(w) for w in work]
    from concurrent.futures import ProcessPoolExecutor  # only pooled runs load it

    # a forking pool starts all its workers at once, so start no idle ones
    with ProcessPoolExecutor(max_workers=min(jobs, len(work))) as pool:
        return list(pool.map(_trial_job, work, chunksize=1))


def run_trials(
    config: ExperimentConfig, jobs: int = 1, *, record_transcript: bool = False
) -> list[TrialResult]:
    """One result of ``config.mechanism`` per trial, in index order. With
    ``record_transcript`` trial 0's result carries its transcript."""
    per_trial = _all_trials(config, (config.mechanism,), jobs, record_transcript)
    return [result for (result,) in per_trial]


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


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


def mean_se(values: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of the mean (0 for a single value)."""
    mean = float(np.mean(values))
    if len(values) < 2:
        return mean, 0.0
    return mean, float(np.std(values, ddof=1) / math.sqrt(len(values)))


def run_sweep(config: ExperimentConfig, jobs: int = 1) -> list[SweepRow]:
    """One aggregate row per (policy, budget), all policies on paired trials."""
    if not config.budget_grid:
        raise InvalidConfigError("sweep needs a nonempty budget_grid")
    grid = [  # built before any trial runs, so a bad budget fails first
        dataclasses.replace(config.mechanism, purchase_policy=policy, budget=budget)
        for policy in POLICIES
        for budget in config.budget_grid
    ]
    per_trial = _all_trials(config, grid, jobs)

    rows = []
    for i, mcfg in enumerate(grid):
        cells = [results[i] for results in per_trial]
        regret_m, regret_se = mean_se(np.array([c.regret for c in cells]))
        r01_m, r01_se = mean_se(np.array([c.risk_zero_one for c in cells]))
        rs_m, rs_se = mean_se(np.array([c.risk_surrogate for c in cells]))
        spend_m, spend_se = mean_se(np.array([c.spend for c in cells]))
        rows.append(
            SweepRow(
                policy=mcfg.purchase_policy,
                budget=mcfg.budget,
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


_CSV_BLOCK_ROWS = 4096  # rows joined and written at a time


def _column_text(column) -> list[str]:
    """One column's CSV fields. Floats are told apart by their bits, so -0.0
    and 0.0 stay apart; a column numpy reads as float because it mixes ints
    and floats prints its ints (up to 2**53 in magnitude) as ``str`` would."""
    values = np.asarray(column)
    if values.dtype.kind == "b":
        texts, index = ["0", "1"], values.view(np.uint8)
    elif values.dtype.kind == "f":
        bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
        distinct, index = np.unique(bits, return_inverse=True)
        texts = [f"{x:.17g}" for x in distinct.view(np.float64).tolist()]
    else:
        return list(map(str, values.tolist()))
    return np.array(texts, dtype=object)[index].tolist()


def _write_csv(path, header: Sequence[str], columns: Sequence) -> None:
    """A header line, then one line per row; ``columns`` holds one
    equal-length sequence per header entry."""
    texts = [_column_text(column) for column in columns]
    n = len(texts[0]) if texts else 0
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        for start in range(0, n, _CSV_BLOCK_ROWS):
            block = [text[start:start + _CSV_BLOCK_ROWS] for text in texts]
            f.write("\n".join(map(",".join, zip(*block))) + "\n")


def write_transcript_csv(path, transcript) -> None:
    columns = [getattr(transcript, name) for name in transcript.COLUMNS[1:]]
    _write_csv(path, transcript.COLUMNS, [np.arange(len(transcript)), *columns])


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
    rows = [
        (r.trial, r.seed, r.spend, r.purchases, r.regret, r.risk_surrogate,
         r.risk_zero_one, *dataclasses.astuple(r.stats))
        for r in results
    ]
    _write_csv(path, SUMMARY_COLUMNS, list(zip(*rows)))


SWEEP_COLUMNS = tuple(f.name for f in dataclasses.fields(SweepRow))


def write_sweep_csv(path, rows: Sequence[SweepRow]) -> None:
    _write_csv(path, SWEEP_COLUMNS, list(zip(*map(dataclasses.astuple, rows))))
