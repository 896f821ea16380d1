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
from typing import Optional, Sequence

import numpy as np

from .core import InvalidConfigError
from .environment import (
    CoinSpec,
    IdxSpec,
    InstanceSpec,
    LinearTaskSpec,
    ProblemInstance,
    TwoPointCost,
    UniformCost,
)
from .mechanism import (
    AdaptiveScale,
    BASELINE,
    FixedRate,
    FixedScale,
    Mechanism,
    MechanismConfig,
    POLICIES,
    PriorKnowledge,
    TheoryRate,
    Transcript,
)
from .metrics import OfflineSolution, SequenceStats, offline_best, risk


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
        if self.seed < 0:  # numpy seeds only from nonnegative integers
            raise InvalidConfigError(f"seed must be >= 0, got {self.seed}")
        for budget in self.budget_grid or ():  # refused as the mechanism's budget would be
            dataclasses.replace(self.mechanism, budget=budget)


def _require(d: dict, key: str, where: str):
    if key not in d:
        raise InvalidConfigError(f"missing required key {key!r} in {where}")
    return d[key]


def _section(d, where: str) -> dict:
    """``d``, refused by name unless it is a JSON object."""
    if not isinstance(d, dict):
        raise InvalidConfigError(f"{where} must be a JSON object, got {json.dumps(d)}")
    return d


def _number(value, key: str) -> float:
    """``value`` as a float, refused by ``key`` unless it is a JSON number
    that a float can hold: ``float`` would read true as 1.0 and "5" as 5.0."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an integer beyond the largest float
            pass
    raise InvalidConfigError(f"{key} must be a number, got {json.dumps(value)}")


def _string(value, key: str) -> str:
    if not isinstance(value, str):
        raise InvalidConfigError(f"{key} must be a string, got {json.dumps(value)}")
    return value


def _boolean(value, key: str) -> bool:
    """``value``, refused unless it is true or false: ``bool`` would read
    "false" as True."""
    if not isinstance(value, bool):
        raise InvalidConfigError(f"{key} must be true or false, got {json.dumps(value)}")
    return value


def _integer(value, key: str) -> int:
    """``value``, refused by ``key`` unless it is an integral number: ``int``
    would read 2.7 as 2 and true as 1."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    ):
        raise InvalidConfigError(f"{key} must be an integer, got {json.dumps(value)}")
    return int(value)


def _list_of(parse, what: str):
    """The parser of a JSON list whose items ``parse`` reads, as a tuple."""

    def parse_list(values, key: str) -> tuple:
        if not isinstance(values, list):
            raise InvalidConfigError(f"{key} must be a list of {what}, got {json.dumps(values)}")
        return tuple(parse(v, key) for v in values)

    return parse_list


def _optional(parse):
    """The parser that reads null as None and any other value by ``parse``."""
    return lambda value, key: None if value is None else parse(value, key)


def _from_keys(cls, d, where: str, tag: Optional[str] = None, skip: tuple[str, ...] = ()):
    """The ``cls`` whose fields, but ``skip``, are the keys of the JSON object
    ``d`` beside its ``tag``, each read by the field's annotation; a key left
    out keeps the field's default, which is set nowhere else. Any other key
    is refused: a misspelt one would leave its setting at the default."""
    fields = [f for f in dataclasses.fields(cls) if f.name not in skip]
    unread = sorted(set(_section(d, where)).difference([tag], (f.name for f in fields)))
    if unread:
        raise InvalidConfigError(f"unknown key(s) {', '.join(map(repr, unread))} in {where}")
    return cls(**{
        f.name: _PARSE_FIELD[f.type](_require(d, f.name, where), f.name)
        for f in fields
        if f.name in d or f.default is dataclasses.MISSING
    })


def _one_of(tag: str, kinds: dict):
    """The parser of a tagged section: its ``tag`` key names the class in
    ``kinds`` whose fields are the section's other keys. The two two-point
    cost kinds share ``TwoPointCost``; only the correlated one reads, and
    needs, ``target_groups``."""

    def parse(d, where: str):
        kind = _require(_section(d, where), tag, where)
        if not (isinstance(kind, str) and kind in kinds):
            raise InvalidConfigError(f"unknown {where} {tag} {kind!r}")
        if kind == "two-point-correlated":
            _require(d, "target_groups", where)
        skip = ("target_groups",) if kind == "two-point-independent" else ()
        return _from_keys(kinds[kind], d, where, tag, skip)

    return parse


# the classes a tagged section's tag names
_INSTANCE_KINDS = {"coin": CoinSpec, "linear": LinearTaskSpec, "idx": IdxSpec}
_COST_MODEL_KINDS = {
    "uniform": UniformCost,
    "two-point-independent": TwoPointCost,
    "two-point-correlated": TwoPointCost,
}
_SCALE_MODES = {"adaptive": AdaptiveScale, "fixed": FixedScale, "from-knowledge": PriorKnowledge}
_RATE_MODES = {"theory": TheoryRate, "fixed": FixedRate}

# how a field's value is read, by the field's annotation
_PARSE_FIELD = {
    "int": _integer,
    "float": _number,
    "str": _string,
    "bool": _boolean,
    "tuple[int, ...]": _list_of(_integer, "integers"),
    "Optional[int]": _optional(_integer),
    "Optional[float]": _optional(_number),
    "Optional[tuple[int, ...]]": _list_of(_integer, "integers"),  # read only when required
    "Optional[tuple[float, ...]]": _optional(_list_of(_number, "numbers")),
    "InstanceSpec": _one_of("kind", _INSTANCE_KINDS),
    "CostModel": _one_of("kind", _COST_MODEL_KINDS),
    "ScalePolicy": _one_of("mode", _SCALE_MODES),
    "RatePolicy": _one_of("mode", _RATE_MODES),
    "MechanismConfig": lambda value, key: _from_keys(MechanismConfig, value, key),
}


def parse_config(d) -> ExperimentConfig:
    """The config a JSON object holds, each section read by its dataclass."""
    return _from_keys(ExperimentConfig, d, "config")


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
    instance = config.instance.build(instance_ss)
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
    grid = [
        dataclasses.replace(config.mechanism, purchase_policy=policy, budget=budget)
        for policy in POLICIES
        for budget in config.budget_grid
    ]
    per_trial = _all_trials(config, grid, jobs)

    rows = []
    for i, mcfg in enumerate(grid):
        cells = [results[i] for results in per_trial]
        # the mean and standard error of each, in SweepRow's field order
        summaries = [
            mean_se(np.array([getattr(c, name) for c in cells]))
            for name in ("regret", "risk_zero_one", "risk_surrogate", "spend")
        ]
        rows.append(SweepRow(mcfg.purchase_policy, mcfg.budget, len(cells), *sum(summaries, ())))
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
