"""Monte-Carlo release checks for the price law and the learner.

Each check compares an observed quantity against its expected value at an
explicit tolerance and reports a machine-readable verdict. Every check
calls code that a run executes: the price law's functions, which can be
injected to show that a broken variant fails (``priced_rounds`` draws every
array of prices), and ``Mechanism.run`` for every learner check."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from . import pricing
from .environment import CoinSpec, LinearTaskSpec, UniformCost
from .ftrl import FixedRate, FtrlLearner, RatePolicy, TheoryRate
from .mechanism import (
    PAYMENT_MODES,
    AdaptiveScale,
    FixedScale,
    Mechanism,
    MechanismConfig,
    Transcript,
)
from .metrics import offline_best

SURVIVAL_GRID_DELTAS = (0.1, 0.25, 0.5, 0.75, 1.0)
SURVIVAL_GRID_SCALES = (0.5, 1.0, 2.0, 4.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    observed: float
    expected: float
    tolerance: float
    detail: str = ""


def _result(name, observed, expected, tolerance, detail="") -> CheckResult:
    return CheckResult(
        name=name,
        passed=bool(abs(observed - expected) <= tolerance),
        observed=float(observed),
        expected=float(expected),
        tolerance=float(tolerance),
        detail=detail,
    )


# ---------------------------------------------------------------------------
# Price-law checks
# ---------------------------------------------------------------------------


def _prices(rounds_fn: Callable, delta: float, scale: float, u: np.ndarray) -> np.ndarray:
    """The prices ``rounds_fn`` posts at one delta and scale, a round per
    uniform in ``u``; the price does not read the cost."""
    return rounds_fn(np.full(len(u), delta), np.zeros(len(u)), u, scale)[0]


def check_survival_empirical(
    n: int = 200_000,
    seed: int = 7,
    tolerance: float = 0.005,
    rounds_fn: Callable = pricing.priced_rounds,
    survival_fn: Callable = pricing.survival,
) -> CheckResult:
    """Empirical Pr[price >= c] from the prices of ``priced_rounds`` vs the
    survival formula."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_at = ""
    grid = np.linspace(0.05, 1.0, 10)
    for dlt in SURVIVAL_GRID_DELTAS:
        for scale in SURVIVAL_GRID_SCALES:
            prices = _prices(rounds_fn, dlt, scale, rng.random(n))
            for c in grid:
                empirical = float(np.mean(prices >= c))
                gap = abs(empirical - survival_fn(dlt, scale, float(c)))
                if gap > worst:
                    worst, worst_at = gap, f"delta={dlt} scale={scale} c={c:.2f}"
    return _result("pricing.survival_empirical", worst, 0.0, tolerance, worst_at)


def check_survival_monotonic(survival_fn: Callable = pricing.survival) -> CheckResult:
    """Survival nonincreasing in cost and scale, nondecreasing in delta."""
    costs = np.linspace(0.01, 1.0, 25)
    violations = 0
    for dlt in SURVIVAL_GRID_DELTAS:
        for scale in SURVIVAL_GRID_SCALES:
            values = [survival_fn(dlt, scale, float(c)) for c in costs]
            violations += sum(b > a + 1e-12 for a, b in zip(values, values[1:]))
    for c in (0.04, 0.25, 0.81):
        by_delta = [survival_fn(d, 2.0, c) for d in SURVIVAL_GRID_DELTAS]
        violations += sum(b < a - 1e-12 for a, b in zip(by_delta, by_delta[1:]))
        by_scale = [survival_fn(0.5, s, c) for s in SURVIVAL_GRID_SCALES]
        violations += sum(b > a + 1e-12 for a, b in zip(by_scale, by_scale[1:]))
    return _result("pricing.survival_monotonic", violations, 0, 0)


def check_cdf_roundtrip(
    sample_fn: Callable = pricing.sample_price,
    cdf_fn: Callable = pricing.price_cdf,
) -> CheckResult:
    """cdf(sample(u)) reproduces u on the continuous region, exactly at the atom."""
    worst = 0.0
    for dlt, scale in ((0.1, 4.0), (0.5, 2.0), (0.9, 1.5)):
        atom = min(1.0, dlt / scale)
        for u in np.linspace(0.0, 0.999, 40):
            price = sample_fn(dlt, scale, float(u))
            if u >= 1.0 - atom:
                if price != 1.0:  # the atom must land on 1 exactly
                    worst = max(worst, 1.0)
            else:
                worst = max(worst, abs(cdf_fn(dlt, scale, price) - u))
    return _result("pricing.cdf_roundtrip", worst, 0.0, 1e-12)


def check_expected_payment(
    n: int = 200_000,
    seed: int = 11,
    rounds_fn: Callable = pricing.priced_rounds,
    payment_fn: Callable = pricing.expected_payment,
) -> CheckResult:
    """Monte-Carlo mean of price * [price >= c] vs the closed form, 3 SEs."""
    rng = np.random.default_rng(seed)
    worst_z = 0.0
    worst_at = ""
    for dlt, scale in ((1.0, 2.0), (0.5, 2.0), (0.3, 1.0)):
        prices = _prices(rounds_fn, dlt, scale, rng.random(n))
        for c in (0.0, 0.25, 0.81):
            paid = prices * (prices >= c)
            se = float(np.std(paid, ddof=1)) / math.sqrt(n)
            z = abs(float(np.mean(paid)) - payment_fn(dlt, scale, c)) / max(se, 1e-15)
            if z > worst_z:
                worst_z, worst_at = z, f"delta={dlt} scale={scale} c={c}"
    return _result("pricing.expected_payment_mc", worst_z, 0.0, 3.0, worst_at)


def check_acceptance_probability(
    n: int = 100_000, seed: int = 13, rounds_fn: Callable = pricing.priced_rounds
) -> CheckResult:
    """The acceptance rate of ``priced_rounds``, which decides a run's
    rounds, equals the q it returns, which the run weights purchases by."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for dlt, scale, cost in ((0.6, 2.0, 0.5), (0.2, 1.0, 0.09), (1.0, 4.0, 0.04)):
        u = rng.random(n)
        _, q, accepted = rounds_fn(np.full(n, dlt), np.full(n, cost), u, scale)
        worst = max(worst, float(np.max(np.abs(np.mean(accepted) - q))))
    return _result("pricing.acceptance_probability", worst, 0.0, 0.01)


# ---------------------------------------------------------------------------
# Learner checks
# ---------------------------------------------------------------------------


def check_full_information_bound(instances: int = 50, seed: int = 17) -> CheckResult:
    """Realized regret under q = 1 never exceeds the accumulated path
    bound, at a drawn fixed rate on half the instances of each kind and at
    the theory rate on the other half."""
    root = np.random.SeedSequence(seed)
    violations = 0
    worst_slack = math.inf
    for i, child in enumerate(root.spawn(instances)):
        gen_rng = np.random.default_rng(child)
        if i % 2 == 0:
            instance = CoinSpec(T=400, epsilon=0.5 * gen_rng.random()).build(gen_rng)
        else:
            separation = 0.3 + 0.5 * gen_rng.random()
            spec = LinearTaskSpec(300, UniformCost(), dim=3, separation=separation, T_test=0)
            instance = spec.build(gen_rng)
        rate = FixedRate(0.05 + 0.3 * gen_rng.random()) if i % 4 < 2 else TheoryRate()
        config = MechanismConfig(
            budget=1.0, purchase_policy="baseline", price_scale=FixedScale(0.0), learning_rate=rate
        )
        mech = Mechanism(config, instance).run(np.random.default_rng(child.spawn(1)[0]))
        realized = mech.loss_total - offline_best(instance).lower_bound
        slack = mech.learner.regret_bound() - realized
        worst_slack = min(worst_slack, slack)
        if slack < 0:
            violations += 1
    detail = f"min slack {worst_slack:.6g} over {instances} instances"
    return _result("ftrl.full_information_bound", violations, 0, 0, detail)


def _coin_run(seed, T: int = 2000, rate: RatePolicy = FixedRate(0.05)) -> Mechanism:
    """A priced run on ``T`` coin flips at scale 3: every flip is worth
    delta 1, costs 1 and is bought with q = 1/3."""
    rng = np.random.default_rng(seed)
    config = MechanismConfig(1.0, price_scale=FixedScale(3.0), learning_rate=rate)
    return Mechanism(config, CoinSpec(T=T, epsilon=0.2).build(rng)).run(rng)


def _learned(learner: FtrlLearner) -> bytes:
    """The bytes of a learner's gradient sum, bound sums, rate and hypothesis."""
    sums = [learner.bound_sum, learner.rated_sum, learner.learning_rate]
    return np.concatenate([learner.grad_sum, sums, learner.coords]).tobytes()


def check_importance_unbiasedness(n: int = 400, seed: int = 19) -> CheckResult:
    """Over ``n`` seeds of a coin run, the mean of the estimate that
    ``_settle`` weights by 1/q matches the mean of the value-cost total it
    estimates, within 3 SEs of their paired gap."""
    runs = (_coin_run(child, T=200) for child in np.random.SeedSequence(seed).spawn(n))
    gaps = np.array([run.estimate_total - run.value_cost_total for run in runs])
    se = float(np.std(gaps, ddof=1)) / math.sqrt(n)
    z = abs(float(np.mean(gaps))) / max(se, 1e-15)
    return _result("ftrl.importance_unbiasedness", z, 0.0, 3.0, f"over {n} runs")


def check_simplex_validity(n: int = 2000, seed: int = 23) -> CheckResult:
    """The hypotheses an ``n``-round coin run posted are distributions: their
    mean sums to one and has no negative coordinate, and so does the
    learner's last hypothesis; every round's loss 1 - w[outcome] lies in
    [0, 1]."""
    run = _coin_run(seed, T=n, rate=FixedRate(0.4))
    mean, last, loss = run.hypothesis_sum / n, run.learner.coords, run.transcript.loss
    sums = abs(mean.sum() - 1.0), abs(last.sum() - 1.0)
    worst = max(*sums, -min(mean.min(), last.min(), loss.min(), 0.0), loss.max() - 1.0)
    return _result("ftrl.simplex_validity", worst, 0.0, 1e-9)


def check_zero_feed_neutrality(seed: int = 29) -> CheckResult:
    """A coin run's rejected rounds fed nothing: a fresh learner fed the
    run's purchases alone, one ``feed_gradient`` each at weight 1/q, ends
    bit for bit at the learner that the run fed in one ``_feed_rows``
    block, at the theory rate, which each feed takes again."""
    run = _coin_run(seed, rate=TheoryRate())
    instance, q = run.instance, run.transcript.q
    replay = FtrlLearner(instance.space, run.config.learning_rate)
    bought = np.flatnonzero(run.transcript.accepted)
    for t in bought.tolist():  # a coin has no filler: every flip has a gradient
        gradient = np.zeros(instance.space.dim)
        gradient[instance.outcomes[t]] = -1.0
        replay.feed_gradient(gradient, 1.0 / q[t], 1.0)
    differ = int(_learned(replay) != _learned(run.learner))
    detail = f"{len(bought)} purchases of {run.horizon} rounds replayed"
    return _result("ftrl.zero_feed_neutrality", differ, 0, 0, detail)


def check_determinism(seed: int = 31) -> CheckResult:
    """Two runs of one config drawn from ``seed``, each from a generator
    seeded with it, give the same transcript bytes and the same learner
    end state."""
    draw = np.random.default_rng(seed)
    config = MechanismConfig(
        budget=draw.uniform(5.0, 50.0),
        payment_mode=PAYMENT_MODES[draw.integers(2)],
        price_scale=(AdaptiveScale(), FixedScale(draw.uniform(0.5, 4.0)))[draw.integers(2)],
        learning_rate=FixedRate(draw.uniform(0.05, 0.5)),
        hard_stop=bool(draw.integers(2)),
    )
    spec = (CoinSpec(1000), LinearTaskSpec(1000, UniformCost(), T_test=0))[draw.integers(2)]
    states = []
    for _ in range(2):
        rng = np.random.default_rng(seed)
        run = Mechanism(config, spec.build(rng)).run(rng)
        columns = (getattr(run.transcript, name).tobytes() for name in Transcript.COLUMNS[1:])
        states.append(b"".join(columns) + _learned(run.learner))
    return _result("ftrl.determinism", int(states[0] != states[1]), 0, 0, f"{spec!r} {config!r}")


# ---------------------------------------------------------------------------
# Suite
# ---------------------------------------------------------------------------


def run_checks(
    quick: bool = False,
    *,
    rounds_fn: Callable = pricing.priced_rounds,
    survival_fn: Callable = pricing.survival,
) -> dict:
    """Run every invariant check; returns a JSON-ready report. ``rounds_fn``
    (the array decision) and ``survival_fn`` stand in for the price law's in
    every check that calls them."""
    n_big = 20_000 if quick else 200_000
    n_mid = 50_000 if quick else 100_000  # at 10 000 the tolerance is about 2 SE
    runs = 100 if quick else 400
    tol_surv = 0.02 if quick else 0.005
    instances = 10 if quick else 50
    price_kw = {"rounds_fn": rounds_fn, "survival_fn": survival_fn}
    checks = [
        check_survival_empirical(n=n_big, tolerance=tol_surv, **price_kw),
        check_survival_monotonic(survival_fn),
        check_cdf_roundtrip(),
        check_expected_payment(n=n_big, rounds_fn=rounds_fn),
        check_acceptance_probability(n=n_mid, rounds_fn=rounds_fn),
        check_full_information_bound(instances=instances),
        check_importance_unbiasedness(n=runs),
        check_simplex_validity(),
        check_zero_feed_neutrality(),
        check_determinism(),
    ]
    return {
        "quick": quick,
        "all_passed": all(c.passed for c in checks),
        "checks": [asdict(c) for c in checks],
    }
