"""Monte-Carlo release checks for the price law and the learner.

Each check compares an observed quantity against its expected value at an
explicit tolerance and reports a machine-readable verdict. The functions
under test are injectable so a deliberately broken variant can be shown to
fail (and so the checks demonstrably have teeth)."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from . import pricing
from .core import l2_ball, simplex
from .environment import coin_sequence, linear_task, UniformCost
from .ftrl import FtrlLearner
from .mechanism import FixedRate, FixedScale, Mechanism, MechanismConfig
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


def check_survival_empirical(
    n: int = 200_000,
    seed: int = 7,
    tolerance: float = 0.005,
    sample_fn: Callable = pricing.sample_prices,
    survival_fn: Callable = pricing.survival,
) -> CheckResult:
    """Empirical Pr[price >= c] from sampled prices vs the survival formula."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_at = ""
    grid = np.linspace(0.05, 1.0, 10)
    for dlt in SURVIVAL_GRID_DELTAS:
        for scale in SURVIVAL_GRID_SCALES:
            prices = sample_fn(dlt, scale, rng.random(n))
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
                if price != 1.0:  # the atom must land on c_max exactly
                    worst = max(worst, 1.0)
            else:
                worst = max(worst, abs(cdf_fn(dlt, scale, price) - u))
    return _result("pricing.cdf_roundtrip", worst, 0.0, 1e-12)


def check_expected_payment(
    n: int = 200_000,
    seed: int = 11,
    sample_fn: Callable = pricing.sample_prices,
    payment_fn: Callable = pricing.expected_payment,
) -> CheckResult:
    """Monte-Carlo mean of price * [price >= c] vs the closed form, 3 SEs."""
    rng = np.random.default_rng(seed)
    worst_z = 0.0
    worst_at = ""
    for dlt, scale in ((1.0, 2.0), (0.5, 2.0), (0.3, 1.0)):
        prices = sample_fn(dlt, scale, rng.random(n))
        for c in (0.0, 0.25, 0.81):
            paid = prices * (prices >= c)
            se = float(np.std(paid, ddof=1)) / math.sqrt(n)
            z = abs(float(np.mean(paid)) - payment_fn(dlt, scale, c)) / max(se, 1e-15)
            if z > worst_z:
                worst_z, worst_at = z, f"delta={dlt} scale={scale} c={c}"
    return _result("pricing.expected_payment_mc", worst_z, 0.0, 3.0, worst_at)


def check_acceptance_probability(
    n: int = 100_000,
    seed: int = 13,
    sample_fn: Callable = pricing.sample_prices,
    survival_fn: Callable = pricing.survival,
) -> CheckResult:
    """Pr[price >= cost] equals the q the mechanism importance-weights by."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for dlt, scale, cost in ((0.6, 2.0, 0.5), (0.2, 1.0, 0.09), (1.0, 4.0, 0.04)):
        prices = sample_fn(dlt, scale, rng.random(n))
        empirical = float(np.mean(prices >= cost))
        worst = max(worst, abs(empirical - survival_fn(dlt, scale, cost)))
    return _result("pricing.acceptance_probability", worst, 0.0, 0.01)


# ---------------------------------------------------------------------------
# Learner checks
# ---------------------------------------------------------------------------


def check_full_information_bound(instances: int = 50, seed: int = 17) -> CheckResult:
    """Realized regret under q = 1 never exceeds the accumulated path bound."""
    root = np.random.SeedSequence(seed)
    violations = 0
    worst_slack = math.inf
    for i, child in enumerate(root.spawn(instances)):
        gen_rng = np.random.default_rng(child)
        if i % 2 == 0:
            instance = coin_sequence(400, 0.5 * gen_rng.random(), "heads", gen_rng)
        else:
            instance = linear_task(
                3, 2, 0.3 + 0.5 * gen_rng.random(), 300, 0, UniformCost(), gen_rng
            )
        config = MechanismConfig(
            budget=1.0,
            purchase_policy="baseline",
            price_scale=FixedScale(0.0),
            learning_rate=FixedRate(0.05 + 0.3 * gen_rng.random()),
        )
        mech = Mechanism(config, instance).run(np.random.default_rng(child.spawn(1)[0]))
        realized = mech.loss_total - offline_best(instance).lower_bound
        slack = mech.learner.regret_bound() - realized
        worst_slack = min(worst_slack, slack)
        if slack < 0:
            violations += 1
    return _result(
        "ftrl.full_information_bound",
        violations,
        0,
        0,
        f"min slack {worst_slack:.6g} over {instances} instances",
    )


def check_importance_unbiasedness(n: int = 100_000, seed: int = 19) -> CheckResult:
    """The q-weighted coin makes the observed loss value unbiased for f(h)."""
    rng = np.random.default_rng(seed)
    q, f_value = 0.3, 0.74
    obtained = rng.random(n) < q
    observed = np.where(obtained, f_value / q, 0.0)
    se = float(np.std(observed, ddof=1)) / math.sqrt(n)
    z = abs(float(np.mean(observed)) - f_value) / max(se, 1e-15)
    return _result("ftrl.importance_unbiasedness", z, 0.0, 3.0)


def check_simplex_validity(n: int = 300, seed: int = 23) -> CheckResult:
    """Multiplicative-weights iterates stay valid distributions."""
    rng = np.random.default_rng(seed)
    learner = FtrlLearner(simplex(5), 0.4)
    worst = 0.0
    for _ in range(n):
        g = rng.normal(size=5)
        g /= max(1.0, float(np.max(np.abs(g))))
        learner.iw_feed(float(rng.uniform(0.2, 1.0)), True, g)
        w = learner.coords
        worst = max(worst, abs(float(w.sum()) - 1.0), max(0.0, -float(w.min())))
    return _result("ftrl.simplex_validity", worst, 0.0, 1e-9)


def check_zero_feed_neutrality(seed: int = 29) -> CheckResult:
    """Interleaved zero feeds never move the hypothesis sequence."""
    rng = np.random.default_rng(seed)
    grads = [rng.normal(size=3) / 3.0 for _ in range(40)]
    plain = FtrlLearner(l2_ball(3, 2.0), 0.2)
    padded = FtrlLearner(l2_ball(3, 2.0), 0.2)
    worst = 0.0
    for g in grads:
        plain.feed_gradient(g)
        for _ in range(int(rng.integers(0, 4))):
            padded.iw_feed(0.5, False)
        padded.feed_gradient(g)
        worst = max(worst, float(np.max(np.abs(plain.coords - padded.coords))))
    return _result("ftrl.zero_feed_neutrality", worst, 0.0, 0.0)


def check_determinism(seed: int = 31) -> CheckResult:
    """Identical feed sequences give bitwise-identical hypothesis paths."""
    rng = np.random.default_rng(seed)
    feeds = [(rng.normal(size=4) / 2.0, float(rng.uniform(0.1, 1.0))) for _ in range(60)]
    paths = []
    for _ in range(2):
        learner = FtrlLearner(simplex(4), 0.3)
        trace = []
        for g, q in feeds:
            learner.iw_feed(q, True, g)
            trace.append(learner.coords.copy())
        paths.append(np.vstack(trace))
    identical = np.array_equal(paths[0], paths[1])
    return _result("ftrl.determinism", 0 if identical else 1, 0, 0)


# ---------------------------------------------------------------------------
# Suite
# ---------------------------------------------------------------------------


def run_checks(quick: bool = False, **overrides) -> dict:
    """Run every invariant check; returns a JSON-ready report."""
    n_big = 20_000 if quick else 200_000
    n_mid = 10_000 if quick else 100_000
    tol_surv = 0.02 if quick else 0.005
    instances = 10 if quick else 50
    price_kw = {
        k: v for k, v in overrides.items() if k in ("sample_fn", "survival_fn")
    }
    checks = [
        check_survival_empirical(n=n_big, tolerance=tol_surv, **price_kw),
        check_survival_monotonic(
            **({"survival_fn": overrides["survival_fn"]} if "survival_fn" in overrides else {})
        ),
        check_cdf_roundtrip(),
        check_expected_payment(n=n_big),
        check_acceptance_probability(n=n_mid, **price_kw),
        check_full_information_bound(instances=instances),
        check_importance_unbiasedness(n=n_mid),
        check_simplex_validity(),
        check_zero_feed_neutrality(),
        check_determinism(),
    ]
    return {
        "quick": quick,
        "all_passed": all(c.passed for c in checks),
        "checks": [asdict(c) for c in checks],
    }
