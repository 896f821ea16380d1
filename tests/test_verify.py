import json

import numpy as np
import pytest

from procure_learn import pricing
from procure_learn.cli import main
from procure_learn.ftrl import FtrlLearner
from procure_learn.mechanism import Mechanism
from procure_learn.verify import (
    check_acceptance_probability,
    check_cdf_roundtrip,
    check_determinism,
    check_importance_unbiasedness,
    check_simplex_validity,
    check_survival_empirical,
    check_zero_feed_neutrality,
    run_checks,
)


def test_quick_suite_passes():
    report = run_checks(quick=True)
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert report["all_passed"], failed
    assert len(report["checks"]) == 10
    for check in report["checks"]:
        assert {"name", "passed", "observed", "expected", "tolerance"} <= set(check)


def test_wrong_cdf_exponent_is_caught():
    # a survival with c instead of sqrt(c) must fail the empirical check
    def broken_survival(delta, scale, cost):
        if scale == 0.0:
            return 1.0
        if cost <= 0.0:
            return 1.0 if delta > 0.0 else 0.0
        return min(1.0, delta / (scale * cost))

    result = check_survival_empirical(n=20_000, tolerance=0.02, survival_fn=broken_survival)
    assert not result.passed

    report = run_checks(quick=True, survival_fn=broken_survival)
    assert not report["all_passed"]
    with pytest.raises(TypeError):  # a misspelt override is refused, not dropped
        run_checks(quick=True, survival=broken_survival)


def test_wrong_sampler_exponent_is_caught():
    def broken_sampler(delta, scale, u):
        if delta <= 0.0:
            return 0.0
        if u >= 1.0 - min(1.0, delta / scale):
            return 1.0
        return (delta / (scale * (1.0 - u))) ** 1.5  # wrong inverse CDF

    result = check_cdf_roundtrip(sample_fn=broken_sampler)
    assert not result.passed

    # priced_rounds, which decides runs, doubling every price (and deciding
    # at the doubled price) fails each check that draws prices from it
    def doubled(delta, cost, u, price_scale):
        price, q, _ = pricing.priced_rounds(delta, cost, u, price_scale)
        price = 2.0 * price
        return price, q, (q > 0.0) & (price >= cost)

    report = run_checks(quick=True, rounds_fn=doubled)
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    drawn = ("survival_empirical", "expected_payment_mc", "acceptance_probability")
    assert {f"pricing.{name}" for name in drawn} <= failed


def test_run_q_at_the_wrong_exponent_is_caught():
    # priced_rounds returning q at c instead of sqrt(c): the run weights its
    # purchases by a q that is not their acceptance rate
    def wrong_q(delta, cost, u, price_scale):
        price, _, accepted = pricing.priced_rounds(delta, cost, u, price_scale)
        return price, np.minimum(1.0, delta / (price_scale * cost)), accepted

    assert not check_acceptance_probability(n=10_000, rounds_fn=wrong_q).passed


def _loses_last_feed(monkeypatch):
    """A block feed that gives its last feed weight 0, as if it dropped it."""
    feed_rows = FtrlLearner._feed_rows

    def lossy(self, gradients, inverse_weights, deltas, keep=None):
        weights = np.concatenate([inverse_weights[:-1], 0.0 * inverse_weights[-1:]])
        return feed_rows(self, gradients, weights, deltas, keep)

    monkeypatch.setattr(FtrlLearner, "_feed_rows", lossy)


def test_dropped_block_feed_is_caught(monkeypatch):
    _loses_last_feed(monkeypatch)
    assert not check_zero_feed_neutrality().passed


def test_unnormalized_block_hypotheses_are_caught(monkeypatch):
    # a block feed that posts the softmax's numerators, not their shares
    feed_rows = FtrlLearner._feed_rows

    def unnormalized(self, *args, **kwargs):
        posted = feed_rows(self, *args, **kwargs)
        return posted / posted.max(axis=1, keepdims=True)

    monkeypatch.setattr(FtrlLearner, "_feed_rows", unnormalized)
    assert not check_simplex_validity().passed


def test_estimate_weighted_by_q_is_caught(monkeypatch):
    # a settle that weights the estimate by q instead of 1 / q
    settle = Mechanism._settle

    def by_q(self, price, q, accepted, fed, posted, uniforms):
        inverse = np.divide(1.0, q, out=np.zeros_like(q), where=accepted)
        return settle(self, price, inverse, accepted, fed, posted, uniforms)

    monkeypatch.setattr(Mechanism, "_settle", by_q)
    assert not check_importance_unbiasedness(n=100).passed


def test_unseeded_run_is_caught(monkeypatch):
    # a run that draws from fresh entropy instead of the generator it is given
    run = Mechanism.run
    monkeypatch.setattr(Mechanism, "run", lambda self, rng: run(self, np.random.default_rng()))
    assert not check_determinism().passed


def test_cli_verify_quick(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "--quick", "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["all_passed"] and report["quick"]
    printed = json.loads(capsys.readouterr().out)
    assert printed == report


def test_cli_verify_exits_1_on_a_failed_check(tmp_path, monkeypatch):
    _loses_last_feed(monkeypatch)
    out = tmp_path / "r.json"
    assert main(["verify", "--quick", "--output", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["all_passed"] is False
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert "ftrl.zero_feed_neutrality" in failed
