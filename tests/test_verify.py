import json
import math

import pytest

from procure_learn.cli import main
from procure_learn.pricing import sample_prices
from procure_learn.verify import (
    check_cdf_roundtrip,
    check_survival_empirical,
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
    def broken_sampler(delta, scale, u, c_max=1.0):
        if delta <= 0.0:
            return 0.0
        atom = min(1.0, delta / (scale * math.sqrt(c_max)))
        if u >= 1.0 - atom:
            return c_max
        return (delta / (scale * (1.0 - u))) ** 1.5  # wrong inverse CDF

    result = check_cdf_roundtrip(sample_fn=broken_sampler)
    assert not result.passed

    # an array sampler that doubles every price fails each check that
    # samples, the expected-payment one included
    def doubled(delta, scale, u, c_max=1.0):
        return 2.0 * sample_prices(delta, scale, u, c_max)

    report = run_checks(quick=True, sample_fn=doubled)
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert {
        "pricing.survival_empirical",
        "pricing.expected_payment_mc",
        "pricing.acceptance_probability",
    } <= failed


def test_cli_verify_quick(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "--quick", "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["all_passed"] and report["quick"]
    printed = json.loads(capsys.readouterr().out)
    assert printed == report
