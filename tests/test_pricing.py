import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from procure_learn.core import l2_ball, simplex
from procure_learn.environment import ProblemInstance
from procure_learn.pricing import (
    expected_payment,
    price_cdf,
    reserve,
    sample_price,
    sample_prices,
    survival,
)


# ---------------------------------------------------------------------------
# delta
# ---------------------------------------------------------------------------


def test_delta_examples():
    # delta, the value a quote is parameterized by, is the second output of
    # the hinge family's row kernel; a vertex family's delta is the same at
    # every hypothesis
    def delta(instance, w):
        if instance.outcomes is not None:
            return instance.family.grad_norms(instance.outcomes)[0]
        return instance.family.loss_delta_row(np.array(w), instance, 0)[1]

    unit = ProblemInstance(
        space=l2_ball(2, 10.0),
        costs=np.zeros(1),
        features=np.array([[0.6, 0.8]]),
        labels=np.array([1]),
        feature_norms=np.array([1.0]),
    )
    assert delta(unit, [0.0, 0.0]) == pytest.approx(1.0)

    # any outcome under the max-norm pairing
    for outcome in (0, 1):
        coin = ProblemInstance(space=simplex(2), costs=np.zeros(1), outcomes=np.array([outcome]))
        assert delta(coin, [0.5, 0.5]) == 1.0

    # flat hinge region
    assert delta(unit, [1.2, 1.6]) == 0.0


# ---------------------------------------------------------------------------
# survival / reserve / cdf
# ---------------------------------------------------------------------------


def test_survival_examples():
    assert survival(0.5, 2.0, 0.25) == pytest.approx(0.5)
    assert survival(0.5, 2.0, 0.0625) == pytest.approx(1.0)
    assert survival(0.0, 2.0, 0.3) == 0.0
    assert survival(0.0, 2.0, 0.0) == 0.0
    assert survival(0.7, 2.0, 0.0) == 1.0
    assert survival(0.0, 0.0, 0.9) == 0.0  # worthless: never bought, scale 0 included
    assert survival(0.5, 0.0, 0.9) == 1.0  # buy-everything regime


def test_reserve_examples():
    assert reserve(0.5, 2.0) == pytest.approx(0.0625)
    assert reserve(2.0, 2.0) == 1.0  # capped at c_max
    assert reserve(0.0, 2.0) == 0.0
    # a worthless arrival's price law is the point mass at 0, scale 0 included
    assert reserve(0.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        reserve(0.5, 0.0)


def test_cdf_examples():
    assert price_cdf(0.5, 2.0, 0.25) == pytest.approx(0.5)
    assert price_cdf(0.5, 2.0, reserve(0.5, 2.0)) == pytest.approx(0.0)
    assert price_cdf(0.5, 2.0, 1.0) == 1.0
    assert price_cdf(0.5, 2.0, 0.01) == 0.0
    assert price_cdf(0.3, 2.0, 2.0) == 1.0
    # buy-everything regime: all the mass sits at c_max
    assert price_cdf(0.5, 0.0, 0.9) == 0.0
    assert price_cdf(0.5, 0.0, 1.0) == 1.0


def test_cdf_worthless_is_a_point_mass_at_zero():
    # sample_price posts 0 for delta == 0 at every scale, 0 included
    for scale in (0.0, 1.0, 2.0):
        for price in (0.0, 0.5, 1.0, 2.0):
            assert price_cdf(0.0, scale, price) == 1.0
        assert price_cdf(0.0, scale, -0.1) == 0.0
        for u in (0.0, 0.5, 0.999):
            assert price_cdf(0.0, scale, sample_price(0.0, scale, u)) == 1.0


def test_sample_examples():
    assert sample_price(0.5, 2.0, 0.0) == pytest.approx(0.0625)  # lowest quantile
    assert sample_price(3.0, 2.0, 0.1) == 1.0  # atom swallows everything
    assert sample_price(0.5, 2.0, 0.5) == pytest.approx(0.25)
    assert sample_price(0.0, 2.0, 0.7) == 0.0  # worthless arrival
    # scale 0: the atom takes all the mass, but a worthless arrival stays at 0
    assert sample_price(0.5, 0.0, 0.5) == 1.0
    assert sample_price(0.5, 0.0, 0.0, c_max=2.0) == 2.0
    assert sample_price(0.0, 0.0, 0.5) == 0.0


def test_sample_range_and_vector_agreement(rng):
    us = rng.random(500)
    for dlt, scale in ((0.2, 1.0), (0.8, 2.0), (1.0, 0.5)):
        vec = sample_prices(dlt, scale, us)
        low = reserve(dlt, scale)
        assert np.all(vec >= low - 1e-12) and np.all(vec <= 1.0 + 1e-12)
        for u, p in zip(us[:100], vec[:100]):
            assert sample_price(dlt, scale, float(u)) == p

    # delta and scale arrays, zeros included, broadcast against the uniforms
    deltas = np.where(rng.random(500) < 0.2, 0.0, rng.random(500))
    scales = np.where(rng.random(500) < 0.2, 0.0, 5.0 * rng.random(500))
    for c_max in (1.0, 2.0):
        vec = sample_prices(deltas, scales, us, c_max)
        for d, s, u, p in zip(deltas, scales, us, vec):
            assert sample_price(float(d), float(s), float(u), c_max) == p
            assert not np.signbit(p)
        for s in (0.0, 0.7):
            vec = sample_prices(deltas, s, us, c_max)
            for d, u, p in zip(deltas, us, vec):
                assert sample_price(float(d), s, float(u), c_max) == p


def test_cdf_sample_roundtrip():
    for dlt, scale in ((0.1, 4.0), (0.5, 2.0), (0.9, 1.2)):
        atom = min(1.0, dlt / scale)
        for u in np.linspace(0.0, 0.999, 200):
            p = sample_price(dlt, scale, float(u))
            if u >= 1.0 - atom:
                assert p == 1.0
            else:
                assert price_cdf(dlt, scale, p) == pytest.approx(float(u), abs=1e-12)


def test_empirical_survival_matches_formula(rng):
    for dlt, scale in ((0.5, 2.0), (1.0, 0.5)):
        prices = sample_prices(dlt, scale, rng.random(40_000))
        for c in np.linspace(0.05, 1.0, 10):
            assert np.mean(prices >= c) == pytest.approx(
                survival(dlt, scale, float(c)), abs=0.01
            )


@settings(max_examples=200)
@given(
    st.floats(0.0, 1.0),
    st.floats(0.1, 5.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
)
def test_survival_monotonicity(dlt, scale, c1, c2):
    lo, hi = sorted((c1, c2))
    assert survival(dlt, scale, hi) <= survival(dlt, scale, lo) + 1e-12
    assert survival(dlt, scale * 1.5, c1) <= survival(dlt, scale, c1) + 1e-12
    assert survival(min(1.0, dlt * 1.5), scale, c1) >= survival(dlt, scale, c1) - 1e-12


# ---------------------------------------------------------------------------
# expected payment
# ---------------------------------------------------------------------------


def test_expected_payment_examples():
    assert expected_payment(1.0, 2.0, 0.0) == pytest.approx(0.75)
    assert expected_payment(1.0, 2.0, 0.81) == pytest.approx(0.55)
    assert expected_payment(0.0, 2.0, 0.4) == 0.0
    # reserve at or above c_max: all mass on the atom
    assert expected_payment(3.0, 2.0, 0.2) == 1.0
    # scale 0 posts c_max with survival one; worthless arrivals still cost 0
    assert expected_payment(0.5, 0.0, 0.3) == 1.0
    assert expected_payment(0.5, 0.0, 1.5, c_max=2.0) == 2.0
    assert expected_payment(0.0, 0.0, 0.3) == 0.0
    with pytest.raises(ValueError):
        expected_payment(0.5, 2.0, 1.5)


def test_expected_payment_monte_carlo(rng):
    n = 200_000
    for dlt, scale, cost in ((1.0, 2.0, 0.0), (0.5, 2.0, 0.3), (0.9, 1.5, 0.7)):
        prices = sample_prices(dlt, scale, rng.random(n))
        paid = prices * (prices >= cost)
        se = paid.std(ddof=1) / math.sqrt(n)
        assert abs(paid.mean() - expected_payment(dlt, scale, cost)) <= 3 * se


def test_expected_payment_continuous_at_atom_boundary():
    # delta / scale == sqrt(c_max): formula and atom-only value coincide
    assert expected_payment(2.0, 2.0, 0.5) == pytest.approx(1.0)
