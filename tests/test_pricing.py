import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from procure_learn.core import l2_ball, simplex
from procure_learn.environment import ProblemInstance
from procure_learn.mechanism import SCALE_CAP
from procure_learn.pricing import (
    expected_payment,
    price_cdf,
    priced_round,
    priced_rounds,
    reserve,
    sample_price,
    survival,
)

from oracles import hinge_row


# ---------------------------------------------------------------------------
# delta
# ---------------------------------------------------------------------------


def test_delta_examples():
    # delta, the value a quote is parameterized by, is the second output of
    # the instance's block kernel; a vertex task's delta is the same at
    # every hypothesis
    def delta(instance, w):
        if instance.outcomes is not None:
            return instance.grad_norms_at(np.asarray(w))[0]
        return hinge_row(instance, np.array(w), 0)[1]

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
    assert reserve(2.0, 2.0) == 1.0  # capped at the top price 1
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
    # buy-everything regime: all the mass sits at the top price 1
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
    assert sample_price(0.5, 0.0, 0.0) == 1.0
    assert sample_price(0.0, 0.0, 0.5) == 0.0


def _prices(delta, scale, u):
    """The prices ``priced_rounds`` posts, the array law a run executes,
    at ``delta`` and ``scale`` (each one value or one per uniform in ``u``);
    the price does not read the cost."""
    n = len(u)
    return priced_rounds(np.broadcast_to(delta, (n,)), np.zeros(n), u, scale)[0]


def test_sample_range_and_vector_agreement(rng):
    us = rng.random(500)
    for dlt, scale in ((0.2, 1.0), (0.8, 2.0), (1.0, 0.5)):
        vec = _prices(dlt, scale, us)
        low = reserve(dlt, scale)
        assert np.all(vec >= low - 1e-12) and np.all(vec <= 1.0 + 1e-12)
        for u, p in zip(us[:100], vec[:100]):
            assert sample_price(dlt, scale, float(u)) == p

    # delta and scale arrays, zeros included
    deltas = np.where(rng.random(500) < 0.2, 0.0, rng.random(500))
    scales = np.where(rng.random(500) < 0.2, 0.0, 5.0 * rng.random(500))
    vec = _prices(deltas, scales, us)
    for d, s, u, p in zip(deltas, scales, us, vec):
        assert sample_price(float(d), float(s), float(u)) == p
        assert not np.signbit(p)
    for s in (0.0, 0.7):
        vec = _prices(deltas, s, us)
        for d, u, p in zip(deltas, us, vec):
            assert sample_price(float(d), s, float(u)) == p


def test_tiny_scale_prices_at_one_without_warnings(rng):
    # at a subnormal-range scale the heavy-tail price (delta / scale)**2
    # overflows, but the atom at the top price 1 takes all the mass, so no
    # warning is due
    deltas = np.concatenate([[0.0], 0.05 + rng.random(99)])
    costs = rng.random(100)
    us = rng.random(100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prices, q, accepted = priced_rounds(deltas, costs, us, 1e-300)
    assert prices[0] == 0.0  # worthless
    assert np.all(prices[1:] == 1.0)
    assert np.all(q[1:] == 1.0) and np.all(accepted[1:]) and not accepted[0]


@pytest.mark.parametrize("top", [1.0, 0.25])
def test_scalar_round_matches_array_at_a_subnormal_scale(rng, top):
    # scale * sqrt(cost) underflows to 0 for costs below 1; the scalar law
    # used to divide by it and raise ZeroDivisionError
    deltas = np.concatenate([[0.0], 0.05 + rng.random(49)])
    costs = top * rng.random(50)
    us = rng.random(50)
    price, q, accepted = priced_rounds(deltas, costs, us, 5e-324)
    for t in range(50):
        scalar = priced_round(float(deltas[t]), float(costs[t]), float(us[t]), 5e-324)
        assert scalar == (price[t], q[t], accepted[t])
    assert np.all(price[1:] == 1.0) and np.all(q[1:] == 1.0)


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
        prices = _prices(dlt, scale, rng.random(40_000))
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


# A feature run lists the rounds it could buy at the scale of the moment and
# visits only those; a purchase can only raise the scale of a later round.
# The list stays complete because a round accepted at a scale is accepted at
# every lower one, rounding included.

SCALES = st.one_of(
    st.just(0.0),
    st.just(SCALE_CAP),
    st.floats(0.0, SCALE_CAP),
    st.floats(0.0, 10.0),
    st.floats(10.0, 1000.0),
    st.floats(0.0, 1e-300),  # where the scaled products underflow
)
ROUND_LAWS = dict(
    dlt=st.floats(0.0, 4.0),
    cost=st.floats(0.0, 1.0),
    u=st.floats(0.0, 1.0, exclude_max=True),
)


def _accepts(dlt, cost, u, scale):
    return priced_round(dlt, cost, u, scale)[2]


@settings(max_examples=500)
@given(**ROUND_LAWS, s1=SCALES, s2=SCALES, adjacent=st.booleans())
def test_acceptance_at_a_scale_holds_at_every_lower_scale(dlt, cost, u, s1, s2, adjacent):
    s1, s2 = sorted((s1, s2))
    if adjacent:  # the float just above s1
        s2 = float(np.nextafter(s1, math.inf))
    if _accepts(dlt, cost, u, s2):
        assert _accepts(dlt, cost, u, s1)


@settings(max_examples=300)
@given(**ROUND_LAWS, scales=st.lists(SCALES, max_size=12))
def test_acceptance_flips_once_over_the_scales(dlt, cost, u, scales):
    # bisect the float bit patterns of [0, SCALE_CAP], which order as the
    # floats do, for the last accepting scale; the scales around it, and
    # any other, must accept up to it and refuse past it
    bits = np.array([0.0, SCALE_CAP]).view(np.int64).tolist()

    def accepts(i):
        return _accepts(dlt, cost, u, float(np.int64(i).view(np.float64)))

    lo, hi = bits
    if not accepts(lo):  # never bought, at any scale
        last = lo - 1
    elif accepts(hi):
        last = hi
    else:
        while hi - lo > 1:  # accepts(lo), not accepts(hi)
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if accepts(mid) else (lo, mid)
        last = lo
    nearby = range(max(bits[0], last - 8), min(bits[1], last + 9))
    for i in [*nearby, *np.array(scales, dtype=np.float64).view(np.int64).tolist()]:
        assert accepts(i) == (i <= last)


def test_acceptance_falls_with_the_scale_on_a_grid(rng):
    # the same property over many rounds at once, with priced_rounds (which
    # matches priced_round bit for bit): along a grid of scales, each with
    # its neighbouring floats, a round's acceptance never comes back
    grid = np.concatenate([[0.0, 5e-324], np.geomspace(1e-3, SCALE_CAP, 300)])
    grid = np.unique(np.concatenate([grid, np.nextafter(grid, np.inf), np.nextafter(grid, 0.0)]))
    grid = grid[grid <= SCALE_CAP]
    n = 2000
    dlt = np.concatenate([[0.0, 5e-324], 4.0 * rng.random(n - 2)])
    cost = np.where(rng.random(n) < 0.1, rng.choice([0.0, 1.0], size=n), rng.random(n))
    u = rng.random(n)
    columns = np.broadcast_arrays(dlt[:, None], cost[:, None], u[:, None], grid[None])
    accepted = priced_rounds(*(a.ravel() for a in columns))[2].reshape(n, grid.size)
    assert np.all(accepted[:, 1:] <= accepted[:, :-1])


# ---------------------------------------------------------------------------
# expected payment
# ---------------------------------------------------------------------------


def test_expected_payment_examples():
    assert expected_payment(1.0, 2.0, 0.0) == pytest.approx(0.75)
    assert expected_payment(1.0, 2.0, 0.81) == pytest.approx(0.55)
    assert expected_payment(0.0, 2.0, 0.4) == 0.0
    # reserve at or above the top price 1: all mass on the atom
    assert expected_payment(3.0, 2.0, 0.2) == 1.0
    # scale 0 posts 1 with survival one; worthless arrivals still cost 0
    assert expected_payment(0.5, 0.0, 0.3) == 1.0
    assert expected_payment(0.0, 0.0, 0.3) == 0.0
    with pytest.raises(ValueError):
        expected_payment(0.5, 2.0, 1.5)


def test_expected_payment_monte_carlo(rng):
    n = 200_000
    for dlt, scale, cost in ((1.0, 2.0, 0.0), (0.5, 2.0, 0.3), (0.9, 1.5, 0.7)):
        prices = _prices(dlt, scale, rng.random(n))
        paid = prices * (prices >= cost)
        se = paid.std(ddof=1) / math.sqrt(n)
        assert abs(paid.mean() - expected_payment(dlt, scale, cost)) <= 3 * se


def test_expected_payment_continuous_at_atom_boundary():
    # delta / scale == 1: formula and atom-only value coincide
    assert expected_payment(2.0, 2.0, 0.5) == pytest.approx(1.0)
