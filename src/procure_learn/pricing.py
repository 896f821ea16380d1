"""The randomized posted-price law.

A quote is parameterized by ``delta`` (dual norm of the loss gradient at the
posted hypothesis — simultaneously the difficulty and the worth of the
arrival; the mechanism takes it from the loss family) and a normalization
``price_scale``. The survival function
Pr[price >= c] = min(1, delta / (price_scale * sqrt(c))) is realized by a
distribution with reserve delta^2 / price_scale^2, density
delta / (2 * price_scale * p^(3/2)) in between, and a point mass at ``c_max``.

Two degenerate cases are decided here, in this order, and nowhere else.
First, worthless arrivals (``delta == 0``) get the degenerate price 0 and
are never bought, at every scale, 0 included. Second, ``price_scale == 0``
is the buy-everything regime for the rest: the atom takes all the mass, so
the price is ``c_max`` and survival is one. Deciding the scale first would
pay ``c_max`` for worthless data, which the expected-payment bound (a
multiple of delta) does not cover.

A round's decision, ``priced_round``, is the sampled price and the survival
at the revealed cost; ``priced_rounds`` decides many rounds as arrays with
the same arithmetic, so each element equals the scalar decision bit for
bit. On one round the array form costs several times the scalar one. A
round accepted at a scale is accepted at every lower scale, rounding
included, since each correctly rounded step is monotone in the scale (tests
pin this). A feature run relies on it: it lists with ``priced_rounds`` the
rounds it could buy at the current scale, which a purchase only raises,
and decides each listed round with ``priced_round``.
Randomness is injected as an explicit uniform draw; nothing here holds state.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np


def survival(delta: float, price_scale: float, cost: float, c_max: float = 1.0) -> float:
    """Probability the posted price meets cost ``cost``; 0 for a worthless
    arrival at every scale, as the mechanism decides it."""
    if delta <= 0.0:
        return 0.0
    if cost <= 0.0:
        return 1.0
    scaled = price_scale * math.sqrt(cost)  # 0 at scale 0, and where a tiny scale underflows
    return 1.0 if scaled == 0.0 else min(1.0, delta / scaled)


def reserve(delta: float, price_scale: float, c_max: float = 1.0) -> float:
    """Lowest support point of the price law, capped at ``c_max``; 0 if worthless."""
    if delta <= 0.0:
        return 0.0
    if price_scale == 0.0:
        raise ValueError("reserve undefined in the buy-everything regime")
    r = delta / price_scale
    return min(r * r, c_max)


def price_cdf(delta: float, price_scale: float, price: float, c_max: float = 1.0) -> float:
    """Pr[posted price <= price]. A worthless arrival's price is 0 at every
    scale, 0 included."""
    if delta <= 0.0:
        return 1.0 if price >= 0.0 else 0.0
    if price_scale == 0.0:
        # fixed posted price c_max
        return 1.0 if price >= c_max else 0.0
    if price >= c_max:
        return 1.0
    low = reserve(delta, price_scale, c_max)
    if price < low:
        return 0.0
    return 1.0 - delta / (price_scale * math.sqrt(price))


def sample_price(delta: float, price_scale: float, u: float, c_max: float = 1.0) -> float:
    """Inverse-CDF draw from the price law given a uniform ``u`` in [0, 1).

    The top min(1, delta / (price_scale * sqrt(c_max))) quantile mass, all
    of it at scale 0, maps to the point mass at c_max; below it the draw is
    the continuous inverse CDF.
    """
    if delta <= 0.0:
        return 0.0
    scaled = price_scale * math.sqrt(c_max)  # 0 at scale 0, and where a tiny scale underflows
    if scaled == 0.0 or u >= 1.0 - min(1.0, delta / scaled):  # u falls in the atom
        return c_max
    p = delta / (price_scale * (1.0 - u))
    return p * p


def _prices(delta, price_scale, u, c_max, worthless) -> np.ndarray:
    """``sample_price`` elementwise, bit for bit, where division by zero and
    the overflow of a heavy-tail price at a tiny scale (where the atom wins)
    are silenced; ``worthless`` is ``delta <= 0``. Shared so that
    ``priced_rounds`` enters ``np.errstate`` and compares delta once: on
    a few rounds those fixed costs are a visible share of the call."""
    # at scale 0 the atom is inf and so takes all the mass
    atom = np.minimum(1.0, delta / (price_scale * math.sqrt(c_max)))
    p = delta / (price_scale * (1.0 - u))
    price = np.where(u >= 1.0 - atom, c_max, p * p)
    price[worthless] = 0.0  # p is 0 / 0 at scale 0
    return price


def sample_prices(
    delta: Union[float, np.ndarray],
    price_scale: Union[float, np.ndarray],
    u: np.ndarray,
    c_max: float = 1.0,
) -> np.ndarray:
    """``sample_price`` elementwise, bit for bit; ``delta``, ``price_scale``
    and ``u`` broadcast against each other."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return _prices(delta, price_scale, u, c_max, delta <= 0.0)


def priced_round(
    delta: float, cost: float, u: float, price_scale: float, c_max: float = 1.0
) -> tuple[float, float, bool]:
    """One posted-price decision: (price, acceptance probability at the
    revealed cost, accepted). Ties accept; a round with q = 0 never does."""
    price = sample_price(delta, price_scale, u, c_max)
    q = survival(delta, price_scale, cost, c_max)
    return price, q, q > 0.0 and price >= cost


def priced_rounds(
    delta: np.ndarray,
    cost: np.ndarray,
    u: np.ndarray,
    price_scale: Union[float, np.ndarray],
    c_max: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``priced_round`` over arrays of rounds, each element bit for bit the
    scalar decision. ``price_scale`` is one scale for every round or one per
    round."""
    worthless = delta <= 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # such rows are set below
        price = _prices(delta, price_scale, u, c_max, worthless)
        q = np.minimum(1.0, delta / (price_scale * np.sqrt(cost)))
    q[cost <= 0.0] = 1.0
    q[worthless] = 0.0
    return price, q, (q > 0.0) & (price >= cost)


def expected_payment(
    delta: float, price_scale: float, cost: float, c_max: float = 1.0
) -> float:
    """Expected amount paid on an arrival with the given cost.

    Equals (delta / price_scale) * (2 sqrt(c_max) - sqrt(max(cost, reserve)));
    when the reserve reaches c_max, scale 0 included, the whole law collapses
    onto the point mass and the exact value is c_max. A worthless arrival
    costs nothing.
    """
    if not 0.0 <= cost <= c_max:
        raise ValueError("cost must lie in [0, c_max]")
    if delta <= 0.0:
        return 0.0
    if price_scale == 0.0:
        return c_max
    low = delta / price_scale
    low *= low
    if low >= c_max:
        return c_max
    effective = max(cost, low)
    return (delta / price_scale) * (2.0 * math.sqrt(c_max) - math.sqrt(effective))
