"""The randomized posted-price law.

Money is measured in units of the largest cost: every cost and every price
lies in [0, 1]. (To simulate costs in [0, C], divide every cost and the
budget by C.) A quote is parameterized by ``delta`` (dual norm of the loss
gradient at the posted hypothesis — simultaneously the difficulty and the
worth of the arrival; the mechanism takes it from the instance) and a
normalization ``price_scale``. The survival function
Pr[price >= c] = min(1, delta / (price_scale * sqrt(c))) is realized by a
distribution with reserve delta^2 / price_scale^2, density
delta / (2 * price_scale * p^(3/2)) in between, and a point mass at 1.

Two degenerate cases are decided here, in this order, and nowhere else.
First, worthless arrivals (``delta == 0``) get the degenerate price 0 and
are never bought, at every scale, 0 included. Second, ``price_scale == 0``
is the buy-everything regime for the rest: the atom takes all the mass, so
the price is 1 and survival is one. Deciding the scale first would pay 1
for worthless data, which the expected-payment bound (a multiple of delta)
does not cover.

A round's decision, ``priced_round``, is the sampled price and the survival
at the revealed cost; ``priced_rounds`` decides many rounds as arrays with
the same arithmetic, so each element equals the scalar decision bit for
bit. On one round the array form costs several times the scalar one. A
round accepted at a scale is accepted at every lower scale, rounding
included, since each correctly rounded step is monotone in the scale (tests
pin this). Every run that walks its rounds relies on it: it lists with
``priced_rounds`` the rounds it could buy at the current scale, which a
purchase only raises, and decides each listed round again with
``priced_round``.
Randomness is injected as an explicit uniform draw; nothing here holds state.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np


def survival(delta: float, price_scale: float, cost: float) -> float:
    """Probability the posted price meets cost ``cost``; 0 for a worthless
    arrival at every scale, as the mechanism decides it."""
    if delta <= 0.0:
        return 0.0
    if cost <= 0.0:
        return 1.0
    scaled = price_scale * math.sqrt(cost)  # 0 at scale 0, and where a tiny scale underflows
    return 1.0 if scaled == 0.0 else min(1.0, delta / scaled)


def reserve(delta: float, price_scale: float) -> float:
    """Lowest support point of the price law, capped at 1; 0 if worthless."""
    if delta <= 0.0:
        return 0.0
    if price_scale == 0.0:
        raise ValueError("reserve undefined in the buy-everything regime")
    r = delta / price_scale
    return min(r * r, 1.0)


def price_cdf(delta: float, price_scale: float, price: float) -> float:
    """Pr[posted price <= price]. A worthless arrival's price is 0 at every
    scale, 0 included."""
    if delta <= 0.0:
        return 1.0 if price >= 0.0 else 0.0
    if price >= 1.0 or price_scale == 0.0:  # at scale 0 the price is 1
        return 1.0 if price >= 1.0 else 0.0
    if price < reserve(delta, price_scale):
        return 0.0
    return 1.0 - delta / (price_scale * math.sqrt(price))


def sample_price(delta: float, price_scale: float, u: float) -> float:
    """Inverse-CDF draw from the price law given a uniform ``u`` in [0, 1).

    The top min(1, delta / price_scale) quantile mass, all of it at scale 0,
    maps to the point mass at 1; below it the draw is the continuous
    inverse CDF.
    """
    if delta <= 0.0:
        return 0.0
    if price_scale == 0.0 or u >= 1.0 - min(1.0, delta / price_scale):  # u falls in the atom
        return 1.0
    p = delta / (price_scale * (1.0 - u))
    return p * p


def priced_round(delta: float, cost: float, u: float, price_scale: float) -> tuple[float, float, bool]:
    """One posted-price decision: (price, acceptance probability at the
    revealed cost, accepted). Ties accept; a round with q = 0 never does."""
    price = sample_price(delta, price_scale, u)
    q = survival(delta, price_scale, cost)
    return price, q, q > 0.0 and price >= cost


def priced_rounds(
    delta: np.ndarray, cost: np.ndarray, u: np.ndarray, price_scale: Union[float, np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``priced_round`` over arrays of rounds, each element bit for bit the
    scalar decision. ``price_scale`` is one scale for every round or one per
    round. Division by zero and the overflow of a heavy-tail price at a
    tiny scale (where the atom wins) are silenced; the rows they touch are
    set below."""
    worthless = delta <= 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        atom = np.minimum(1.0, delta / price_scale)  # inf, so all the mass, at scale 0
        p = delta / (price_scale * (1.0 - u))
        price = np.where(u >= 1.0 - atom, 1.0, p * p)
        q = np.minimum(1.0, delta / (price_scale * np.sqrt(cost)))
    np.putmask(price, worthless, 0.0)  # p is 0 / 0 at scale 0
    np.putmask(q, cost <= 0.0, 1.0)
    np.putmask(q, worthless, 0.0)
    return price, q, (q > 0.0) & (price >= cost)


def expected_payment(delta: float, price_scale: float, cost: float) -> float:
    """Expected amount paid on an arrival with the given cost.

    Equals (delta / price_scale) * (2 - sqrt(max(cost, reserve))); when the
    reserve reaches 1, scale 0 included, the whole law collapses onto the
    point mass and the exact value is 1. A worthless arrival costs nothing.
    """
    if not 0.0 <= cost <= 1.0:
        raise ValueError("cost must lie in [0, 1]")
    if delta <= 0.0:
        return 0.0
    if price_scale == 0.0:
        return 1.0
    r = delta / price_scale
    if r * r >= 1.0:
        return 1.0
    return r * (2.0 - math.sqrt(max(cost, r * r)))
