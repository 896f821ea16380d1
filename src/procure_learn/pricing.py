"""The randomized posted-price law.

A quote is parameterized by ``delta`` (dual norm of the loss gradient at the
posted hypothesis — simultaneously the difficulty and the worth of the
arrival; the loss family's row kernels compute it) and a normalization
``price_scale``. The survival function
Pr[price >= c] = min(1, delta / (price_scale * sqrt(c))) is realized by a
distribution with reserve delta^2 / price_scale^2, density
delta / (2 * price_scale * p^(3/2)) in between, and a point mass at ``c_max``.

The mechanism decides the two degenerate cases in this order. First,
worthless arrivals (``delta == 0``) get the degenerate price 0 and are never
bought, at every scale, 0 included. Second, ``price_scale == 0`` is the
buy-everything regime for the rest: survival is one and the mechanism posts
the fixed price ``c_max`` instead of sampling. Deciding the scale first
would pay ``c_max`` for worthless data, which the expected-payment bound
(a multiple of delta) does not cover.
Randomness is injected as an explicit uniform draw; nothing here holds state.
"""

from __future__ import annotations

import math

import numpy as np


def survival(delta: float, price_scale: float, cost: float, c_max: float = 1.0) -> float:
    """Probability the posted price meets cost ``cost``."""
    if price_scale == 0.0:
        return 1.0
    if cost <= 0.0:
        return 1.0 if delta > 0.0 else 0.0
    return min(1.0, delta / (price_scale * math.sqrt(cost)))


def reserve(delta: float, price_scale: float, c_max: float = 1.0) -> float:
    """Lowest support point of the price law, capped at ``c_max``."""
    if price_scale == 0.0:
        raise ValueError("reserve undefined in the buy-everything regime")
    r = delta / price_scale
    return min(r * r, c_max)


def price_cdf(delta: float, price_scale: float, price: float, c_max: float = 1.0) -> float:
    """Pr[posted price <= price]."""
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

    The top min(1, delta / (price_scale * sqrt(c_max))) quantile mass maps to
    the point mass at c_max; below it the draw is the continuous inverse CDF.
    """
    if delta <= 0.0:
        return 0.0
    if price_scale == 0.0:
        raise ValueError("sampling undefined in the buy-everything regime")
    atom = min(1.0, delta / (price_scale * math.sqrt(c_max)))
    if u >= 1.0 - atom:
        return c_max
    p = delta / (price_scale * (1.0 - u))
    return p * p


def sample_prices(
    delta: float, price_scale: float, u: np.ndarray, c_max: float = 1.0
) -> np.ndarray:
    """Vectorized ``sample_price`` over an array of uniforms."""
    u = np.asarray(u, dtype=np.float64)
    if delta <= 0.0:
        return np.zeros_like(u)
    if price_scale == 0.0:
        raise ValueError("sampling undefined in the buy-everything regime")
    atom = min(1.0, delta / (price_scale * math.sqrt(c_max)))
    continuous = delta / (price_scale * (1.0 - u))
    return np.where(u >= 1.0 - atom, c_max, continuous * continuous)


def expected_payment(
    delta: float, price_scale: float, cost: float, c_max: float = 1.0
) -> float:
    """Expected amount paid on an arrival with the given cost.

    Equals (delta / price_scale) * (2 sqrt(c_max) - sqrt(max(cost, reserve)));
    when the reserve reaches c_max the whole law collapses onto the point mass
    and the exact value is c_max.
    """
    if not 0.0 <= cost <= c_max:
        raise ValueError("cost must lie in [0, c_max]")
    if delta <= 0.0:
        return 0.0
    if price_scale == 0.0:
        raise ValueError("expected payment undefined in the buy-everything regime")
    low = delta / price_scale
    low *= low
    if low >= c_max:
        return c_max
    effective = max(cost, low)
    return (delta / price_scale) * (2.0 * math.sqrt(c_max) - math.sqrt(effective))
