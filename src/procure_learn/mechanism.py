"""Budgeted data-purchasing mechanisms around an importance-weighted learner.

Each round the mechanism posts the learner's hypothesis, draws a price from
the randomized law scaled by the current ``price_scale``, and — if the agent
accepts (price >= cost) — pays per the payment mode, reveals the cost, and
feeds the gradient weighted by one over the acceptance probability at that
cost. Rejected rounds feed the zero function. Losses accrue every round
regardless of purchase.

The budget is an expectation constraint by default: the scale is chosen so
expected spend stays within it, and realized spend is reported. ``hard_stop``
additionally forces the posted price to zero once spend reaches the budget
(free arrivals are still collected) while hypotheses and losses keep flowing.

``naive`` offers the maximum price to every arrival until the budget cannot
cover another purchase, then posts price zero; ``baseline`` acquires every
arrival and pays nothing (the unconstrained reference).

``Mechanism.run`` is event-driven. The learner keeps its state in the
gradient sum and a rejected round feeds nothing, so the posted hypothesis,
the spend and the estimate change only when an arrival is bought. Where
purchases are sparse, the run jumps from purchase to purchase: a window of
upcoming rounds is computed as arrays over the instance's columns at one
hypothesis (loss, delta and gradient coefficient from the loss family's
row-range kernel, the scale, the price from the uniforms drawn up front, q
and acceptance), and only the first accepted round reaches the learner.
Where they are dense, as for ``baseline``, for ``naive`` while its budget
lasts, and for ``priced`` where much of the data is free, numpy's fixed
cost per call outweighs the rounds a window saves, so rounds go one by one
through the family's one-row kernel. The run picks between the two from
the purchase rate it measures, and both give the same transcript and
totals bit for bit.

Either way each round's margin is computed once, straight from the
instance's columns: the kernel returns the loss, delta and the gradient
coefficient (slope times label; -1 or 0 on the simplex), and a purchase
builds its gradient from that coefficient with the family's
``row_gradient``. A purchase whose coefficient is exactly zero (an
inactive hinge, a null outcome) updates spend, counters and estimate but
skips the feed. That is exact: the gradient sum starts at +0.0 and can
never hold -0.0, so adding a zero gradient changes none of its bits, nor
the bound sum (delta is 0 too) or the hypothesis recomputed from them. (A
fresh learner on the ball posts +0.0 where a recompute would give -0.0,
but there every margin is 0, the hinge is active and nothing is skipped.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .core import Hypothesis, InvalidConfigError, project_coords
from .environment import ProblemInstance
from .ftrl import FtrlLearner
from .pricing import priced_round, priced_rounds

POSTED_PRICE = "posted-price"
AT_COST = "at-cost"
PAYMENT_MODES = (POSTED_PRICE, AT_COST)

PRICED = "priced"
NAIVE = "naive"
BASELINE = "baseline"
POLICIES = (PRICED, NAIVE, BASELINE)

SCALE_CAP = 1e6

# Rounds between purchases are evaluated as arrays when purchases are
# expected at least VECTOR_GAP rounds apart, where numpy's fixed cost per
# call is repaid; denser purchases go round by round. The expected gap comes
# from a running mean over about RATE_MEMORY rounds, long enough that its
# noise rarely sends a dense stretch to the array path. Windows are capped
# so that a (window x dim) block stays a few hundred kilobytes.
VECTOR_GAP = 12
RATE_MEMORY = 48
WINDOW_ELEMENTS = 1 << 15


class MechanismStateError(RuntimeError):
    """Run-protocol misuse: finalizing early or re-running a finished run."""


# ---------------------------------------------------------------------------
# Scale and learning-rate selection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PriorKnowledge:
    """Rough sequence statistics known in advance, each in [0, 1].

    Any one suffices; better knowledge buys a tighter price scale. Priority
    when several are present: (avg_value_cost & avg_value) > avg_value_cost >
    avg_sqrt_cost > avg_cost.
    """

    avg_value_cost: Optional[float] = None
    avg_value: Optional[float] = None
    avg_sqrt_cost: Optional[float] = None
    avg_cost: Optional[float] = None

    def __post_init__(self):
        for name in ("avg_value_cost", "avg_value", "avg_sqrt_cost", "avg_cost"):
            v = getattr(self, name)
            if v is not None and not 0.0 <= v <= 1.0:
                raise InvalidConfigError(f"{name} must lie in [0, 1], got {v}")


def choose_price_scale(
    knowledge: PriorKnowledge,
    horizon: int,
    budget: float,
    payment_mode: str = POSTED_PRICE,
    c_max: float = 1.0,
) -> float:
    """Smallest price scale whose expected spend provably fits the budget.

    At-cost: horizon * stat / budget with stat the best cost-value bound
    available (avg_value_cost, else avg_sqrt_cost, else sqrt(avg_cost)).
    Posted-price: (horizon / budget) * (2 * avg_value * sqrt(c_max) -
    avg_value_cost), degrading by substituting sqrt(c_max) bounds for unknown
    statistics. A scale of 0 would buy every arrival at ``c_max``, which no
    budget promise covers, so knowledge that gives a scale <= 0 is refused.
    """
    if not budget > 0:
        raise InvalidConfigError("budget must be positive")
    if payment_mode not in PAYMENT_MODES:
        raise InvalidConfigError(f"unknown payment mode {payment_mode!r}")
    ratio = horizon / budget
    k = knowledge
    if payment_mode == AT_COST:
        if k.avg_value_cost is not None:
            used, scale = "avg_value_cost", ratio * k.avg_value_cost
        elif k.avg_sqrt_cost is not None:
            used, scale = "avg_sqrt_cost", ratio * k.avg_sqrt_cost
        elif k.avg_cost is not None:
            used, scale = "avg_cost", ratio * math.sqrt(k.avg_cost)
        else:
            raise InvalidConfigError("no usable prior statistic supplied")
    else:
        root = math.sqrt(c_max)
        if k.avg_value_cost is not None and k.avg_value is not None:
            used = "avg_value and avg_value_cost"
            scale = ratio * (2.0 * k.avg_value * root - k.avg_value_cost)
        elif k.avg_value_cost is not None:
            used, scale = "avg_value_cost", ratio * (2.0 * root - k.avg_value_cost)
        elif k.avg_sqrt_cost is not None or k.avg_cost is not None:
            used = "avg_sqrt_cost" if k.avg_sqrt_cost is not None else "avg_cost"
            scale = ratio * 2.0 * root
        else:
            raise InvalidConfigError("no usable prior statistic supplied")
    if not scale > 0.0:
        raise InvalidConfigError(
            f"prior knowledge {used} gives price scale {scale}; from-knowledge "
            "scales must be positive (a zero scale buys every arrival at c_max)"
        )
    return scale


def theory_learning_rate(
    reg_bound: float,
    horizon: int,
    budget: float,
    price_scale: float,
    scale: float = 1.0,
) -> float:
    """Rate balancing the regret bound: sqrt(reg_bound) over the larger of
    sqrt(horizon) and price_scale * sqrt(budget)."""
    return scale * math.sqrt(reg_bound) / max(math.sqrt(horizon), price_scale * math.sqrt(budget))


@dataclass(frozen=True)
class FixedScale:
    value: float

    def __post_init__(self):
        if not 0.0 <= self.value < math.inf:  # NaN fails both
            raise InvalidConfigError(f"price scale must be finite and nonnegative, got {self.value}")
        # -0.0 + 0.0 is +0.0: the window path divides by the scale
        object.__setattr__(self, "value", self.value + 0.0)


@dataclass(frozen=True)
class KnowledgeScale:
    knowledge: PriorKnowledge


@dataclass(frozen=True)
class AdaptiveScale:
    """Track the burn rate: scale_t = estimate_t * rounds_left / budget_left.

    Starts at zero (buy every arrival with delta > 0 at the maximum price;
    worthless ones are never bought) and re-estimates the
    value-cost statistic from purchases, importance-weighted by 1/q. The
    budget-left denominator is floored and the scale capped at ``SCALE_CAP``
    so spending shuts off rather than dividing by zero near exhaustion.
    """


ScalePolicy = Union[FixedScale, KnowledgeScale, AdaptiveScale]


@dataclass(frozen=True)
class FixedRate:
    value: float

    def __post_init__(self):
        if not self.value > 0:
            raise InvalidConfigError("learning rate must be positive")


@dataclass(frozen=True)
class TheoryRate:
    scale: float = 1.0


RatePolicy = Union[FixedRate, TheoryRate]


@dataclass(frozen=True)
class MechanismConfig:
    budget: float
    payment_mode: str = POSTED_PRICE
    purchase_policy: str = PRICED
    price_scale: ScalePolicy = AdaptiveScale()
    learning_rate: RatePolicy = TheoryRate()
    hard_stop: bool = False
    c_max: float = 1.0

    def __post_init__(self):
        if not self.budget > 0:
            raise InvalidConfigError("budget must be positive")
        if self.payment_mode not in PAYMENT_MODES:
            raise InvalidConfigError(f"unknown payment mode {self.payment_mode!r}")
        if self.purchase_policy not in POLICIES:
            raise InvalidConfigError(f"unknown purchase policy {self.purchase_policy!r}")
        if not self.c_max > 0:
            raise InvalidConfigError("maximum price must be positive")


# ---------------------------------------------------------------------------
# Transcript
# ---------------------------------------------------------------------------


class Transcript:
    """Column-oriented per-round audit log. ``accepted`` holds exactly when
    the posted price met the cost and the acceptance probability q was
    positive (worthless arrivals post the degenerate price 0 and are never
    bought); ``payment`` is the price (posted-price), the cost (at-cost), or
    0 (rejected or baseline)."""

    COLUMNS = ("t", "delta", "cost", "price", "accepted", "q", "payment", "loss", "cum_spend")

    def __init__(self):
        self.delta: list[float] = []
        self.cost: list[float] = []
        self.price: list[float] = []
        self.accepted: list[bool] = []
        self.q: list[float] = []
        self.payment: list[float] = []
        self.loss: list[float] = []
        self.cum_spend: list[float] = []

    def append(self, delta, cost, price, accepted, q, payment, loss, cum_spend):
        self.delta.append(delta)
        self.cost.append(cost)
        self.price.append(price)
        self.accepted.append(accepted)
        self.q.append(q)
        self.payment.append(payment)
        self.loss.append(loss)
        self.cum_spend.append(cum_spend)

    def extend(self, delta, cost, price, q, loss, cum_spend):
        """Append rejected rounds given as arrays, at one cumulative spend."""
        n = len(loss)
        self.delta.extend(delta.tolist())
        self.cost.extend(cost.tolist())
        self.price.extend(price.tolist())
        self.accepted.extend([False] * n)
        self.q.extend(q.tolist())
        self.payment.extend([0.0] * n)
        self.loss.extend(loss.tolist())
        self.cum_spend.extend([cum_spend] * n)

    def __len__(self) -> int:
        return len(self.loss)


# ---------------------------------------------------------------------------
# Mechanism
# ---------------------------------------------------------------------------


class Mechanism:
    """One run's mutable state: learner, budget ledger, scale policy, audit."""

    def __init__(
        self,
        config: MechanismConfig,
        instance: ProblemInstance,
        *,
        record_transcript: bool = True,
    ):
        costs = instance.costs
        if not np.all((costs >= 0.0) & (costs <= config.c_max)):  # NaN fails both
            raise InvalidConfigError(
                f"instance costs must be finite and lie in [0, {config.c_max}]"
            )
        self.config = config
        self.instance = instance
        self.horizon = instance.horizon

        if config.purchase_policy != PRICED:
            # naive and baseline never evaluate the price law; a scale would
            # only leak the budget into their theory learning rate
            self.price_scale = 0.0
        elif isinstance(config.price_scale, FixedScale):
            self.price_scale = config.price_scale.value
        elif isinstance(config.price_scale, KnowledgeScale):
            self.price_scale = choose_price_scale(
                config.price_scale.knowledge,
                instance.horizon,
                config.budget,
                config.payment_mode,
                config.c_max,
            )
        else:
            self.price_scale = 0.0

        if isinstance(config.learning_rate, FixedRate):
            rate = config.learning_rate.value
        else:
            rate = theory_learning_rate(
                instance.space.reg_bound,
                instance.horizon,
                config.budget,
                self.price_scale,
                config.learning_rate.scale,
            )
        self.learner = FtrlLearner(instance.space, rate)

        self.spend = 0.0
        self.purchases = 0
        self.loss_total = 0.0
        self.value_cost_total = 0.0  # sum of delta * sqrt(cost)
        self.value_total = 0.0  # sum of delta
        self.estimate_total = 0.0  # importance-weighted purchase estimate
        self.rounds_done = 0
        self.hypothesis_sum = np.zeros(instance.space.dim)
        self.transcript = Transcript() if record_transcript else None
        self._last_purchase = -1  # round of the latest purchase
        self._finished = False

    # -- estimates -----------------------------------------------------------

    def value_cost_estimate(self) -> float:
        """Running importance-weighted estimate of mean delta * sqrt(cost),
        clipped to [0, 1]; zero before the first round."""
        if self.rounds_done == 0:
            return 0.0
        return min(1.0, max(0.0, self.estimate_total / self.rounds_done))

    def adapted_scale(self) -> float:
        """Burn-rate scale for the next round under the adaptive policy."""
        remaining_rounds = self.horizon - self.rounds_done
        floor = 1e-6 * self.config.budget
        remaining_budget = max(self.config.budget - self.spend, floor)
        return min(SCALE_CAP, self.value_cost_estimate() * remaining_rounds / remaining_budget)

    def adapted_scales(self, start: int, stop: int) -> np.ndarray:
        """``adapted_scale`` for each round ``start <= t < stop`` at the
        current spend and estimate, with the same arithmetic."""
        rounds_done = np.arange(start, stop)
        estimate = self.estimate_total / np.maximum(rounds_done, 1)
        estimate = np.minimum(1.0, np.maximum(0.0, estimate))
        if start == 0:
            estimate[0] = 0.0  # value_cost_estimate before any round
        floor = 1e-6 * self.config.budget
        remaining_budget = max(self.config.budget - self.spend, floor)
        return np.minimum(SCALE_CAP, estimate * (self.horizon - rounds_done) / remaining_budget)

    # -- execution ------------------------------------------------------------

    def run(self, rng: np.random.Generator) -> "Mechanism":
        """Execute all rounds, consuming one uniform draw per round.

        The purchase rate is tracked as a running mean of the acceptance
        probability q, with a memory of about RATE_MEMORY rounds. While it
        puts purchases less than VECTOR_GAP rounds apart, rounds go one by
        one, VECTOR_GAP at a time. Otherwise the next window is evaluated as
        arrays; it spans twice the expected gap or the current dry spell,
        whichever is longer, so it doubles while nothing is bought, and it
        ends at the first purchase.
        """
        if self._finished:
            raise MechanismStateError("mechanism already ran its full sequence")
        horizon = self.horizon
        uniforms = rng.random(horizon)
        costs = self.instance.costs.tolist()
        max_window = max(2 * VECTOR_GAP, WINDOW_ELEMENTS // self.instance.space.dim)
        keep = 1.0 - 1.0 / RATE_MEMORY
        rate, t = 1.0 / VECTOR_GAP, 0  # the first window measures the rate
        while t < horizon:
            if rate * VECTOR_GAP > 1.0:
                stop = min(horizon, t + VECTOR_GAP)
                after, q_sum = self._rounds_one_by_one(t, stop, uniforms, costs)
            else:
                dry_spell = t - 1 - self._last_purchase
                window = 2.0 * max(dry_spell, 1.0 / rate) if rate > 0.0 else max_window
                stop = min(horizon, t + int(min(max_window, window)))
                after, q_sum = self._rounds_at_once(t, stop, uniforms)
            decay = keep ** (after - t)
            rate = decay * rate + (1.0 - decay) * q_sum / (after - t)
            t = after
        self.rounds_done = horizon
        self._finished = True
        return self

    def _rounds_one_by_one(self, start, stop, uniforms, costs) -> tuple[int, float]:
        """Play rounds ``start <= t < stop`` through the one-row kernels;
        return ``stop`` and the sum of the acceptance probabilities q."""
        cfg = self.config
        instance = self.instance
        loss_delta_row = instance.family.loss_delta_row
        transcript = self.transcript
        adaptive = isinstance(cfg.price_scale, AdaptiveScale)
        # the hypothesis, the spend and so the policy's choice change only
        # on a purchase
        w = self.learner.coords
        policy = self._posting_policy()
        flat_price = self._flat_price()
        q_sum = 0.0
        for t in range(start, stop):
            cost = costs[t]
            loss, dlt, coefficient = loss_delta_row(w, instance, t)
            if policy == BASELINE:
                price, q, accepted = cfg.c_max, 1.0, True
            elif policy == NAIVE:
                price = flat_price
                accepted = price >= cost
                q = 1.0 if accepted else 0.0
            else:
                if adaptive:
                    self.rounds_done = t
                    scale = self.adapted_scale()
                else:
                    scale = self.price_scale
                price, q, accepted = priced_round(dlt, cost, uniforms[t], scale, cfg.c_max)

            q_sum += q
            self.hypothesis_sum += w
            self.loss_total += loss
            self.value_cost_total += dlt * math.sqrt(cost)
            self.value_total += dlt
            if accepted:
                self._buy(t, coefficient, loss, dlt, cost, price, q)
                w = self.learner.coords
                policy = self._posting_policy()
                flat_price = self._flat_price()
            elif transcript is not None:
                transcript.append(dlt, cost, price, False, q, 0.0, loss, self.spend)
        return stop, q_sum

    def _rounds_at_once(self, start, stop, uniforms) -> tuple[int, float]:
        """``_rounds_one_by_one`` computed as arrays at the posted hypothesis,
        bit for bit the same, up to the first purchase or ``stop``; return
        the next round and the sum of q over the rounds played."""
        cfg = self.config
        instance = self.instance
        dim = instance.space.dim
        w = self.learner.coords
        loss, dlt, coefficient = instance.family.loss_delta_rows(w, instance, start, stop)
        cost = instance.costs[start:stop]
        policy = self._posting_policy()
        if policy == BASELINE:
            n = stop - start
            price, q, accepted = np.full(n, cfg.c_max), np.ones(n), np.ones(n, dtype=bool)
        elif policy == NAIVE:
            price = np.full(stop - start, self._flat_price())
            accepted = price >= cost
            q = accepted.astype(np.float64)
        else:
            if isinstance(cfg.price_scale, AdaptiveScale):
                scale = self.adapted_scales(start, stop)
            else:
                scale = self.price_scale
            price, q, accepted = priced_rounds(dlt, cost, uniforms[start:stop], scale, cfg.c_max)
        j = int(accepted.argmax())
        bought = bool(accepted[j])
        n = j + 1 if bought else stop - start

        # cumsum along axis 0 adds the rows in order, so these sums are bit
        # for bit those of one round at a time
        block = np.empty((n + 1, dim + 3))
        block[0, :dim] = self.hypothesis_sum
        block[0, dim:] = (self.loss_total, self.value_cost_total, self.value_total)
        block[1:, :dim] = w
        block[1:, dim] = loss[:n]
        block[1:, dim + 1] = dlt[:n] * np.sqrt(cost[:n])
        block[1:, dim + 2] = dlt[:n]
        totals = block.cumsum(axis=0)[-1]
        self.hypothesis_sum = totals[:dim].copy()
        self.loss_total, self.value_cost_total, self.value_total = totals[dim:].tolist()

        unbought = n - 1 if bought else n
        if self.transcript is not None:
            self.transcript.extend(
                dlt[:unbought], cost[:unbought], price[:unbought], q[:unbought],
                loss[:unbought], self.spend,
            )
        if bought:
            t = start + j
            self._buy(
                t, float(coefficient[j]), float(loss[j]), float(dlt[j]),
                float(cost[j]), float(price[j]), float(q[j]),
            )
        return start + n, float(q[:n].sum())

    def _posting_policy(self) -> str:
        """The policy that posts prices until the next purchase: a priced run
        past its hard stop posts a flat price, as naive does."""
        cfg = self.config
        if cfg.purchase_policy == PRICED and cfg.hard_stop and self.spend >= cfg.budget:
            return NAIVE
        return cfg.purchase_policy

    def _flat_price(self) -> float:
        """Naive posts c_max while the budget covers it, then 0; a hard stop
        posts 0."""
        cfg = self.config
        if cfg.purchase_policy == NAIVE and self.spend + cfg.c_max <= cfg.budget:
            return cfg.c_max
        return 0.0

    def _buy(self, t, coefficient, loss, dlt, cost, price, q) -> None:
        """Pay for, feed and record the accepted round ``t``, whose gradient
        coefficient at the posted hypothesis is ``coefficient``."""
        cfg = self.config
        self._last_purchase = t
        if cfg.purchase_policy == BASELINE:
            payment = 0.0
        else:
            payment = cost if cfg.payment_mode == AT_COST else price
        if coefficient != 0.0:  # a zero gradient would leave the learner as it is
            gradient = self.instance.family.row_gradient(self.instance, t, coefficient)
            self.learner.iw_feed(q, True, gradient, dlt)
        self.spend += payment
        self.purchases += 1
        self.estimate_total += dlt * math.sqrt(cost) / q
        if self.transcript is not None:
            self.transcript.append(dlt, cost, price, True, q, payment, loss, self.spend)

    def finalize(self) -> Hypothesis:
        """Mean of the posted hypotheses, the run's single prediction."""
        if not self._finished:
            raise MechanismStateError("run is incomplete; cannot finalize")
        return Hypothesis(
            self.instance.space,
            project_coords(self.instance.space, self.hypothesis_sum / self.horizon),
        )

    @property
    def realized_avg_value_cost(self) -> float:
        return self.value_cost_total / max(1, self.rounds_done)

    @property
    def realized_avg_value(self) -> float:
        return self.value_total / max(1, self.rounds_done)
