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
the spend and the estimate change only when an arrival is bought.

A vertex run (``VertexLoss``: the coin and padded-coin streams) decides
first and then learns. Its loss 1 - w[outcome] has delta = 1 on every
outcome and 0 on filler points at every hypothesis, so a round's price, q
and acceptance depend only on the costs, the uniforms and the scale, never
on the learner. The decision pass therefore computes the whole purchase
schedule without touching the learner: one ``priced_rounds`` call over all
rounds for a fixed or knowledge scale, every round for ``baseline``, a
spend prefix sum with a stop for ``naive``, and one sequential pass over
the spend and the estimate for an adaptive scale or a hard stop. The
learner pass then replays the purchases in one block: the gradient sums by
a cumulative sum, the hypotheses by a row-wise softmax, each round's posted
row by a search over the purchase rounds, and the loss, value and
hypothesis totals by one cumulative sum over the rounds. This is exact: a
cumulative sum along the rows adds them in round order, as the rounds one
by one do, and the softmax is the learner's own kernel, which a single
feed applies to a batch of one. So the transcript and every total equal
those of the rounds played one at a time bit for bit.

A feature run (``HingeLoss``), whose delta depends on the hypothesis,
walks the rounds. Where purchases are sparse, it jumps from purchase to
purchase: a window of upcoming rounds is computed as arrays over the
instance's columns at one hypothesis (loss, delta and gradient coefficient
from the family's row-range kernel, the scale, the price from the uniforms
drawn up front, q and acceptance), and only the first accepted round
reaches the learner. Where they are dense, as for ``baseline``, for
``naive`` while its budget lasts, and for ``priced`` where much of the
data is free, numpy's fixed cost per call outweighs the rounds a window
saves, so rounds go one by one through the family's one-row kernel. The
run picks between the two from the purchase rate it measures, and both
give the same transcript and totals bit for bit.

Either way a feature round's margin is computed once, straight from the
instance's columns: the kernel returns the loss, delta and the gradient
coefficient (slope times label), and a purchase builds its gradient from
that coefficient with the family's ``row_gradient`` and feeds it through
the learner's unchecked ``_feed``: the instance was checked when built. A
purchase whose coefficient is exactly zero (an inactive hinge, or a
bought filler point of a vertex run) updates spend, counters and estimate
but skips the feed. That is exact: the gradient sum starts at +0.0 and can
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

from .core import Hypothesis, InvalidConfigError, VertexLoss, project_coords
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
        if not 0 < self.budget < math.inf:  # NaN fails both
            raise InvalidConfigError(f"budget must be positive and finite, got {self.budget}")
        if self.payment_mode not in PAYMENT_MODES:
            raise InvalidConfigError(f"unknown payment mode {self.payment_mode!r}")
        if self.purchase_policy not in POLICIES:
            raise InvalidConfigError(f"unknown purchase policy {self.purchase_policy!r}")
        if not 0 < self.c_max < math.inf:
            raise InvalidConfigError(
                f"c_max (the maximum price) must be positive and finite, got {self.c_max}"
            )


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

    def extend(self, delta, cost, price, accepted, q, payment, loss, cum_spend):
        """Append rounds given as one list per column."""
        self.delta.extend(delta)
        self.cost.extend(cost)
        self.price.extend(price)
        self.accepted.extend(accepted)
        self.q.extend(q)
        self.payment.extend(payment)
        self.loss.extend(loss)
        self.cum_spend.extend(cum_spend)

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
        self._adaptive = isinstance(config.price_scale, AdaptiveScale)

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
        """Execute all rounds, consuming one uniform draw per round. A vertex
        run decides every round and then learns; a feature run walks the
        rounds."""
        if self._finished:
            raise MechanismStateError("mechanism already ran its full sequence")
        uniforms = rng.random(self.horizon)
        if isinstance(self.instance.family, VertexLoss):
            self._decide_then_learn(uniforms)
        else:
            self._walk(uniforms)
        self.rounds_done = self.horizon
        self._finished = True
        return self

    def _walk(self, uniforms: np.ndarray) -> None:
        """Play the rounds in order, learning as they go.

        The purchase rate is tracked as a running mean of the acceptance
        probability q, with a memory of about RATE_MEMORY rounds. While it
        puts purchases less than VECTOR_GAP rounds apart, rounds go one by
        one, VECTOR_GAP at a time. Otherwise the next window is evaluated as
        arrays; it spans twice the expected gap or the current dry spell,
        whichever is longer, so it doubles while nothing is bought, and it
        ends at the first purchase.
        """
        horizon = self.horizon
        u_list = uniforms.tolist()
        costs = self.instance.costs.tolist()
        max_window = max(2 * VECTOR_GAP, WINDOW_ELEMENTS // self.instance.space.dim)
        keep = 1.0 - 1.0 / RATE_MEMORY
        rate, t = 1.0 / VECTOR_GAP, 0  # the first window measures the rate
        while t < horizon:
            if rate * VECTOR_GAP > 1.0:
                stop = min(horizon, t + VECTOR_GAP)
                after, q_sum = self._rounds_one_by_one(t, stop, u_list, costs)
            else:
                dry_spell = t - 1 - self._last_purchase
                window = 2.0 * max(dry_spell, 1.0 / rate) if rate > 0.0 else max_window
                stop = min(horizon, t + int(min(max_window, window)))
                after, q_sum = self._rounds_at_once(t, stop, uniforms)
            decay = keep ** (after - t)
            rate = decay * rate + (1.0 - decay) * q_sum / (after - t)
            t = after

    def _decide_then_learn(self, uniforms: np.ndarray) -> None:
        """Play a vertex run in two passes, bit for bit the rounds one by
        one: decide every round without the learner, then replay the
        learner over the purchases in one block and total the rounds."""
        instance = self.instance
        T, dim = self.horizon, instance.space.dim
        outcomes, costs = instance.outcomes, instance.costs
        observed = outcomes >= 0
        dlt = instance.family.grad_norms(outcomes)  # at every hypothesis
        price, q, accepted, payment = self._schedule(dlt, uniforms)

        # a bought filler round has a zero gradient and is not fed
        fed = np.flatnonzero(accepted & observed)
        gradients = np.zeros((len(fed), dim))
        gradients[np.arange(len(fed)), outcomes[fed]] = -1.0
        posted = self.learner._feed_rows(gradients, 1.0 / q[fed], dlt[fed])
        # round t posts the hypothesis left by the feeds before it
        w = posted[np.searchsorted(fed, np.arange(T))]
        loss = np.ones(T)
        loss[observed] = 1.0 - w[observed, outcomes[observed]]

        # cumsum along axis 0 adds the rows in order, so these sums are bit
        # for bit those of one round at a time; a rejected round adds 0.0
        # to the estimate and the spend, which leaves them as they are
        value_cost = dlt * np.sqrt(costs)
        estimate = np.zeros(T)
        estimate[accepted] = value_cost[accepted] / q[accepted]
        block = np.empty((T + 1, dim + 5))
        block[0] = 0.0  # every total starts at zero
        block[1:, :dim] = w
        block[1:, dim] = loss
        block[1:, dim + 1] = value_cost
        block[1:, dim + 2] = dlt
        block[1:, dim + 3] = estimate
        block[1:, dim + 4] = payment
        sums = block.cumsum(axis=0)
        self.hypothesis_sum = sums[-1, :dim].copy()
        (
            self.loss_total, self.value_cost_total, self.value_total,
            self.estimate_total, self.spend,
        ) = sums[-1, dim:].tolist()
        self.purchases = int(np.count_nonzero(accepted))
        if self.transcript is not None:
            self.transcript.extend(
                dlt.tolist(), costs.tolist(), price.tolist(), accepted.tolist(),
                q.tolist(), payment.tolist(), loss.tolist(), sums[1:, dim + 4].tolist(),
            )

    def _schedule(self, dlt, uniforms) -> tuple[np.ndarray, ...]:
        """Decide every round of a vertex run from the costs, the uniforms
        and the scale: each round's price, q, acceptance and payment."""
        cfg = self.config
        T, costs = self.horizon, self.instance.costs
        if cfg.purchase_policy == BASELINE:
            price, q, accepted = np.full(T, cfg.c_max), np.ones(T), np.ones(T, dtype=bool)
            return price, q, accepted, np.zeros(T)
        if cfg.purchase_policy == NAIVE:
            # every round is bought at c_max while the spend before it
            # leaves room for c_max; the spend only grows, so the rounds
            # that leave room are a prefix
            open_payment = costs if cfg.payment_mode == AT_COST else np.full(T, cfg.c_max)
            spent = np.concatenate(([0.0], np.cumsum(open_payment)[:-1]))
            price = np.zeros(T)
            price[: np.count_nonzero(spent + cfg.c_max <= cfg.budget)] = cfg.c_max
            accepted = price >= costs
            q = accepted.astype(np.float64)
        elif cfg.hard_stop or self._adaptive:
            price, q, accepted = self._schedule_one_by_one(dlt, uniforms)
        else:
            price, q, accepted = priced_rounds(dlt, costs, uniforms, self.price_scale, cfg.c_max)
        payment = np.where(accepted, costs if cfg.payment_mode == AT_COST else price, 0.0)
        return price, q, accepted, payment

    def _schedule_one_by_one(self, dlt, uniforms) -> tuple[np.ndarray, ...]:
        """The priced rounds of a vertex run whose prices depend on the
        spend or the estimate (a hard stop, an adaptive scale), decided in
        order without the learner: price, q and acceptance. The spend, the
        estimate and the purchase count it keeps along the way are the
        ones the learner pass totals again."""
        costs = self.instance.costs.tolist()
        price, q, accepted = [], [], []
        policy, flat_price = self._posting_policy(), self._flat_price()
        for t, (d, cost, u) in enumerate(zip(dlt.tolist(), costs, uniforms.tolist())):
            p_t, q_t, bought = self._quote(policy, flat_price, t, d, cost, u)
            if bought:
                self._pay(t, d, cost, p_t, q_t)
                policy, flat_price = self._posting_policy(), self._flat_price()
            price.append(p_t)
            q.append(q_t)
            accepted.append(bought)
        return np.array(price), np.array(q), np.array(accepted, dtype=bool)

    def _rounds_one_by_one(self, start, stop, uniforms, costs) -> tuple[int, float]:
        """Play rounds ``start <= t < stop`` through the one-row kernel;
        return ``stop`` and the sum of the acceptance probabilities q.
        ``uniforms`` and ``costs`` are lists."""
        instance = self.instance
        loss_delta_row = instance.family.loss_delta_row
        transcript = self.transcript
        # the hypothesis, the spend and so the policy's choice change only
        # on a purchase
        w = self.learner.coords
        policy = self._posting_policy()
        flat_price = self._flat_price()
        q_sum = 0.0
        for t in range(start, stop):
            cost = costs[t]
            loss, dlt, coefficient = loss_delta_row(w, instance, t)
            price, q, accepted = self._quote(policy, flat_price, t, dlt, cost, uniforms[t])
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
            if self._adaptive:
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
                dlt[:unbought].tolist(), cost[:unbought].tolist(),
                price[:unbought].tolist(), [False] * unbought, q[:unbought].tolist(),
                [0.0] * unbought, loss[:unbought].tolist(), [self.spend] * unbought,
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

    def _quote(self, policy, flat_price, t, dlt, cost, u) -> tuple[float, float, bool]:
        """Price, q and acceptance of round ``t`` under the posting policy,
        the flat price it posts, and the current spend and estimate."""
        cfg = self.config
        if policy == BASELINE:
            return cfg.c_max, 1.0, True
        if policy == NAIVE:
            accepted = flat_price >= cost
            return flat_price, 1.0 if accepted else 0.0, accepted
        if self._adaptive:
            self.rounds_done = t
            return priced_round(dlt, cost, u, self.adapted_scale(), cfg.c_max)
        return priced_round(dlt, cost, u, self.price_scale, cfg.c_max)

    def _pay(self, t, dlt, cost, price, q) -> float:
        """Pay for the accepted round ``t`` and count it; return the payment."""
        cfg = self.config
        self._last_purchase = t
        if cfg.purchase_policy == BASELINE:
            payment = 0.0
        else:
            payment = cost if cfg.payment_mode == AT_COST else price
        self.spend += payment
        self.purchases += 1
        self.estimate_total += dlt * math.sqrt(cost) / q
        return payment

    def _buy(self, t, coefficient, loss, dlt, cost, price, q) -> None:
        """Pay for, feed and record the accepted round ``t``, whose gradient
        coefficient at the posted hypothesis is ``coefficient``."""
        payment = self._pay(t, dlt, cost, price, q)
        if coefficient != 0.0:  # a zero gradient would leave the learner as it is
            gradient = self.instance.family.row_gradient(self.instance, t, coefficient)
            self.learner._feed(gradient, 1.0 / q, dlt)  # q <= 1
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
