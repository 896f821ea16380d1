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
the spend and the estimate change only when an arrival is bought. Its two
engines below decide, learn and fill the round columns; one settle pass
then adds up the payments, estimates and totals in one cumulative sum,
which adds the same values in the same order as the running spend and
estimate that the rounds read, and keeps the columns as a transcript.

A vertex run (``VertexLoss``: the coin and padded-coin streams) decides
first and then learns. Its delta is 1 on every outcome and 0 on filler
points at every hypothesis, so the purchase schedule needs no learner, and
the learner then replays the purchases in one block: a cumulative sum adds
the rows in round order, as one round at a time does.

A feature run (``HingeLoss``) visits only the rounds it could buy. Its
delta is the row's norm where the hinge is active and 0 elsewhere, so the
learner bears on a purchase only through whether the hinge is active. One
``_posted`` call at delta = norm lists a chunk's rounds that the current
state could buy, and only those are visited: the margin at the current
hypothesis, the exact decision, and for a purchase the payment and the
feed. The other rounds' margins are taken at the hypothesis they posted,
the hypothesis sum is added up in round order at the end, and the settle
pass prices every round from the spend and the estimate before it, as the
round itself would have. A list stays complete after a purchase: an
adaptive scale only rises at a purchase, and a round accepted at a scale
is accepted at every lower one, as every correctly rounded step of the
price law is monotone (tests pin both). A change of the flat price (naive,
a hard stop) starts a new list. A margin has the same bits one row at a
time or in a block, as numpy reduces each row of a block as it reduces a
lone row.

A bought round with an inactive hinge pays but is not fed: the gradient
sum starts at +0.0 and never holds -0.0, so a zero gradient would change
none of its bits, nor the bound sum or the hypothesis recomputed from
them. (A fresh learner on the ball posts +0.0 where a recompute would give
-0.0, but there every margin is 0 and every hinge active.) A feed at q = 1
adds or subtracts the row itself, as the coefficient is +-1.
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

# A feature run lists the rounds it could buy CHUNK rounds at a time, and
# lists them again after STALE visits that the state refused: a list costs
# about as much as that many visits. The unvisited rounds at one hypothesis
# take their margins one row at a time when fewer than VECTOR_GAP, where
# numpy's fixed cost per call is not repaid, else in blocks capped so that a
# (rows x dim) block stays a few hundred kilobytes.
CHUNK = 1024
STALE = 8
VECTOR_GAP = 6
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
        # -0.0 + 0.0 is +0.0: priced_rounds divides by the scale
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


@dataclass(frozen=True, eq=False)
class Transcript:
    """Column-oriented per-round audit log of a finished run: one read-only
    array per column after ``t``, the row index. ``accepted`` holds exactly
    when the posted price met the cost and the acceptance probability q was
    positive (worthless arrivals post the degenerate price 0 and are never
    bought); ``payment`` is the price (posted-price), the cost (at-cost), or
    0 (rejected or baseline)."""

    COLUMNS = ("t", "delta", "cost", "price", "accepted", "q", "payment", "loss", "cum_spend")

    delta: np.ndarray
    cost: np.ndarray
    price: np.ndarray
    accepted: np.ndarray
    q: np.ndarray
    payment: np.ndarray
    loss: np.ndarray
    cum_spend: np.ndarray

    def __post_init__(self):
        for name in self.COLUMNS[1:]:
            getattr(self, name).flags.writeable = False

    def __reduce__(self):  # unpickled columns are read-only too
        return Transcript, tuple(getattr(self, name) for name in self.COLUMNS[1:])

    def __len__(self) -> int:
        return len(self.loss)


# ---------------------------------------------------------------------------
# Mechanism
# ---------------------------------------------------------------------------


class Mechanism:
    """One run's mutable state: learner, budget ledger, scale policy, audit."""

    def __init__(self, config: MechanismConfig, instance: ProblemInstance):
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

        self.spend = 0.0  # kept running for the prices mid-run, then settled
        self.estimate_total = 0.0  # importance-weighted purchase estimate
        self.rounds_done = 0
        self.hypothesis_sum = np.zeros(instance.space.dim)
        self.transcript: Optional[Transcript] = None  # set when the run settles

    # -- estimates -----------------------------------------------------------

    def value_cost_estimate(self, t: Optional[int] = None) -> float:
        """Importance-weighted estimate of mean delta * sqrt(cost) over the
        rounds before round ``t`` (by default every round done), clipped to
        [0, 1]; zero before the first round."""
        t = self.rounds_done if t is None else t
        return min(1.0, max(0.0, self.estimate_total / t)) if t else 0.0

    def adapted_scale(self, t: int) -> float:
        """Burn-rate scale of round ``t`` under the adaptive policy, at the
        current spend and estimate."""
        floor = 1e-6 * self.config.budget
        remaining_budget = max(self.config.budget - self.spend, floor)
        return min(SCALE_CAP, self.value_cost_estimate(t) * (self.horizon - t) / remaining_budget)

    def adapted_scales(self, rounds: np.ndarray, estimate_total, spend) -> np.ndarray:
        """``adapted_scale`` of each round in ``rounds`` from the estimate
        total and the spend before it, scalars or one per round, with the
        same arithmetic."""
        estimate = np.minimum(1.0, np.maximum(0.0, estimate_total / np.maximum(rounds, 1)))
        estimate[rounds == 0] = 0.0  # value_cost_estimate before any round
        floor = 1e-6 * self.config.budget
        remaining_budget = np.maximum(self.config.budget - spend, floor)
        return np.minimum(SCALE_CAP, estimate * (self.horizon - rounds) / remaining_budget)

    # -- execution ------------------------------------------------------------

    def run(self, rng: np.random.Generator) -> "Mechanism":
        """Execute all rounds, consuming one uniform draw per round. A vertex
        run decides every round and then learns; a feature run visits the
        rounds it could buy. Either way the run then settles from its round
        columns."""
        if self.transcript is not None:
            raise MechanismStateError("mechanism already ran its full sequence")
        uniforms = rng.random(self.horizon)
        if isinstance(self.instance.family, VertexLoss):
            self._settle(*self._decide_then_learn(uniforms))
        else:
            self._settle(*self._visit(uniforms), uniforms)
        return self

    def _settle(self, delta, price, q, accepted, loss, uniforms=None) -> None:
        """Total a played run from its round columns and keep them, with the
        payment and the spend after each round, as its transcript.

        One cumulative sum over the rounds adds up the loss, delta *
        sqrt(cost), delta, the importance-weighted estimate and the payment.
        It adds them in round order, as the rounds one at a time do, and a
        rejected round adds 0.0 to the estimate and the spend, which leaves
        them as they are: so the spend and the estimate equal bit for bit
        the running ones that ``_pay`` kept for the rounds to read. Given
        the ``uniforms``, ``price`` and ``q`` need to hold only at the
        accepted rounds: every round is then priced again from the spend
        and the estimate before it."""
        cfg = self.config
        T, costs = self.horizon, self.instance.costs
        paid = accepted & (cfg.purchase_policy != BASELINE)  # baseline pays nothing
        payment = np.where(paid, costs if cfg.payment_mode == AT_COST else price, 0.0)
        value_cost = delta * np.sqrt(costs)
        estimate = np.zeros(T)
        estimate[accepted] = value_cost[accepted] / q[accepted]
        block = np.zeros((5, T + 1))  # every total starts at zero
        block[:, 1:] = loss, value_cost, delta, estimate, payment
        sums = block.cumsum(axis=1)
        if uniforms is not None:
            price, q, _ = self._posted(delta, 0, T, sums[3, :-1], sums[4, :-1], uniforms)
        self.loss_total, self.value_cost_total, self.value_total = sums[:3, -1].tolist()
        self.estimate_total, self.spend = sums[3:, -1].tolist()
        self.purchases = int(np.count_nonzero(accepted))
        self.rounds_done = T
        self.transcript = Transcript(
            delta, costs.copy(), price, accepted, q, payment, loss, sums[4, 1:].copy()
        )

    def _posted(self, delta, start, stop, estimate_total, spend, uniforms) -> tuple[np.ndarray, ...]:
        """Price, q and acceptance of the rounds ``start <= t < stop`` under
        the posting policy, from their delta and the estimate total and
        spend before them: one value for every round or one each."""
        cfg = self.config
        n, costs = stop - start, self.instance.costs[start:stop]
        if cfg.purchase_policy == BASELINE:
            return np.full(n, cfg.c_max), np.ones(n), np.ones(n, dtype=bool)
        if cfg.purchase_policy == NAIVE:
            price = np.where(spend + cfg.c_max <= cfg.budget, np.full(n, cfg.c_max), 0.0)
            accepted = price >= costs
            return price, accepted.astype(np.float64), accepted
        if self._adaptive:
            scale = self.adapted_scales(np.arange(start, stop), estimate_total, spend)
        else:
            scale = self.price_scale
        price, q, accepted = priced_rounds(delta, costs, uniforms[start:stop], scale, cfg.c_max)
        if cfg.hard_stop:  # past the stop a flat price 0 buys the free arrivals
            stopped, free = spend >= cfg.budget, costs <= 0.0
            price, q = np.where(stopped, 0.0, price), np.where(stopped, free, q)
            accepted = np.where(stopped, free, accepted)
        return price, q, accepted

    def _visit(self, uniforms: np.ndarray) -> tuple[np.ndarray, ...]:
        """Play a feature run, visiting only the rounds it could buy: each
        chunk of CHUNK rounds starts with their list at the current state,
        and a change of the flat price or STALE visits that the state
        refused start the next chunk early. Returns the round columns;
        price and q hold only at the purchases."""
        cfg, instance, learner = self.config, self.instance, self.learner
        family = instance.family
        T, c_max = self.horizon, cfg.c_max
        features, margin = instance.features, _margin
        labels = instance.labels.tolist()
        norms = instance.feature_norms.tolist()
        costs = instance.costs.tolist()
        u = uniforms.tolist()
        margins = np.empty(T)
        bought, bought_price, bought_q = [], [], []
        fed, posted = [], [learner.coords]  # the rounds fed, the hypothesis after each
        watch = cfg.purchase_policy == NAIVE or cfg.hard_stop  # can the flat price change?
        track = watch or self._adaptive  # does a later round read the spend or estimate?
        step = max(1, WINDOW_ELEMENTS // instance.space.dim)
        gaps = []  # the unvisited rounds posting w, as ranges

        def close(stop):  # margins of the unvisited rounds posting w, all before stop
            if sum(b - a for a, b in gaps) < VECTOR_GAP:
                for a, b in gaps:
                    for i in range(a, b):
                        margins[i] = labels[i] * margin(features[i], w)
            else:
                for a in range(first, stop, step):
                    b = min(stop, a + step)
                    margins[a:b] = family.margins(w, instance, a, b)
            gaps.clear()

        w = learner.coords
        t = first = 0  # the next round; the first round posting w
        while t < T:
            stop = min(T, t + CHUNK)
            policy, flat_price = self._posting_policy(), self._flat_price()
            stale = 0
            could = self._posted(
                instance.feature_norms[t:stop], t, stop, self.estimate_total, self.spend, uniforms
            )[2]
            for j in (np.flatnonzero(could) + t).tolist() + [stop]:
                if j > t:
                    gaps.append((t, j))
                t = j
                if j == stop:
                    break
                t = j + 1
                x = features[j]
                margins[j] = m = labels[j] * margin(x, w)
                active = m < 1.0
                d = norms[j] if active else 0.0
                if policy == PRICED:
                    if not active:  # worthless: never bought, at every scale
                        continue
                    scale = self.adapted_scale(j) if self._adaptive else self.price_scale
                    p, q, accepted = priced_round(d, costs[j], u[j], scale, c_max)
                    if not accepted:
                        stale += 1
                        if stale == STALE:
                            break
                        continue
                else:  # every round on a naive or baseline list is bought
                    p, q = (c_max if policy == BASELINE else flat_price), 1.0
                bought.append(j)
                bought_price.append(p)
                bought_q.append(q)
                if track:
                    self._pay(d, costs[j], p, q)
                if active:  # the gradient -label * x; an inactive hinge feeds zero
                    if gaps:
                        close(j)
                    learner._feed(x, 1.0 / q, d, negate=labels[j] > 0)
                    w = learner.coords
                    fed.append(j)
                    posted.append(w)
                    first = t
                if watch and (policy, flat_price) != (self._posting_policy(), self._flat_price()):
                    break
        if gaps:
            close(T)
        loss, delta = family.loss_delta(margins, instance.feature_norms)
        price, q = np.zeros((2, T))
        accepted = np.zeros(T, dtype=bool)
        accepted[bought], price[bought], q[bought] = True, bought_price, bought_q
        self.hypothesis_sum = self._sum_posted(posted, np.searchsorted(fed, np.arange(T)))
        return delta, price, q, accepted, loss

    def _sum_posted(self, posted, before) -> np.ndarray:
        """The sum of the hypotheses ``posted[before[t]]`` that the rounds
        posted, in blocks added in round order as one round at a time
        does; ``posted`` is the hypothesis before the first feed and after
        each, as rows or a list."""
        dim = self.instance.space.dim
        step = max(1, WINDOW_ELEMENTS // dim)
        total = np.zeros(dim)  # the hypothesis sum starts at zero
        for a in range(0, self.horizon, step):
            k = before[a:a + step]
            block = np.empty((len(k) + 1, dim))
            block[0] = total
            block[1:] = np.asarray(posted[k[0]:k[-1] + 1])[k - k[0]]
            total = block.cumsum(axis=0)[-1]  # adds the rows in order
        return total.copy()

    def _decide_then_learn(self, uniforms: np.ndarray) -> tuple[np.ndarray, ...]:
        """Play a vertex run in two passes, bit for bit the rounds one by
        one: decide every round without the learner, then replay the
        learner over the purchases in one block. Returns the round columns
        delta, price, q, accepted and loss."""
        instance = self.instance
        T, dim = self.horizon, instance.space.dim
        outcomes = instance.outcomes
        observed = outcomes >= 0
        dlt = instance.family.grad_norms(outcomes)  # at every hypothesis
        price, q, accepted = self._schedule(dlt, uniforms)

        # a bought filler round has a zero gradient and is not fed
        fed = np.flatnonzero(accepted & observed)
        gradients = np.zeros((len(fed), dim))
        gradients[np.arange(len(fed)), outcomes[fed]] = -1.0
        posted = self.learner._feed_rows(gradients, 1.0 / q[fed], dlt[fed])
        before = np.searchsorted(fed, np.arange(T))  # round t posts posted[before[t]]
        loss = np.ones(T)
        loss[observed] = 1.0 - posted[before[observed], outcomes[observed]]
        self.hypothesis_sum = self._sum_posted(posted, before)
        return dlt, price, q, accepted, loss

    def _schedule(self, dlt, uniforms) -> tuple[np.ndarray, ...]:
        """Decide every round of a vertex run from the costs, the uniforms
        and the scale: each round's price, q and acceptance."""
        cfg = self.config
        T, costs = self.horizon, self.instance.costs
        if cfg.purchase_policy == BASELINE:
            return np.full(T, cfg.c_max), np.ones(T), np.ones(T, dtype=bool)
        if cfg.purchase_policy == NAIVE:
            # every round is bought at c_max while the spend before it
            # leaves room for c_max; the spend only grows, so the rounds
            # that leave room are a prefix
            open_payment = costs if cfg.payment_mode == AT_COST else np.full(T, cfg.c_max)
            spent = np.concatenate(([0.0], np.cumsum(open_payment)[:-1]))
            price = np.zeros(T)
            price[: np.count_nonzero(spent + cfg.c_max <= cfg.budget)] = cfg.c_max
            accepted = price >= costs
            return price, accepted.astype(np.float64), accepted
        if cfg.hard_stop or self._adaptive:
            return self._schedule_one_by_one(dlt, uniforms)
        return priced_rounds(dlt, costs, uniforms, self.price_scale, cfg.c_max)

    def _schedule_one_by_one(self, dlt, uniforms) -> tuple[np.ndarray, ...]:
        """The priced rounds of a vertex run whose prices depend on the
        spend or the estimate (a hard stop, an adaptive scale), decided in
        order without the learner: price, q and acceptance."""
        costs, c_max = self.instance.costs.tolist(), self.config.c_max
        price, q, accepted = [], [], []
        policy, flat_price = self._posting_policy(), self._flat_price()
        for t, (d, cost, u) in enumerate(zip(dlt.tolist(), costs, uniforms.tolist())):
            if policy == NAIVE:  # past a hard stop
                bought = flat_price >= cost
                p_t, q_t = flat_price, 1.0 if bought else 0.0
            else:
                scale = self.adapted_scale(t) if self._adaptive else self.price_scale
                p_t, q_t, bought = priced_round(d, cost, u, scale, c_max)
            if bought:
                self._pay(d, cost, p_t, q_t)
                policy, flat_price = self._posting_policy(), self._flat_price()
            price.append(p_t)
            q.append(q_t)
            accepted.append(bought)
        return np.array(price), np.array(q), np.array(accepted, dtype=bool)

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

    def _pay(self, dlt, cost, price, q) -> None:
        """Pay for an accepted round: the running spend and estimate that
        the prices of later rounds read."""
        cfg = self.config
        if cfg.purchase_policy != BASELINE:
            self.spend += cost if cfg.payment_mode == AT_COST else price
        self.estimate_total += dlt * math.sqrt(cost) / q

    def finalize(self) -> Hypothesis:
        """Mean of the posted hypotheses, the run's single prediction."""
        if self.transcript is None:
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


def _margin(x: np.ndarray, w: np.ndarray) -> float:
    """<x, w> as the row sum of x * w, the sum ``HingeLoss`` takes."""
    return float(np.add.reduce(x * w))
