"""Budgeted data-purchasing mechanisms around an importance-weighted learner.

Each round the mechanism posts the learner's hypothesis, draws a price from
the randomized law scaled by the current ``price_scale``, and — if the agent
accepts (price >= cost) — pays per the payment mode, reveals the cost, and
feeds the gradient weighted by one over the acceptance probability at that
cost. Rejected rounds feed the zero function. Losses accrue every round
regardless of purchase. Money is measured in units of the largest cost:
every cost and every price lies in [0, 1], and the budget is in the same
unit.

The budget is an expectation constraint by default: the scale is chosen so
expected spend stays within it, and realized spend is reported. ``hard_stop``
additionally forces the posted price to zero once spend reaches the budget
(free arrivals are still collected) while hypotheses and losses keep flowing.

``naive`` offers the maximum price, 1, to every arrival until the budget cannot
cover another purchase, then posts price zero; ``baseline`` acquires every
arrival and pays nothing (the unconstrained reference).

``Mechanism.run`` is event-driven. The learner keeps its state in the
gradient sum and a rejected round feeds nothing, so the posted hypothesis,
the spend and the estimate change only when an arrival is bought. The
learner and the loss reach a purchase only through the round's delta and
the state its price reads, so both kinds of run decide through one walk.
It lists with ``_posted`` the rounds that the current state could buy at
an upper bound of their delta. A list whose prices read no mid-run state
is decided whole; on any other list the walk visits each round: it takes
the exact delta and decides the round again with ``priced_round`` at the
current state.

A priced run with an adaptive scale or a hard stop is tracked: its later
prices read the spend and the estimate. The walk pays at each of its
purchases and lists CHUNK rounds at a time; STALE refusals, or a purchase
that crosses the hard stop, start a new list. A list stays complete after
a purchase: an adaptive scale only rises at a purchase, and a round
accepted at a scale is accepted at every lower one, as every correctly
rounded step of the price law is monotone (tests pin both). Past a hard
stop the price is a flat 0. No other run reads the state mid-run (naive
reads only its own spend, a prefix sum known up front, and a fixed or
from-knowledge scale is one number), so its one list covers every round.

A vertex run (an outcome task: a coin stream, with or without filler) decides
first and then learns. Its delta is 1 on every outcome and 0 on filler
points at every hypothesis, so the bound is exact: an untracked run's list
is its decision, and a tracked one walks. The learner then replays the
purchases in one block: a cumulative sum adds the rows in round order, as
one round at a time does. A feature run (a hinge loss on labelled rows)
learns as it walks. Its delta is the row's norm where the hinge is active
and 0 elsewhere, so it lists at the stored norms. A visited round takes
its margin at the current hypothesis and feeds if bought with an active
hinge. A list decided whole is learned in verified blocks of BLOCK listed
rounds, as lazy FTRL's iterates follow from the fed gradients alone: the
hinge of each round is guessed from its margin at the block's first
hypothesis, one ``_feed_rows`` of the guessed feeds gives the hypothesis
each round posted, each margin is taken again there, and the rounds
before the first wrong guess are kept. A flat-price list buys each of its
rounds, a priced one those whose hinge is active (their listed delta is
then exact). A block's first round is guessed at the hypothesis it posts,
so every block keeps at least one round.

Either way one settle pass (``_settle``) replays the hypotheses the run
posted: the loss and delta of every round at its hypothesis, and their sum.
A margin has the same bits one row at a time or in a block, as numpy
reduces each row of a block as it reduces a lone row, so a round's loss is
the one its visit or its block decided on. The pass then totals and prices
every round again, and keeps the columns as a transcript.

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

# A tracked run lists the rounds it could buy CHUNK rounds at a time, and
# lists them again after STALE visits that the state refused: a list costs
# about as much as that many visits. A feature run learns a list decided
# whole BLOCK listed rounds at a time; a guess gone wrong wastes the rest of
# its block. The settle pass replays the posted hypotheses in blocks of
# rows capped so that a (rows x dim) block stays a few hundred kilobytes.
CHUNK = 1024
STALE = 8
BLOCK = 128
WINDOW_ELEMENTS = 1 << 15


class MechanismStateError(RuntimeError):
    """Run-protocol misuse: finalizing early or re-running a finished run."""


# ---------------------------------------------------------------------------
# Scale and learning-rate selection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PriorKnowledge:
    """Rough sequence statistics known in advance, each in [0, 1]: the
    from-knowledge price scale, set by ``choose_price_scale``.

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
    knowledge: PriorKnowledge, horizon: int, budget: float, payment_mode: str = POSTED_PRICE
) -> float:
    """Smallest price scale whose expected spend provably fits the budget.

    At-cost: horizon * stat / budget with stat the best cost-value bound
    available (avg_value_cost, else avg_sqrt_cost, else sqrt(avg_cost)).
    Posted-price: (horizon / budget) * (2 * avg_value - avg_value_cost),
    degrading by substituting the bound 1 for unknown statistics. A scale of
    0 would buy every arrival at price 1, which no budget promise covers, so
    knowledge that gives a scale <= 0 is refused.
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
        if k.avg_value_cost is not None and k.avg_value is not None:
            used = "avg_value and avg_value_cost"
            scale = ratio * (2.0 * k.avg_value - k.avg_value_cost)
        elif k.avg_value_cost is not None:
            used, scale = "avg_value_cost", ratio * (2.0 - k.avg_value_cost)
        elif k.avg_sqrt_cost is not None or k.avg_cost is not None:
            used = "avg_sqrt_cost" if k.avg_sqrt_cost is not None else "avg_cost"
            scale = ratio * 2.0
        else:
            raise InvalidConfigError("no usable prior statistic supplied")
    if not scale > 0.0:
        raise InvalidConfigError(
            f"prior knowledge {used} gives price scale {scale}; from-knowledge "
            "scales must be positive (a zero scale buys every arrival at price 1)"
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
class AdaptiveScale:
    """Track the burn rate: scale_t = estimate_t * rounds_left / budget_left.

    Starts at zero (buy every arrival with delta > 0 at the maximum price;
    worthless ones are never bought) and re-estimates the
    value-cost statistic from purchases, importance-weighted by 1/q. The
    budget-left denominator is floored and the scale capped at ``SCALE_CAP``
    so spending shuts off rather than dividing by zero near exhaustion.
    """


ScalePolicy = Union[FixedScale, PriorKnowledge, AdaptiveScale]


@dataclass(frozen=True)
class FixedRate:
    value: float

    def __post_init__(self):
        if not 0 < self.value < math.inf:  # NaN fails both
            raise InvalidConfigError(f"learning rate must be positive and finite, got {self.value}")


@dataclass(frozen=True)
class TheoryRate:
    scale: float = 1.0

    def __post_init__(self):
        if not 0 < self.scale < math.inf:  # NaN fails both
            raise InvalidConfigError(
                f"learning rate scale must be positive and finite, got {self.scale}"
            )


RatePolicy = Union[FixedRate, TheoryRate]


@dataclass(frozen=True)
class MechanismConfig:
    budget: float
    payment_mode: str = POSTED_PRICE
    purchase_policy: str = PRICED
    price_scale: ScalePolicy = AdaptiveScale()
    learning_rate: RatePolicy = TheoryRate()
    hard_stop: bool = False

    def __post_init__(self):
        if not 0 < self.budget < math.inf:  # NaN fails both
            raise InvalidConfigError(f"budget must be positive and finite, got {self.budget}")
        if self.payment_mode not in PAYMENT_MODES:
            raise InvalidConfigError(f"unknown payment mode {self.payment_mode!r}")
        if self.purchase_policy not in POLICIES:
            raise InvalidConfigError(f"unknown purchase policy {self.purchase_policy!r}")
        if isinstance(self.price_scale, PriorKnowledge):
            # the scale's sign does not depend on the horizon, so knowledge
            # that gives no positive scale is refused before any run
            choose_price_scale(self.price_scale, 1, self.budget, self.payment_mode)


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
        self.config = config
        self.instance = instance
        self.horizon = instance.horizon

        if config.purchase_policy != PRICED:
            # naive and baseline never evaluate the price law; a scale would
            # only leak the budget into their theory learning rate
            self.price_scale = 0.0
        elif isinstance(config.price_scale, FixedScale):
            self.price_scale = config.price_scale.value
        elif isinstance(config.price_scale, PriorKnowledge):
            self.price_scale = choose_price_scale(
                config.price_scale, instance.horizon, config.budget, config.payment_mode
            )
        else:
            self.price_scale = 0.0
        self._adaptive = isinstance(config.price_scale, AdaptiveScale)
        # a tracked run's prices read the spend or the estimate mid-run
        self._tracked = config.purchase_policy == PRICED and (config.hard_stop or self._adaptive)

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
        [0, 1], the range of delta * sqrt(cost); zero before the first
        round."""
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
        """Execute all rounds, consuming one uniform draw per round. Either
        engine returns the columns price, q and accepted, the rounds fed,
        and the hypotheses posted before the first feed and after each, one
        row each; the run then settles from them."""
        if self.transcript is not None:
            raise MechanismStateError("mechanism already ran its full sequence")
        uniforms = rng.random(self.horizon)
        play = self._decide_then_learn if self.instance.outcomes is not None else self._visit
        self._settle(*play(uniforms), uniforms)
        return self

    def _settle(self, price, q, accepted, fed, posted, uniforms) -> None:
        """Total a played run and keep its columns, with the loss, delta,
        payment and spend after each round, as its transcript.

        Round t posted the row of ``posted`` after the feeds of the rounds
        before it. In blocks of at most WINDOW_ELEMENTS values of those
        rows, the instance gives each round's loss and delta, and a cumulative
        sum adds the rows to the hypothesis sum in round order, as one round
        at a time does. One cumulative sum over the rounds then adds up the
        loss, delta * sqrt(cost), delta, and the payment and estimate term
        of each bought round (``ledger_entry``), in round order too; a
        rejected round adds 0.0 to the estimate and the spend, which leaves
        them as they are: so the spend and the estimate equal bit for bit
        the running ones that ``_walk`` kept for the rounds to read.
        ``price`` and ``q`` need to hold only at the accepted rounds: every
        round is then priced again from the ``uniforms``, at the spend and
        the estimate before it where the run is tracked."""
        cfg, instance = self.config, self.instance
        T, costs, dim = self.horizon, instance.costs, instance.space.dim
        loss, delta = np.empty((2, T))
        total = np.zeros(dim)  # the hypothesis sum starts at zero
        step = max(1, WINDOW_ELEMENTS // dim)
        for a in range(0, T, step):
            b = min(T, a + step)
            rows = np.empty((b - a + 1, dim))
            rows[0] = total
            H = posted.take(np.searchsorted(fed, np.arange(a, b)), axis=0, out=rows[1:], mode="clip")
            loss[a:b], delta[a:b] = instance.at_posted(H, a, b)
            total = np.cumsum(rows, axis=0, out=rows)[-1]  # adds the rows in order
        self.hypothesis_sum = total.copy()
        bought = np.flatnonzero(accepted)
        payment, estimate = np.zeros(T), np.zeros(T)
        paid, estimate[bought] = ledger_entry(
            delta[bought], costs[bought], price[bought], q[bought], cfg.payment_mode == AT_COST, np.sqrt
        )
        if cfg.purchase_policy != BASELINE:  # baseline pays nothing
            payment[bought] = paid
        block = np.zeros((5, T + 1))  # every total starts at zero
        block[:, 1:] = loss, delta * np.sqrt(costs), delta, estimate, payment
        sums = block.cumsum(axis=1)
        state = (sums[3, :-1], sums[4, :-1]) if self._tracked else (0.0, 0.0)
        price, q, _ = self._posted(delta, 0, T, *state, uniforms)
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
        spend before them: one value each, or one value at ``start`` where
        no price reads them (naive reads only its own spend, which it adds
        up from there)."""
        cfg = self.config
        n, costs = stop - start, self.instance.costs[start:stop]
        if cfg.purchase_policy == BASELINE:
            return np.ones(n), np.ones(n), np.ones(n, dtype=bool)
        if cfg.purchase_policy == NAIVE:
            # every round is bought at price 1 while the spend before it
            # leaves room for 1; the spend only grows, so the rounds that
            # leave room are a prefix
            open_payment = costs if cfg.payment_mode == AT_COST else np.ones(n)
            spent = np.cumsum(np.concatenate(([spend], open_payment[:-1])))
            price = np.zeros(n)
            price[: np.count_nonzero(spent + 1.0 <= cfg.budget)] = 1.0
            accepted = price >= costs
            return price, accepted.astype(np.float64), accepted
        if self._adaptive:
            scale = self.adapted_scales(np.arange(start, stop), estimate_total, spend)
        else:
            scale = self.price_scale
        price, q, accepted = priced_rounds(delta, costs, uniforms[start:stop], scale)
        if cfg.hard_stop:  # past the stop a flat price 0 buys the free arrivals
            stopped, free = spend >= cfg.budget, costs <= 0.0
            price, q = np.where(stopped, 0.0, price), np.where(stopped, free, q)
            accepted = np.where(stopped, free, accepted)
        return price, q, accepted

    def _walk(self, upper, exact, uniforms, bought=None, learn=None) -> tuple[np.ndarray, ...]:
        """Decide the rounds in order, visiting only those the run could
        buy. Returns the columns price, q and accepted; price and q hold
        only at purchases.

        A list is ``_posted`` at the rounds' ``upper`` deltas and the
        current state: the next CHUNK rounds of a tracked run, every round
        of any other. A list whose prices read no mid-run state (every list
        of an untracked run, and a flat-price list) is decided whole:
        ``learn(rounds, q)``, if given, learns from its rounds in order at
        weights 1 / q and returns which of them have a positive delta at the
        hypothesis they posted. A flat-price list is bought whole and pays
        nothing that a later price reads; a priced one buys those of its
        rounds whose delta is positive, as it listed them at that delta.
        Any other round on a list is visited: decided again at its
        ``exact`` delta, taken at the visit, and the current state, and
        ``bought(round, delta, q)`` is called at each purchase right after
        its visit, with no visit between: a feature run keeps only the
        margin of the round it visited last. STALE refusals, or a purchase
        that crosses the hard stop, start the next list."""
        cfg = self.config
        T, tracked = self.horizon, self._tracked
        at_cost = cfg.payment_mode == AT_COST
        costs, u = self.instance.costs, uniforms
        if tracked:  # a visit reads one value at a time, faster from lists
            costs, u = costs.tolist(), u.tolist()
        price, q = np.zeros((2, T))
        accepted = np.zeros(T, dtype=bool)
        t = 0
        while t < T:
            stop = min(T, t + CHUNK) if tracked else T
            listed = self._posted(upper[t:stop], t, stop, self.estimate_total, self.spend, uniforms)
            flat = cfg.purchase_policy != PRICED or (cfg.hard_stop and self.spend >= cfg.budget)
            if flat or not tracked:
                price[t:stop], q[t:stop], accepted[t:stop] = listed
                if learn is not None:
                    rounds = np.flatnonzero(listed[2]) + t
                    valued = learn(rounds, q[rounds])
                    if not flat:
                        accepted[rounds] = valued
                t = stop
                continue
            stale = 0
            for j in (np.flatnonzero(listed[2]) + t).tolist():
                d = exact(j)
                if d <= 0.0:  # worthless: never bought, at every scale
                    continue
                scale = self.adapted_scale(j) if self._adaptive else self.price_scale
                p_j, q_j, accepted_j = priced_round(d, costs[j], u[j], scale)
                if not accepted_j:
                    stale += 1
                    if stale == STALE:
                        stop = j + 1
                        break
                    continue
                payment, term = ledger_entry(d, costs[j], p_j, q_j, at_cost, math.sqrt)
                self.spend += payment  # what the prices of later rounds read
                self.estimate_total += term
                price[j], q[j], accepted[j] = p_j, q_j, True
                if bought is not None:
                    bought(j, d, q_j)
                if cfg.hard_stop and self.spend >= cfg.budget:
                    stop = j + 1
                    break
            t = stop
        return price, q, accepted

    def _visit(self, uniforms: np.ndarray) -> tuple[np.ndarray, ...]:
        """Play a feature run on the walk. A visited round takes its margin
        at the current hypothesis, and a purchase whose hinge is active
        feeds. A list decided whole is learned in verified blocks of BLOCK
        listed rounds: each round's hinge is guessed from its margin at the
        block's first hypothesis, one ``_feed_rows`` of the guessed feeds
        gives the hypothesis every round posted, and the rounds before the
        first whose margin there belies its guess are kept. The first round
        is guessed at the hypothesis it posts, so every block keeps one."""
        instance, learner = self.instance, self.learner
        features, margin = instance.features, _margin
        labels, norms = instance.labels, instance.feature_norms
        if self._tracked:  # a visit reads one value at a time, faster from lists
            labels, norms = labels.tolist(), norms.tolist()
        # room for a feed in every round; the pages of rows never written stay untouched
        fed, posted = [], np.empty((self.horizon + 1, instance.space.dim))
        posted[0] = w = learner.coords
        m = 0.0  # the margin of the round visited last, which a purchase follows

        def exact(j):  # the delta at the current hypothesis
            nonlocal m
            m = labels[j] * margin(features[j], w)
            return norms[j] if m < 1.0 else 0.0

        def bought(j, d, q):  # the gradient -label * x; an inactive hinge feeds zero
            nonlocal w
            if m < 1.0:
                learner._feed(features[j], 1.0 / q, d, negate=labels[j] > 0)
                w = learner.coords
                fed.append(j)
                posted[len(fed)] = w

        def learn(rounds, q):  # the rounds of a list decided whole
            nonlocal w
            active = np.zeros(len(rounds), dtype=bool)
            i = 0
            while i < len(rounds):
                block = rounds[i : i + BLOCK]
                X, y = features[block], instance.labels[block]
                guess = _margins(X, y, w) < 1.0  # each hinge at the block's first hypothesis
                feeds = guess.nonzero()[0]
                kept = len(block)
                if len(feeds):
                    before = feeds.searchsorted(np.arange(kept))  # guessed feeds before each round

                    def verified(H):  # the feeds before the first wrong guess
                        nonlocal kept
                        right = (_margins(X, y, H[before]) < 1.0) == guess
                        first_wrong = int(right.argmin())
                        kept = kept if right[first_wrong] else first_wrong
                        return int(before[kept]) if kept < len(block) else len(feeds)

                    gradients = X[feeds] * -y[feeds, None]  # -label * x
                    iw = 1.0 / q[i : i + kept][feeds]
                    deltas = instance.feature_norms[block[feeds]]
                    H = learner._feed_rows(gradients, iw, deltas, verified)
                    posted[len(fed) + 1 : len(fed) + len(H)] = H[1:]
                    fed.extend(block[feeds[: len(H) - 1]].tolist())
                w = learner.coords
                active[i : i + kept] = guess[:kept]
                i += kept
            return active

        price, q, accepted = self._walk(instance.feature_norms, exact, uniforms, bought, learn)
        return price, q, accepted, np.array(fed, dtype=np.int64), posted[: len(fed) + 1]

    def _decide_then_learn(self, uniforms: np.ndarray) -> tuple[np.ndarray, ...]:
        """Play a vertex run in two passes, bit for bit the rounds one by
        one: decide every round without the learner, then replay the
        learner over the purchases in one block. Its delta is exact at
        every hypothesis, so the walk decides at that delta: an untracked
        run's one list is its decision."""
        instance = self.instance
        outcomes = instance.outcomes
        dlt = (outcomes >= 0).astype(np.float64)  # at every hypothesis
        price, q, accepted = self._walk(dlt, dlt.item, uniforms)

        # a bought filler round has a zero gradient and is not fed
        fed = np.flatnonzero(accepted & (outcomes >= 0))
        gradients = np.zeros((len(fed), instance.space.dim))
        gradients[np.arange(len(fed)), outcomes[fed]] = -1.0
        posted = self.learner._feed_rows(gradients, 1.0 / q[fed], dlt[fed])
        return price, q, accepted, fed, posted

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


def ledger_entry(delta, cost, price, q, at_cost: bool, sqrt):
    """A bought round's payment (its cost at cost, its price posted) and
    its term of the adaptive estimate: delta * sqrt(cost) weighted by 1 / q.
    The tracked walk takes it of one purchase at a time with ``math.sqrt``
    and the settle pass of arrays of purchases with ``np.sqrt``: the same
    arithmetic, so the same bits."""
    return (cost if at_cost else price), delta * sqrt(cost) / q


def _margin(x: np.ndarray, w: np.ndarray) -> float:
    """<x, w> as the row sum of x * w, the sum ``ProblemInstance.at_posted`` takes."""
    return float(np.add.reduce(x * w))


def _margins(X: np.ndarray, y: np.ndarray, H: np.ndarray) -> np.ndarray:
    """The margin y * <x, h> of each row of ``X`` at its row of ``H``, or
    at ``H`` itself if it is one hypothesis: the row sums that
    ``ProblemInstance.at_posted`` takes, bit for bit ``_margin`` of each
    row."""
    return y * np.add.reduce(X * H, axis=1)
