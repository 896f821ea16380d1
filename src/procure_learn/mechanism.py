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
an upper bound of their delta. Once no later price can read the state,
one list decides every round left whole, and it is always the run's last:
spend never falls, and a run that is not tracked reads no state. On any
other list the walk visits each round: it takes the exact delta and
decides the round again with ``priced_round`` at the current state.

A priced run with an adaptive scale or a hard stop is tracked: its later
prices read the spend and the estimate. The walk pays at each of its
purchases and lists CHUNK rounds at a time; STALE refusals, or a purchase
that crosses the hard stop, start a new list. A list stays complete after
a purchase: an adaptive scale only rises at a purchase, and a round
accepted at a scale is accepted at every lower one, as every correctly
rounded step of the price law is monotone (tests pin both). Past a hard
stop the price is a flat 0, so the rest is decided whole there. No other
run reads the state mid-run (naive reads only its own spend, a prefix sum
known up front, and a fixed or from-knowledge scale is one number), so it
is decided whole from round 0.

A vertex run (an outcome task: a coin stream, with or without filler) decides
first and then learns. Its delta is 1 on every outcome and 0 on filler
points at every hypothesis, so the bound is exact: an untracked run's list
is its decision, and a tracked one walks. The learner then replays the
purchases in one block: a cumulative sum adds the rows in round order, as
one round at a time does. A feature run (a hinge loss on labelled rows)
learns as it walks. Its delta is the row's norm where the hinge is active
and 0 elsewhere, so it lists at the stored norms. A visited round takes
its margin at the current hypothesis and feeds if bought with an active
hinge. The rounds decided whole are learned after the walk in verified
blocks of BLOCK listed rounds, as lazy FTRL's iterates follow from the fed
gradients alone: the hinge of each round is guessed from its margin at
the block's first hypothesis, one ``_feed_rows`` of the guessed feeds
gives the hypothesis each round posted, each margin is taken again there,
and the rounds before the first wrong guess are kept. The next block
starts at that round and guesses the rounds the cut block held from their
margins there, at hypotheses that hold the block's earlier feeds. A
flat-price list buys each of its rounds, a priced one those whose hinge
is active (their listed delta is then exact). A block's first round is
guessed at the hypothesis it posts, so every block keeps at least one.

Either way one settle pass (``_settle``) replays the hypotheses the run
posted: the loss and delta of every round at its hypothesis, and their sum.
Every margin, one row at a time or in a block, comes from the hinge's one
kernel (``environment._margins``) with the same bits, so a round's loss is
the one its visit or its block decided on. The pass then totals the run.
Pricing every round again for the transcript waits until ``transcript``
is first read: a sweep reads none, and ``run`` only trial 0's.

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
from .environment import ProblemInstance, _margin, _margins
from .ftrl import FixedRate, FtrlLearner, RatePolicy, TheoryRate
from .pricing import priced_round, priced_rounds

POSTED_PRICE = "posted-price"
AT_COST = "at-cost"
PAYMENT_MODES = (POSTED_PRICE, AT_COST)

PRICED = "priced"
NAIVE = "naive"
BASELINE = "baseline"
POLICIES = (PRICED, NAIVE, BASELINE)

SCALE_CAP = 1e6
# The smallest budget a config may set: the burn rate's floor of the budget
# left, 1e-6 of it, is then a normal float, and the rate, at most T over
# that floor, stays finite for every horizon an array can hold.
MIN_BUDGET = 1e-100

# A tracked run lists the rounds it could buy CHUNK rounds at a time, and
# lists them again after STALE visits that the state refused: a list costs
# about as much as that many visits. A feature run learns a list decided
# whole BLOCK listed rounds at a time; a guess gone wrong wastes the feeds
# of the rest of its block. The settle pass replays the posted hypotheses in
# blocks of rows capped so that a (rows x dim) block stays a few hundred
# kilobytes.
CHUNK = 1024
STALE = 8
BLOCK = 128
WINDOW_ELEMENTS = 1 << 15


class MechanismStateError(RuntimeError):
    """Run-protocol misuse: finalizing early or re-running a finished run."""


# ---------------------------------------------------------------------------
# Scale selection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PriorKnowledge:
    """The two sequence averages, known in advance, that set the
    from-knowledge price scale (``choose_price_scale``): ``avg_value_cost``,
    the mean of delta * sqrt(cost), and ``avg_value``, the mean delta. Each
    lies in [0, 1]. Only posted-price reads ``avg_value``, whose default is
    its bound 1.

    Every round has delta * sqrt(cost) <= delta, so knowledge with
    ``avg_value_cost`` above ``avg_value`` is refused: no sequence has it.
    """

    avg_value_cost: float
    avg_value: float = 1.0

    def __post_init__(self):
        for name in ("avg_value_cost", "avg_value"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:  # NaN fails both
                raise InvalidConfigError(f"{name} must lie in [0, 1], got {v}")
        if self.avg_value_cost > self.avg_value:
            raise InvalidConfigError(
                f"avg_value_cost {self.avg_value_cost} exceeds avg_value {self.avg_value}; "
                "every sequence has avg_value_cost <= avg_value"
            )


def choose_price_scale(
    knowledge: PriorKnowledge, horizon: int, budget: float, payment_mode: str = POSTED_PRICE
) -> float:
    """Smallest price scale whose expected spend provably fits the budget.

    At-cost: (horizon / budget) * avg_value_cost. Posted-price:
    (horizon / budget) * (2 * avg_value - avg_value_cost). A larger scale
    buys less, so an estimate that errs upward at cost, or toward a larger
    avg_value and a smaller avg_value_cost under posted-price (1 and 0 when
    unknown), keeps the promise. A scale of 0 would buy every arrival at
    price 1, which no budget promise covers, so knowledge that gives a
    scale <= 0 is refused.
    """
    if not budget > 0:
        raise InvalidConfigError("budget must be positive")
    if payment_mode not in PAYMENT_MODES:
        raise InvalidConfigError(f"unknown payment mode {payment_mode!r}")
    ratio = horizon / budget
    k = knowledge
    if payment_mode == AT_COST:
        used, scale = "avg_value_cost", ratio * k.avg_value_cost
    else:
        used, scale = "avg_value and avg_value_cost", ratio * (2.0 * k.avg_value - k.avg_value_cost)
    if not scale > 0.0:
        raise InvalidConfigError(
            f"prior knowledge {used} gives price scale {scale}; from-knowledge "
            "scales must be positive (a zero scale buys every arrival at price 1)"
        )
    return scale


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
    """Track the burn rate (``burn_rate``): the scale of round t is

        min(SCALE_CAP, e_t * (T - t) / max(B - spend_t, 1e-6 * B)),
        e_t = min(1, max(0, E_t / max(t, 1))),

    where E_t and spend_t are the estimate total and the spend of the
    rounds before t. E_t sums the estimate term of ``ledger_entry`` over the
    purchases, importance-weighted by 1/q, so e_t estimates the mean of
    that statistic, clipped to its range [0, 1]. It starts at zero (buy
    every arrival with delta > 0 at the maximum price; worthless ones are
    never bought). The floor of the budget left and the cap shut spending
    off at exhaustion rather than dividing by zero.
    """


ScalePolicy = Union[FixedScale, PriorKnowledge, AdaptiveScale]


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
        if self.budget < MIN_BUDGET:
            raise InvalidConfigError(
                f"budget {self.budget} is below the smallest budget {MIN_BUDGET:g}"
            )
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

        if isinstance(config.price_scale, FixedScale):
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
        self.learner = FtrlLearner(instance.space, config.learning_rate)

        self.spend = 0.0  # set when the run settles
        self.estimate_total = 0.0  # importance-weighted purchase estimate
        self.rounds_done = 0
        self.hypothesis_sum = np.zeros(instance.space.dim)
        self._settled = False
        self._transcript: Optional[Transcript] = None
        self._unpriced: Optional[tuple] = None  # the columns the transcript is priced from

    # -- execution ------------------------------------------------------------

    def run(self, rng: np.random.Generator) -> "Mechanism":
        """Execute all rounds, consuming one uniform draw per round. Either
        engine returns the columns price, q and accepted, the rounds fed,
        and the hypotheses posted before the first feed and after each, one
        row each; the run then settles from them."""
        if self._settled:
            raise MechanismStateError("mechanism already ran its full sequence")
        uniforms = rng.random(self.horizon)
        play = self._decide_then_learn if self.instance.outcomes is not None else self._visit
        self._settle(*play(uniforms), uniforms)
        return self

    def _settle(self, price, q, accepted, fed, posted, uniforms) -> None:
        """Total a played run, and keep what its transcript is priced from.

        Round t posted the row of ``posted`` after the feeds of the rounds
        before it. In blocks of at most WINDOW_ELEMENTS values of those
        rows, the instance gives each round's loss and delta, and
        ``_row_sum`` adds the rows to the hypothesis sum in round order, as
        one round at a time does. A cumulative sum then adds up the loss,
        delta * sqrt(cost) and delta of every round, and another the payment
        and estimate term of each bought round (``ledger_entry``), in round
        order too. A rejected round would add 0.0 to the estimate and the
        spend, which leaves them as they are (a sum from +0.0 never holds
        -0.0), so the spend and the estimate equal bit for bit the running
        ones that ``_walk`` kept for the rounds to read. ``price`` and ``q``
        need to hold only at the accepted rounds."""
        cfg, instance = self.config, self.instance
        T, costs, dim = self.horizon, instance.costs, instance.space.dim
        loss, delta = np.empty((2, T))
        total = np.zeros(dim)  # the hypothesis sum starts at zero
        row = np.zeros(T + 1, dtype=np.intp)  # the row of posted each round posted:
        row[fed + 1] = 1  # one further after each feed
        row = np.cumsum(row[:T])
        step = max(1, WINDOW_ELEMENTS // dim)
        for a in range(0, T, step):
            b = min(T, a + step)
            rows = np.empty((b - a + 1, dim))
            rows[0] = total
            H = posted.take(row[a:b], axis=0, out=rows[1:], mode="clip")
            loss[a:b], delta[a:b] = instance.at_posted(H, a, b)
            total = _row_sum(rows)
        self.hypothesis_sum = total.copy()  # not a view that keeps a window alive
        bought = np.flatnonzero(accepted)
        ledger = np.zeros((2, len(bought) + 1))  # every total starts at zero
        paid, ledger[1, 1:] = ledger_entry(
            delta[bought], costs[bought], price[bought], q[bought], cfg.payment_mode == AT_COST,
            np.sqrt, np.maximum,
        )
        if cfg.purchase_policy != BASELINE:  # baseline pays nothing
            ledger[0, 1:] = paid
        rounds = np.zeros((3, T + 1))
        rounds[:, 1:] = loss, delta * np.sqrt(costs), delta
        totals = rounds.cumsum(axis=1)[:, -1].tolist()
        self.loss_total, self.value_cost_total, self.value_total = totals
        self.spend, self.estimate_total = ledger.cumsum(axis=1)[:, -1].tolist()
        self.purchases = len(bought)
        self.rounds_done = T
        self._settled = True
        self._unpriced = (delta, accepted, loss, bought, ledger[:, 1:], uniforms)

    @property
    def transcript(self) -> Optional[Transcript]:
        """The per-round log of a finished run, None before it. Every round
        is priced again from the run's uniforms when it is first read, at
        the spend and the estimate before it where the run is tracked; a
        later read returns the same object."""
        if self._unpriced is not None:
            delta, accepted, loss, bought, ledger, uniforms = self._unpriced
            T = self.horizon
            sums = np.zeros((2, T + 1))  # the spend and the estimate, from zero
            sums[:, 1 + bought] = ledger
            payment = sums[0, 1:].copy()
            np.cumsum(sums, axis=1, out=sums)
            state = (sums[1, :-1], sums[0, :-1]) if self._tracked else (0.0, 0.0)
            price, q, _ = self._posted(delta, 0, T, *state, uniforms)
            costs = self.instance.costs.copy()
            self._transcript = Transcript(
                delta, costs, price, accepted, q, payment, loss, sums[0, 1:].copy()
            )
            self._unpriced = None
        return self._transcript

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
            scale = burn_rate(
                np.arange(start, stop), self.horizon, cfg.budget, estimate_total, spend,
                np.minimum, np.maximum,
            )
        else:
            scale = self.price_scale
        price, q, accepted = priced_rounds(delta, costs, uniforms[start:stop], scale)
        if cfg.hard_stop:  # past the stop a flat price 0 buys the free arrivals
            stopped, free = spend >= cfg.budget, costs <= 0.0
            price, q = np.where(stopped, 0.0, price), np.where(stopped, free, q)
            accepted = np.where(stopped, free, accepted)
        return price, q, accepted

    def _walk(self, upper, exact, uniforms, bought=None) -> tuple:
        """Decide the rounds in order, visiting only those the run could
        buy. Returns the columns price, q and accepted (price and q hold
        only at purchases), and the round where the rounds decided whole
        start, T if none are.

        A list is ``_posted`` at the rounds' ``upper`` deltas and the
        current state. Once no later price can read it (from round 0 of an
        untracked run, from the hard stop of a tracked one), one list
        decides every round left whole; it is the run's last, as spend never
        falls and an untracked run reads no state. A flat-price list buys its
        rounds whole; of a priced one the caller keeps those whose delta is
        positive at the hypothesis they posted. Any other list holds
        the next CHUNK rounds of a tracked run, and each round on it is
        visited: decided again at its ``exact`` delta, taken at the visit,
        and the current state, and ``bought(round, delta, q)`` is called at
        each purchase. STALE refusals, or a purchase that crosses the hard
        stop, start the next list."""
        cfg = self.config
        T, tracked, adaptive = self.horizon, self._tracked, self._adaptive
        budget, hard_stop, scale = cfg.budget, cfg.hard_stop, self.price_scale
        at_cost, sqrt = cfg.payment_mode == AT_COST, math.sqrt
        spend = estimate_total = 0.0  # the running totals that later prices read
        costs, u = self.instance.costs, uniforms
        if tracked:  # a visit reads one value at a time, faster from lists
            costs, u = costs.tolist(), u.tolist()
        price, q = np.zeros((2, T))
        accepted = np.zeros(T, dtype=bool)
        t = 0
        while t < T:
            if not tracked or (hard_stop and spend >= budget):
                listed = self._posted(upper[t:], t, T, estimate_total, spend, uniforms)
                price[t:], q[t:], accepted[t:] = listed
                break
            stop = min(T, t + CHUNK)
            listed = self._posted(upper[t:stop], t, stop, estimate_total, spend, uniforms)
            stale = 0
            for j in (np.flatnonzero(listed[2]) + t).tolist():
                d = exact(j)
                if d <= 0.0:  # worthless: never bought, at every scale
                    continue
                if adaptive:
                    scale = burn_rate(j, T, budget, estimate_total, spend, min, max)
                cost = costs[j]
                p_j, q_j, accepted_j = priced_round(d, cost, u[j], scale)
                if not accepted_j:
                    stale += 1
                    if stale == STALE:
                        stop = j + 1
                        break
                    continue
                payment, term = ledger_entry(d, cost, p_j, q_j, at_cost, sqrt, max)
                spend += payment  # what the prices of later rounds read
                estimate_total += term
                price[j], q[j], accepted[j] = p_j, q_j, True
                if bought is not None:
                    bought(j, d, q_j)
                if hard_stop and spend >= budget:
                    stop = j + 1
                    break
            t = stop
        return price, q, accepted, t

    def _visit(self, uniforms: np.ndarray) -> tuple[np.ndarray, ...]:
        """Play a feature run on the walk. A visited round takes its margin
        at the current hypothesis, and a purchase (its hinge is then active)
        feeds. The rounds decided whole, always the run's last, are learned
        after the walk in verified blocks of BLOCK listed rounds: each
        round's hinge is guessed from its margin at the block's first
        hypothesis, one ``_feed_rows`` of the guessed feeds gives the
        hypothesis every round posted, and the rounds before the first
        whose margin there belies its guess are kept. The margins taken
        there of that round and the rest of the block are the next block's
        guesses for them. The first round is guessed at the hypothesis it
        posts, so every block keeps one."""
        instance, learner = self.instance, self.learner
        features, margin = instance.features, _margin
        labels, norms = instance.labels, instance.feature_norms
        if self._tracked:  # a visit reads one value at a time, faster from lists
            labels, norms = labels.tolist(), norms.tolist()
        # room for a feed in every round; the pages of rows never written stay untouched
        fed, posted = [], np.empty((self.horizon + 1, instance.space.dim))
        posted[0] = w = learner.coords

        def exact(j):  # the delta at the current hypothesis
            return norms[j] if labels[j] * margin(features[j], w) < 1.0 else 0.0

        feed, feed_round = learner._feed, fed.append

        def bought(j, d, q):  # the gradient -label * x; its delta is positive, so its hinge active
            nonlocal w
            feed(features[j], 1.0 / q, d, labels[j] > 0)
            w = learner.coords
            feed_round(j)
            posted[len(fed)] = w

        price, q, accepted, whole = self._walk(instance.feature_norms, exact, uniforms, bought)
        rounds = np.flatnonzero(accepted[whole:]) + whole
        active = np.zeros(len(rounds), dtype=bool)
        w = learner.coords
        i, ahead = 0, np.zeros(0, dtype=bool)  # the guesses past the last cut
        while i < len(rounds):
            block = rounds[i : i + BLOCK]
            X, y = features.take(block, axis=0), instance.labels[block]  # faster than [block]
            carried = len(ahead)
            guess = np.concatenate((ahead, _margins(X[carried:], y[carried:], w) < 1.0))
            feeds = guess.nonzero()[0]
            kept, ahead = len(block), ahead[:0]
            if len(feeds) or carried:  # a carried guess was not taken at w, so it is checked
                before = feeds.searchsorted(np.arange(kept))  # guessed feeds before each round

                def verified(H):  # the feeds before the first wrong guess
                    nonlocal kept, ahead
                    seen = _margins(X, y, H.take(before, axis=0)) < 1.0
                    right = seen == guess
                    first_wrong = int(right.argmin())
                    if not right[first_wrong]:
                        kept, ahead = first_wrong, seen[first_wrong:]
                    return int(before[kept]) if kept < len(block) else len(feeds)

                gradients = X.take(feeds, axis=0) * -y[feeds, None]  # -label * x
                iw = 1.0 / q[block[feeds]]
                deltas = instance.feature_norms[block[feeds]]
                H = learner._feed_rows(gradients, iw, deltas, verified)
                posted[len(fed) + 1 : len(fed) + len(H)] = H[1:]
                fed.extend(block[feeds[: len(H) - 1]].tolist())
            w = learner.coords
            active[i : i + kept] = guess[:kept]
            i += kept
        if self.config.purchase_policy == PRICED and not self._tracked:  # a flat price buys all
            accepted[rounds] = active
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
        price, q, accepted, _ = self._walk(dlt, dlt.item, uniforms)

        # a bought filler round has a zero gradient and is not fed
        fed = np.flatnonzero(accepted & (outcomes >= 0))
        gradients = np.zeros((len(fed), instance.space.dim))
        gradients[np.arange(len(fed)), outcomes[fed]] = -1.0
        posted = self.learner._feed_rows(gradients, 1.0 / q[fed], dlt[fed])
        return price, q, accepted, fed, posted

    def finalize(self) -> Hypothesis:
        """Mean of the posted hypotheses, the run's single prediction."""
        if not self._settled:
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


def burn_rate(t, horizon, budget, estimate_total, spend, minimum, maximum):
    """The adaptive scale of round ``t`` of ``horizon`` (``AdaptiveScale``)
    from the estimate total and the spend before it. The tracked walk takes
    it of one round at a time with ``min`` and ``max``, and ``_posted`` of
    arrays of rounds with ``np.minimum`` and ``np.maximum``: the same
    arithmetic, so the same bits. Before round 0 the estimate total is
    +0.0 on every path, so dividing it by ``max(t, 1)`` gives the zero
    estimate there."""
    estimate = minimum(1.0, maximum(0.0, estimate_total / maximum(t, 1)))
    return minimum(SCALE_CAP, estimate * (horizon - t) / maximum(budget - spend, 1e-6 * budget))


def ledger_entry(delta, cost, price, q, at_cost: bool, sqrt, maximum):
    """A bought round's payment (its cost at cost, its price posted) and
    its term of the adaptive estimate, weighted by 1 / q: delta * sqrt(cost)
    at cost, and delta * max(sqrt(cost), 1/2) under posted-price, where the
    price is paid whatever the cost. A round's scaled expected posted
    payment is at most 2 * delta, so the floored statistic is never below a
    quarter of it, and free purchases raise the scale too.
    sqrt(max(cost, 1/4)) has the bits of max(sqrt(cost), 1/2): a correctly
    rounded sqrt is monotone and exact at 1/4. The tracked walk takes it of
    one purchase at a time with ``math.sqrt`` and ``max``, and the settle
    pass of arrays of purchases with ``np.sqrt`` and ``np.maximum``: the
    same arithmetic, so the same bits."""
    reach = cost if at_cost else maximum(cost, 0.25)
    return (cost if at_cost else price), delta * sqrt(reach) / q


def _row_sum(rows: np.ndarray) -> np.ndarray:
    """The sum of the rows of a C-contiguous block, added one row at a time
    in order, as a cumulative sum adds them. ``np.add.reduce`` down the rows
    does this too for two columns or more, and about three times faster at
    32 columns, but it pays per row: below 8 columns the cumulative sum is
    the faster. A single column it would reduce as one axis, summing
    pairwise, with other bits."""
    if rows.shape[1] >= 8:
        return np.add.reduce(rows, axis=0)
    return np.cumsum(rows, axis=0)[-1]
