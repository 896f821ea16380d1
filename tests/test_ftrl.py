import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from procure_learn.core import L2_BALL, InvalidConfigError, dual_norm, l2_ball, project_coords, simplex
from procure_learn.environment import (
    CoinSpec,
    LinearTaskSpec,
    UniformCost,
)
from procure_learn.ftrl import FixedRate, FtrlLearner, TheoryRate
from procure_learn.mechanism import (
    AdaptiveScale,
    FixedScale,
    Mechanism,
    MechanismConfig,
)

from oracles import hinge_row, posted_hypotheses


def test_init_minimizes_regularizer():
    np.testing.assert_array_equal(FtrlLearner(l2_ball(2, 1.0), FixedRate(0.1)).coords, [0.0, 0.0])
    np.testing.assert_allclose(FtrlLearner(simplex(2), FixedRate(0.1)).coords, [0.5, 0.5])
    np.testing.assert_allclose(FtrlLearner(simplex(4), FixedRate(0.1)).coords, [0.25] * 4)


def test_init_validation():
    for bad in (0.0, -0.1, math.inf, math.nan):
        with pytest.raises(InvalidConfigError):
            FixedRate(bad)
    # a fresh learner posts at its fixed rate, or at sqrt(2 * reg_bound):
    # the theory rate of an empty bound sum
    assert FtrlLearner(l2_ball(2, 1.0), FixedRate(0.1)).learning_rate == 0.1
    assert FtrlLearner(l2_ball(2, 10.0), TheoryRate()).learning_rate == 10.0
    assert FtrlLearner(simplex(2), TheoryRate()).learning_rate == math.sqrt(2 * math.log(2))


def test_coords_unchanged_by_later_feed():
    # the mechanism keeps the array it posted while a purchase feeds the learner
    for space in (l2_ball(3, 1.0), simplex(3)):
        learner = FtrlLearner(space, FixedRate(0.5))
        w = learner.coords
        before = w.copy()
        learner.feed_gradient(np.array([1.0, 0.0, 0.0]))
        np.testing.assert_array_equal(w, before)
        assert not np.array_equal(learner.coords, before)


def test_single_feed_closed_forms():
    ball = FtrlLearner(l2_ball(2, 10.0), FixedRate(0.5))
    ball.feed_gradient(np.array([1.0, 0.0]))
    np.testing.assert_allclose(ball.coords, [-0.5, 0.0])

    mw = FtrlLearner(simplex(2), FixedRate(1.0))
    mw.feed_gradient(np.array([1.0, 0.0]))
    expected = np.array([math.exp(-1.0), 1.0]) / (math.exp(-1.0) + 1.0)
    np.testing.assert_allclose(mw.coords, expected, rtol=1e-15)


def test_ball_feed_posts_projected_gradient_sum_bitwise(rng):
    # each feed posts the projection of the negated, rate-scaled gradient
    # sum; the feeds' sizes vary so that the sum lands inside and outside
    # the ball
    for dim, radius, rate in ((2, 1.0, 0.5), (24, 3.0, 0.45), (32, 3.0, 0.08)):
        learner = FtrlLearner(l2_ball(dim, radius), FixedRate(rate))
        inside = outside = 0
        for _ in range(300):
            g = rng.normal(size=dim) * rng.uniform(0.0, 2.0) / math.sqrt(dim)
            if rng.random() < 0.3:
                g = -learner.grad_sum * rng.uniform(0.5, 1.0)  # back towards the centre
            learner.feed_gradient(g, inverse_weight=1.0 / float(rng.uniform(0.2, 1.0)))
            z = learner.grad_sum * (-rate)
            expected = project_coords(learner.space, z)
            assert learner.coords.tobytes() == expected.tobytes()
            if np.linalg.norm(z) <= radius:
                inside += 1
            else:
                outside += 1
        assert inside > 0 and outside > 0


def test_feed_cancellation():
    learner = FtrlLearner(l2_ball(2, 1.0), FixedRate(0.5))
    learner.feed_gradient(np.array([1.0, 0.0]))
    learner.feed_gradient(np.array([-1.0, 0.0]))
    np.testing.assert_allclose(learner.coords, [0.0, 0.0], atol=1e-15)


def test_inverse_weight_scales_accumulator():
    learner = FtrlLearner(l2_ball(2, 1.0), FixedRate(0.5))
    learner.feed_gradient(np.array([1.0, 0.0]), inverse_weight=4.0)
    np.testing.assert_allclose(learner.grad_sum, [4.0, 0.0])
    assert learner.bound_sum == pytest.approx(16.0)  # (delta * inverse weight)^2


@pytest.mark.parametrize("space", [l2_ball(4, 1.0), simplex(4)], ids=["euclidean", "neg-entropy"])
def test_zero_gradient_feed_changes_nothing(space):
    # the mechanism skips feeding a purchase whose gradient is exactly zero;
    # that is exact because grad_sum starts at +0.0, never holds -0.0, and
    # adding +-0.0 to it changes no bit. (A fresh ball learner posts +0.0
    # where a recompute gives -0.0, but there every margin is 0, the hinge
    # is active and the first purchase's gradient is never zero.)
    # A zero feed leaves the bound sum, so the theory rate, as it is.
    for rate in (FixedRate(0.4), TheoryRate()):
        learner = FtrlLearner(space, rate)
        learner.feed_gradient(np.array([0.3, 0.0, -0.2, 0.0]), inverse_weight=2.0)
        before = (learner.grad_sum.tobytes(), learner.bound_sum, learner.coords.tobytes())
        for zero in (np.zeros(4), np.array([-0.0, 0.0, -0.0, -0.0])):
            learner.feed_gradient(zero, inverse_weight=3.0, delta=0.0)
            learner.feed_gradient(0.0 * np.array([1.0, -1.0, 0.5, -0.5]), inverse_weight=4.0, delta=0.0)
            assert (learner.grad_sum.tobytes(), learner.bound_sum, learner.coords.tobytes()) == before


def test_feed_rejects_bad_gradients():
    learner = FtrlLearner(l2_ball(2, 1.0), FixedRate(0.5))
    with pytest.raises(ValueError):
        learner.feed_gradient(np.array([np.nan, 0.0]))
    with pytest.raises(ValueError):
        learner.feed_gradient(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        learner.feed_gradient(np.array([1.0, 0.0]), inverse_weight=0.5)
    for bad in ({"inverse_weight": math.nan}, {"delta": math.nan}, {"delta": -0.5}):
        with pytest.raises(ValueError):
            learner.feed_gradient(np.array([1.0, 0.0]), **bad)
    # nothing refused was fed
    assert learner.bound_sum == 0.0 and not learner.grad_sum.any()


def test_regret_bound_values():
    fresh = FtrlLearner(l2_ball(2, 10.0), FixedRate(0.1))  # reg_bound 50
    assert fresh.regret_bound() == pytest.approx(500.0)
    assert FtrlLearner(l2_ball(2, 10.0), TheoryRate()).regret_bound() == pytest.approx(5.0)

    # T unit-delta feeds: reg_bound / rate + 2 * rate * T
    T, rate = 40, 0.1
    ball = FtrlLearner(l2_ball(2, 10.0), FixedRate(rate))
    mw = FtrlLearner(simplex(2), FixedRate(rate))
    for i in range(T):
        g = np.array([1.0, 0.0]) if i % 2 == 0 else np.array([0.0, 1.0])
        ball.feed_gradient(g)
        mw.feed_gradient(g)
    assert ball.regret_bound() == pytest.approx(50.0 / rate + 2 * rate * T)
    assert mw.regret_bound() == pytest.approx(math.log(2) / rate + 2 * rate * T)

    # the theory rate: reg_bound / eta_T + 2 * sum of eta_{t-1} * (delta_t / q_t)^2
    for space in (l2_ball(2, 10.0), simplex(2)):
        learner = FtrlLearner(space, TheoryRate())
        rated, S = 0.0, 0.0
        for i in range(T):
            eta = math.sqrt(2 * space.reg_bound / max(S, 1.0))
            w = 1.0 / (0.25 + 0.375 * (i % 3))  # the inverse weight of a unit-delta feed
            rated += eta * w * w
            S += w * w
            learner.feed_gradient(np.array([1.0, 0.0]) if i % 2 else np.array([0.0, 1.0]), w)
        eta_T = math.sqrt(2 * space.reg_bound / S)
        assert learner.learning_rate == pytest.approx(eta_T)
        assert learner.regret_bound() == pytest.approx(space.reg_bound / eta_T + 2 * rated)


@pytest.mark.parametrize("space", [l2_ball(5, 3.0), simplex(5)], ids=["euclidean", "neg-entropy"])
def test_theory_rate_block_matches_feeds_one_at_a_time(space, rng):
    # one _feed_rows block of feeds, cut short by keep, ends bit for bit
    # where the same feeds one at a time do: sums, rate, rated sum and
    # hypothesis, each posted hypothesis at the rate the bound sum before
    # it gives
    gradients = rng.normal(size=(40, 5)) / 3.0
    weights = 1.0 / rng.uniform(0.05, 1.0, size=40)
    deltas = np.array([dual_norm(space.norm_kind, g) for g in gradients])
    block, single = FtrlLearner(space, TheoryRate()), FtrlLearner(space, TheoryRate())
    single.feed_gradient(gradients[0], weights[0], deltas[0])
    block.feed_gradient(gradients[0], weights[0], deltas[0])
    posted = block._feed_rows(gradients[1:], weights[1:], deltas[1:], keep=lambda H: 30)
    for i in range(1, 31):
        assert posted[i - 1].tobytes() == single.coords.tobytes()
        assert single.learning_rate == math.sqrt(2 * space.reg_bound / max(single.bound_sum, 1.0))
        single.feed_gradient(gradients[i], weights[i], deltas[i])
    assert posted[30].tobytes() == single.coords.tobytes()
    state = lambda l: (l.grad_sum.tobytes(), l.bound_sum, l.rated_sum, l.learning_rate, l.coords.tobytes())
    assert state(block) == state(single)


def test_simplex_iterates_remain_distributions(rng):
    learner = FtrlLearner(simplex(5), FixedRate(0.6))
    for _ in range(500):
        g = rng.normal(size=5)
        g /= max(1.0, np.max(np.abs(g)))
        learner.feed_gradient(g, inverse_weight=1.0 / float(rng.uniform(0.05, 1.0)))
        assert learner.coords.min() >= 0.0
        assert float(learner.coords.sum()) == pytest.approx(1.0, abs=1e-9)


def test_softmax_overflow_guard():
    learner = FtrlLearner(simplex(2), FixedRate(50.0))
    for _ in range(100):
        learner.feed_gradient(np.array([1.0, 0.0]), inverse_weight=100.0)
    assert np.all(np.isfinite(learner.coords))
    np.testing.assert_allclose(learner.coords, [0.0, 1.0], atol=1e-12)


def test_determinism_bitwise(rng):
    feeds = [(rng.normal(size=4) / 2.0, float(rng.uniform(0.1, 1.0))) for _ in range(80)]
    traces = []
    for _ in range(2):
        learner = FtrlLearner(simplex(4), FixedRate(0.3))
        out = []
        for g, q in feeds:
            learner.feed_gradient(g, inverse_weight=1.0 / q)
            out.append(learner.coords.copy())
        traces.append(np.vstack(out))
    assert np.array_equal(traces[0], traces[1])


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["coin", "padded-coin", "linear"]),
    policy=st.sampled_from(["priced", "naive"]),
    scale=st.one_of(st.just(AdaptiveScale()), st.floats(0.0, 20.0).map(FixedScale)),
    payment_mode=st.sampled_from(["posted-price", "at-cost"]),
    hard_stop=st.booleans(),
    budget=st.floats(2.0, 150.0),
    rate=st.one_of(st.just(TheoryRate()), st.floats(0.01, 1.0).map(FixedRate)),
    T=st.integers(1, 300),
    seed=st.integers(0, 2**16),
)
# the smallest subnormal scale: scale * sqrt(cost) underflowed to 0 and the
# scalar survival divided by it
@example(
    kind="linear", policy="priced", scale=FixedScale(5e-324), payment_mode="posted-price",
    hard_stop=False, budget=2.0, rate=FixedRate(1.0), T=2, seed=0,
)
def test_learner_bound_holds_on_the_importance_weighted_sequence(
    kind, policy, scale, payment_mode, hard_stop, budget, rate, T, seed
):
    # the learning half of the reduction: on the estimates g_t / q_t it was
    # fed, the learner's regret against any fixed u stays within its own bound
    if kind == "coin":
        instance = CoinSpec(T, 0.2).build(seed)
    elif kind == "padded-coin":
        instance = CoinSpec(T, 0.2, coin_fraction=0.5).build(seed)
    else:
        instance = LinearTaskSpec(
            T=T, cost_model=UniformCost(), dim=3, clusters=2, separation=0.5, T_test=0
        ).build(seed)
    config = MechanismConfig(
        budget=budget,
        payment_mode=payment_mode,
        purchase_policy=policy,
        price_scale=scale,
        learning_rate=rate,
        hard_stop=hard_stop,
    )
    mech = Mechanism(config, instance).run(np.random.default_rng(seed + 1))
    posted, q = posted_hypotheses(mech), mech.transcript.q
    space = instance.space
    linear_sum, estimate_sum = 0.0, np.zeros(space.dim)
    for t in np.flatnonzero(mech.transcript.accepted).tolist():
        if instance.outcomes is not None:
            if instance.outcomes[t] < 0:  # filler points have no gradient
                continue
            gradient = np.zeros(space.dim)
            gradient[instance.outcomes[t]] = -1.0
        else:
            _, _, coefficient = hinge_row(instance, posted[t], t)
            gradient = coefficient * instance.features[t]
        estimate = gradient / q[t]
        linear_sum += float(estimate @ posted[t])
        estimate_sum += estimate
    if space.kind == L2_BALL:
        best = -space.radius * float(np.linalg.norm(estimate_sum))
    else:
        best = float(estimate_sum.min())
    bound = mech.learner.regret_bound()
    assert linear_sum - best <= bound + 1e-9 * max(1.0, bound)
