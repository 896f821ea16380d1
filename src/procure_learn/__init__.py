"""Online learning with actively purchased data.

Importance-weighted follow-the-regularized-leader learners, a randomized
posted-price law with budget control, budgeted purchasing mechanisms with
online-to-batch prediction, and a seeded experiment harness.
"""

from .core import (
    Hypothesis,
    HypothesisSpace,
    InvalidConfigError,
    LossFamily,
    dual_norm,
    l2_ball,
    make_family,
    project,
    simplex,
)
from .environment import (
    ConstantCost,
    FormatError,
    ProblemInstance,
    TwoPointCost,
    UniformCost,
    coin_sequence,
    digit_task,
    linear_task,
    load_digit_dataset,
    padded_coin_sequence,
)
from .ftrl import FtrlLearner
from .mechanism import (
    AdaptiveScale,
    FixedRate,
    FixedScale,
    KnowledgeScale,
    Mechanism,
    MechanismConfig,
    MechanismStateError,
    PriorKnowledge,
    TheoryRate,
    Transcript,
    choose_price_scale,
    theory_learning_rate,
)
from .metrics import (
    OfflineSolution,
    SequenceStats,
    mean_round_risk,
    offline_best,
    regret,
    risk,
    sequence_stats,
)
from .pricing import (
    expected_payment,
    price_cdf,
    reserve,
    sample_price,
    sample_prices,
    survival,
)
from .runner import (
    CoinSpec,
    ExperimentConfig,
    IdxSpec,
    LinearTaskSpec,
    PaddedCoinSpec,
    TrialResult,
    build_instance,
    load_config,
    parse_config,
    run_sweep,
    run_trial,
    run_trials,
)

__version__ = "0.1.0"
