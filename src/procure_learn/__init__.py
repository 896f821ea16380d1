"""Online learning with actively purchased data.

Importance-weighted follow-the-regularized-leader learners, a randomized
posted-price law with budget control, budgeted purchasing mechanisms with
online-to-batch prediction, and a seeded experiment harness.
"""

import os

# Set before the first submodule imports numpy, whose OpenBLAS reads it once
# at load. An idle OpenBLAS worker thread spin-waits 2**28 polls before it
# sleeps, after the library loads and after each threaded call; the small
# matrix-vector products here leave it spinning for most of a short run, and
# a serial run then uses a second core for nothing. 4 (2**4 polls) is
# OpenBLAS's minimum. The thread count is unchanged, a value the user set
# wins, and a numpy built on another BLAS ignores the variable.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from .core import (
    Hypothesis,
    HypothesisSpace,
    InvalidConfigError,
    dual_norm,
    l2_ball,
    simplex,
)
from .environment import (
    CoinSpec,
    FormatError,
    IdxSpec,
    LinearTaskSpec,
    ProblemInstance,
    TwoPointCost,
    UniformCost,
)
from .ftrl import FtrlLearner
from .mechanism import (
    AdaptiveScale,
    FixedRate,
    FixedScale,
    Mechanism,
    MechanismConfig,
    MechanismStateError,
    PriorKnowledge,
    TheoryRate,
    Transcript,
    choose_price_scale,
    theory_learning_rate,
)
from .metrics import OfflineSolution, SequenceStats, offline_best, risk
from .pricing import (
    expected_payment,
    price_cdf,
    reserve,
    sample_price,
    survival,
)
from .runner import (
    ExperimentConfig,
    TrialResult,
    load_config,
    parse_config,
    run_sweep,
    run_trial,
    run_trials,
)

__version__ = "0.1.0"
