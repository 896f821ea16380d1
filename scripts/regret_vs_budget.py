#!/usr/bin/env python3
"""Regret of the at-cost mechanism on biased-coin streams across budgets.

The coin bias is tied to the budget (epsilon = 1 / sqrt(B)), which makes the
expected regret scale like T / sqrt(B): quadrupling the budget should halve
the regret. Prints one row per budget and the adjacent-pair ratios.
"""

import argparse
import math

import numpy as np

from procure_learn import CoinSpec, PriorKnowledge
from procure_learn.mechanism import MechanismConfig, TheoryRate
from procure_learn.runner import ExperimentConfig, mean_se, run_trials


def run_budget(budget, T, trials, seed):
    mechanism = MechanismConfig(
        budget=float(budget),
        payment_mode="at-cost",
        price_scale=PriorKnowledge(avg_value_cost=1.0),
        learning_rate=TheoryRate(),
    )
    config = ExperimentConfig(CoinSpec(T, 1.0 / math.sqrt(budget)), mechanism, trials, seed)
    results = run_trials(config)
    mean, se = mean_se(np.array([r.regret for r in results]))
    return mean, se, float(np.mean([r.spend for r in results]))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budgets", type=float, nargs="+", default=[100, 400, 1600])
    parser.add_argument("--rounds", type=int, default=20_000)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    print(f"T={args.rounds}, {args.trials} trials per budget, epsilon = 1/sqrt(B)")
    print(f"{'budget':>8} {'regret':>10} {'se':>8} {'spend':>9} {'T/sqrt(B)':>10}")
    means = []
    for budget in args.budgets:
        mean, se, spend = run_budget(budget, args.rounds, args.trials, args.seed)
        means.append(mean)
        print(f"{budget:8.0f} {mean:10.1f} {se:8.1f} {spend:9.1f} {args.rounds / math.sqrt(budget):10.1f}")
    for small, large, a, b in zip(args.budgets, args.budgets[1:], means, means[1:]):
        print(f"regret({small:.0f}) / regret({large:.0f}) = {a / b:.2f}")


if __name__ == "__main__":
    main()
