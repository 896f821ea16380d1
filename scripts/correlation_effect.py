#!/usr/bin/env python3
"""Effect of cost-data correlation on the adaptive posted-price mechanism.

Two cost models with the same marginal (high cost with probability 0.2, free
otherwise): one independent of the data, one concentrating the high costs on
the boundary-hugging clusters. The naive buyer is insensitive to the switch;
the priced mechanism degrades because the data it needs most is exactly the
data that costs money.
"""

import argparse
import math

import numpy as np

from procure_learn import TwoPointCost, linear_task
from procure_learn.mechanism import AdaptiveScale, FixedRate, Mechanism, MechanismConfig
from procure_learn.metrics import risk
from procure_learn.runner import trial_streams


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=1000)
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--replays", type=int, default=4, help="mechanism replays averaged per instance")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--eta", type=float, default=0.45)
    args = parser.parse_args()

    task = dict(dim=24, clusters=4, separation=0.8, spread=0.35, noise=0.14)
    targets = (0, 4)
    cells = {(p, m): [] for p in ("priced", "naive") for m in ("correlated", "independent")}
    gammas = {"correlated": [], "independent": []}

    for trial in range(args.trials):
        instance_ss, _, _ = trial_streams(args.seed, trial)
        replay_seeds = np.random.SeedSequence(entropy=args.seed, spawn_key=(trial, 1)).spawn(args.replays)
        for tag, model in (
            ("correlated", TwoPointCost(0.2, 1.0, targets)),
            ("independent", TwoPointCost(0.2, 1.0)),
        ):
            instance = linear_task(
                task["dim"], task["clusters"], task["separation"],
                args.rounds, 4000, model, instance_ss,
                spread=task["spread"], noise=task["noise"],
            )
            budget = 0.25 * float(instance.costs.sum())
            for policy in ("priced", "naive"):
                config = MechanismConfig(
                    budget=budget,
                    purchase_policy=policy,
                    price_scale=AdaptiveScale(),
                    learning_rate=FixedRate(args.eta),
                )
                seeds = replay_seeds if policy == "priced" else replay_seeds[:1]
                risks = []
                for ms in seeds:
                    mech = Mechanism(config, instance)
                    mech.run(np.random.default_rng(ms))
                    risks.append(risk(instance, mech.finalize(), "zero-one"))
                    if policy == "priced":
                        gammas[tag].append(mech.realized_avg_value_cost)
                cells[(policy, tag)].append(float(np.mean(risks)))

    ratio = np.mean(gammas["correlated"]) / np.mean(gammas["independent"])
    print(f"realized value-cost statistic: correlated/independent = {ratio:.2f}")
    for policy in ("priced", "naive"):
        diff = np.array(cells[(policy, "correlated")]) - np.array(cells[(policy, "independent")])
        se = diff.std(ddof=1) / math.sqrt(args.trials)
        print(
            f"{policy:>7}: risk {np.mean(cells[(policy, 'correlated')]):.4f} (correlated) vs "
            f"{np.mean(cells[(policy, 'independent')]):.4f} (independent), "
            f"shift {diff.mean():+.5f} = {diff.mean() / se:+.1f} SE"
        )


if __name__ == "__main__":
    main()
