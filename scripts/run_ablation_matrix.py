#!/usr/bin/env python3
"""Feature-subset ablation matrix on synthetic data.

Trains every enabled-modal subset under both fusion modes (transforming vs
concatenating the raw features) and reports predicate- and relation-
detection recall@50 per variant.
"""

import argparse
from dataclasses import replace

from urelnet.experiment import EXPERIMENT_SCHEDULE, experiment_model_config
from urelnet.model import ALL_MODALS
from urelnet.synthetic import SyntheticConfig, generate_synthetic
from urelnet.training import RunConfig, run_evaluation, run_training

SUBSETS = [
    ("V", ("visual",)),
    ("S", ("spatial",)),
    ("L", ("linguistic_external", "linguistic_internal")),
    ("V+S", ("visual", "spatial")),
    ("V+L", ("visual", "linguistic_external", "linguistic_internal")),
    ("L+S", ("linguistic_external", "linguistic_internal", "spatial")),
    ("V+S+Lin", ("visual", "spatial", "linguistic_internal")),
    ("V+S+Lex", ("visual", "spatial", "linguistic_external")),
    ("V+S+L", ALL_MODALS),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--train-scenes", type=int, default=150)
    parser.add_argument("--test-scenes", type=int, default=50)
    parser.add_argument("--epochs", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--data-seed", type=int, default=7)
    parser.add_argument("--transform-dim", type=int, default=48)
    args = parser.parse_args()

    dataset = generate_synthetic(
        SyntheticConfig(
            train_scenes=args.train_scenes, test_scenes=args.test_scenes, seed=args.data_seed
        )
    )
    print(f"{'variant':<10} {'fusion':<14} {'pred R50':>9} {'rel R50':>9}")
    for label, modals in SUBSETS:
        for fusion in ("transforming", "concatenating"):
            model_config = replace(
                experiment_model_config(dataset),
                transform_dim=args.transform_dim,
                enabled_modals=tuple(modals),
                fusion_mode=fusion,
            )
            run_config = RunConfig(
                model=model_config, epochs=args.epochs, seed=args.seed, schedule=EXPERIMENT_SCHEDULE
            )
            result = run_training(dataset, run_config)
            report = run_evaluation(
                dataset, result.model, tasks=("predicate", "relation"), n_values=(50,)
            )
            pred = 100.0 * report["tasks"]["predicate"]["recall"]["50"]
            rel = 100.0 * report["tasks"]["relation"]["recall"]["50"]
            print(f"{label:<10} {fusion:<14} {pred:>9.2f} {rel:>9.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
