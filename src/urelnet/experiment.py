"""Synthetic end-to-end comparison: full model vs. determinate-only ablation.

Trains the full network (undetermined pairs in every batch, nonzero
undetermined loss weights) and the ablation that ignores undetermined
relationships entirely (zero weights, determinate-only batches) on the
same seeded synthetic data, then compares relation-detection recall@50
against each other and against a uniform-random scorer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Sequence

import numpy as np

from .dataset import Dataset
from .evaluation import EvalConfig, UniformRandomScorer, evaluate_scenes
from .model import ModelConfig
from .synthetic import SyntheticConfig, generate_synthetic
from .training import RunConfig, Schedule, run_evaluation, run_training

EXPERIMENT_SCHEDULE = Schedule(base_lr=1e-3, decay_rate=0.5, decay_interval=1500)


def experiment_model_config(dataset: Dataset) -> ModelConfig:
    """Desk-scale dimensions; same topology as the full-size defaults."""
    return ModelConfig(
        predicate_count=dataset.vocabulary.predicate_count,
        object_count=dataset.vocabulary.object_count,
        visual_dim=dataset.features.dim,
        embedding_dim=dataset.embeddings.dim,
        transform_dim=48,
        dc_hidden_dim=24,
        rel_hidden_dim=48,
    )


def ablation_model_config(dataset: Dataset) -> ModelConfig:
    """Determinate-only ablation: undetermined relationships carry no loss."""
    return replace(
        experiment_model_config(dataset),
        rel_undetermined_weight=0.0,
        dc_loss_weight=0.0,
    )


@dataclass
class SeedOutcome:
    seed: int
    full_recall: float
    ablation_recall: float
    random_recall: float


@dataclass
class ExperimentResult:
    outcomes: List[SeedOutcome]
    n: int

    @property
    def mean_full(self) -> float:
        return float(np.mean([o.full_recall for o in self.outcomes]))

    @property
    def mean_ablation(self) -> float:
        return float(np.mean([o.ablation_recall for o in self.outcomes]))

    @property
    def mean_random(self) -> float:
        return float(np.mean([o.random_recall for o in self.outcomes]))

    @property
    def mean_improvement(self) -> float:
        return self.mean_full - self.mean_ablation

    def summary_lines(self) -> List[str]:
        out = []
        for o in self.outcomes:
            out.append(
                f"seed {o.seed}: full {100 * o.full_recall:.2f}  "
                f"ablation {100 * o.ablation_recall:.2f}  "
                f"random {100 * o.random_recall:.2f}"
            )
        out.append(
            f"mean relation R{self.n}: full {100 * self.mean_full:.2f}, "
            f"ablation {100 * self.mean_ablation:.2f}, "
            f"random {100 * self.mean_random:.2f} "
            f"(improvement {100 * self.mean_improvement:+.2f} points)"
        )
        return out


def _relation_recall(dataset: Dataset, model, n: int) -> float:
    report = run_evaluation(dataset, model, tasks=("relation",), n_values=(n,))
    return report["tasks"]["relation"]["recall"][str(n)]


def run_seed(
    dataset: Dataset, seed: int, epochs: int = 10, n: int = 50
) -> SeedOutcome:
    full_config = RunConfig(
        model=experiment_model_config(dataset),
        undetermined_ratio=3.0,
        schedule=EXPERIMENT_SCHEDULE,
        epochs=epochs,
        seed=seed,
    )
    ablation_config = replace(
        full_config, model=ablation_model_config(dataset), undetermined_ratio=0.0
    )
    full = run_training(dataset, full_config)
    ablation = run_training(dataset, ablation_config)
    test_scenes = dataset.split("test")
    random_recalls = evaluate_scenes(
        test_scenes,
        UniformRandomScorer(dataset.vocabulary.predicate_count, seed=seed),
        EvalConfig(task="relation", n_values=(n,)),
        dataset.vocabulary.predicate_count,
    )
    return SeedOutcome(
        seed=seed,
        full_recall=_relation_recall(dataset, full.model, n),
        ablation_recall=_relation_recall(dataset, ablation.model, n),
        random_recall=random_recalls[str(n)],
    )


def relation_gap_experiment(
    seeds: Sequence[int] = (0, 1, 2),
    synthetic_config: SyntheticConfig | None = None,
    epochs: int = 10,
    n: int = 50,
) -> ExperimentResult:
    if synthetic_config is None:
        synthetic_config = SyntheticConfig()
    dataset = generate_synthetic(synthetic_config)
    outcomes = [run_seed(dataset, seed, epochs=epochs, n=n) for seed in seeds]
    return ExperimentResult(outcomes=outcomes, n=n)
