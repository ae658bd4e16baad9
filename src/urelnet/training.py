"""Training and evaluation runs: pools, batches, optimization, reports.

A run builds the training pair pool once, as row numbers into the dataset's
and the extractor's feature tables (only spatial rows are its own), then
repeats sample -> gather the batch's rows -> forward -> joint loss ->
backward -> Adam.
The four loss terms are logged every step; with a validation split present,
the parameters with the best validation recall are kept. Runs are fully
reproducible from their seeds.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .dataset import Dataset
from .errors import DivergenceError, InsufficientDataError, UndefinedMetricError, UsageError
from .evaluation import TASKS, EvalConfig, ModelScorer, evaluate_configs, evaluate_scenes
from .features import FeatureExtractor, FeatureMatrix, build_triplet_statistics
from .model import MODAL_LINGUISTIC_EXTERNAL, ModelConfig, build_model, required_streams, wire_model
from .nn import AdamState, adam_step
from .pairs import BatchSpec, PairSampler, generate_for_scene, gt_pairs_for_scene


@dataclass(frozen=True)
class Schedule:
    base_lr: float
    decay_rate: float
    decay_interval: int


SCHEDULE_PRESETS = {
    "vrd": Schedule(base_lr=3e-4, decay_rate=0.5, decay_interval=4000),
    "vg": Schedule(base_lr=3e-4, decay_rate=0.7, decay_interval=35000),
}

# Validation recall is recall@50 on the validation split.
VALIDATION_N = 50


@dataclass(frozen=True)
class RunConfig:
    """Everything a training run needs beyond the dataset itself."""

    model: ModelConfig
    task: str = "relation"
    batch_size: int = 32
    undetermined_ratio: float = 3.0
    schedule: Schedule = SCHEDULE_PRESETS["vrd"]
    epochs: int = 10
    steps: Optional[int] = None
    seed: int = 0
    validation_interval: Optional[int] = None
    per_scene_undetermined_cap: Optional[int] = None

    def __post_init__(self):
        if self.task not in TASKS:
            raise UsageError(f"task must be one of {TASKS}, got {self.task!r}")
        # Batch and schedule values are checked here too, before any work.
        positive = dict(
            epochs=self.epochs, steps=self.steps, validation_interval=self.validation_interval,
            batch_size=self.batch_size, decay_interval=self.schedule.decay_interval,
        )
        for name, value in positive.items():
            if value is not None and value <= 0:
                raise UsageError(f"{name} must be positive, got {value}")
        if self.seed < 0:
            raise UsageError(f"seed must be >= 0, got {self.seed}")
        cap = self.per_scene_undetermined_cap
        if cap is not None and cap < 0:
            raise UsageError(f"per_scene_undetermined_cap must be >= 0, got {cap}")
        # Written so that a NaN, which fails every comparison, is rejected.
        ratio, lr, decay = self.undetermined_ratio, self.schedule.base_lr, self.schedule.decay_rate
        if not 0 <= ratio < math.inf:
            raise UsageError(f"undetermined_ratio must be finite and >= 0, got {ratio!r}")
        if not 0 < lr < math.inf:
            raise UsageError(f"base_lr must be positive and finite, got {lr!r}")
        if not 0 < decay <= 1:
            raise UsageError(f"decay_rate must be in (0, 1], got {decay!r}")


def make_run_config(model: ModelConfig, **settings) -> RunConfig:
    """Apply the task presets: the predicate task trains on ground-truth
    pairs only, with zero undetermined weights and no undetermined quota."""
    if settings.get("task") == "predicate":
        model = replace(model, rel_undetermined_weight=0.0, dc_loss_weight=0.0)
        settings.setdefault("undetermined_ratio", 0.0)
    return RunConfig(model=model, **settings)


def build_extractor(dataset: Dataset) -> FeatureExtractor:
    stats = build_triplet_statistics(dataset.split("train"), dataset.vocabulary)
    return FeatureExtractor(dataset.features, stats, dataset.embeddings, dataset.vocabulary)


@dataclass
class TrainingPool:
    """Features and labels for every training pair. The features index the
    shared tables, so a batch's ``features.rows`` is its only copy."""

    features: FeatureMatrix
    labels: np.ndarray
    determinate: np.ndarray
    determinate_indices: np.ndarray
    undetermined_indices: np.ndarray


def build_training_pool(
    dataset: Dataset, extractor: FeatureExtractor, run_config: RunConfig
) -> TrainingPool:
    m = dataset.vocabulary.predicate_count
    streams = required_streams(run_config.model)
    cap_rng = np.random.default_rng(run_config.seed)
    matrices, labels, masks = [], [], []
    for scene in dataset.split("train"):
        if run_config.task == "predicate":
            pairs = gt_pairs_for_scene(scene, m, annotated_only=True)
        else:
            pairs = generate_for_scene(scene, m)
            cap = run_config.per_scene_undetermined_cap
            if cap is not None:
                determinate = pairs.determinate
                undetermined = np.flatnonzero(~determinate)
                if len(undetermined) > cap:
                    keep = cap_rng.choice(len(undetermined), size=cap, replace=False)
                    undetermined = undetermined[np.sort(keep)]
                pairs = pairs.take(np.concatenate([np.flatnonzero(determinate), undetermined]))
        if not pairs:
            continue
        matrices.append(extractor.table_matrix(pairs, scene, streams))
        labels.append(pairs.labels)
        masks.append(pairs.determinate)
    if not matrices:
        raise InsufficientDataError("no training pairs could be generated")
    features = FeatureMatrix.concatenate(matrices)
    determinate = np.concatenate(masks)
    return TrainingPool(
        features=features,
        labels=np.concatenate(labels),
        determinate=determinate,
        determinate_indices=np.flatnonzero(determinate),
        undetermined_indices=np.flatnonzero(~determinate),
    )


@dataclass
class TrainingResult:
    model: object
    run_config: RunConfig
    log_records: List[dict]
    total_steps: int
    best_validation_recall: Optional[float] = None


def _steps_per_epoch(pool: TrainingPool, spec: BatchSpec) -> int:
    if spec.determinate_quota > 0:
        return max(1, math.ceil(len(pool.determinate_indices) / spec.determinate_quota))
    return max(1, math.ceil(len(pool.undetermined_indices) / spec.undetermined_quota))


def run_training(dataset: Dataset, run_config: RunConfig) -> TrainingResult:
    extractor = build_extractor(dataset)
    pool = build_training_pool(dataset, extractor, run_config)
    spec = BatchSpec(
        batch_size=run_config.batch_size,
        undetermined_ratio=run_config.undetermined_ratio,
        rng_seed=run_config.seed,
    )
    sampler = PairSampler(pool.determinate_indices, pool.undetermined_indices, spec)
    model = build_model(run_config.model, np.random.default_rng(run_config.seed))
    params = model.parameters()
    adam = AdamState.create(params, **asdict(run_config.schedule))
    per_epoch = _steps_per_epoch(pool, spec)
    total_steps = run_config.steps if run_config.steps is not None else run_config.epochs * per_epoch
    val_interval = run_config.validation_interval or per_epoch
    val_scenes = dataset.split("validation")

    records: List[dict] = []
    best_recall: Optional[float] = None
    best_params: Optional[np.ndarray] = None

    def validate() -> float:
        scorer = ModelScorer(model, extractor)
        recalls = evaluate_scenes(
            val_scenes,
            scorer,
            EvalConfig(task=run_config.task, n_values=(VALIDATION_N,)),
            dataset.vocabulary.predicate_count,
        )
        return recalls[str(VALIDATION_N)]

    step = 0
    try:
        # Arithmetic that overflows (huge loss weights or rates) has diverged:
        # numpy raises instead of printing a warning and going on.
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for step in range(total_steps):
                idx = sampler.sample_batch()
                lr = adam.learning_rate()
                loss, terms, grads = model.loss_and_gradients(
                    pool.features.rows(idx), pool.labels[idx], pool.determinate[idx]
                )
                if not math.isfinite(loss):
                    raise DivergenceError(f"non-finite loss {loss!r} at step {step}")
                adam_step(params, grads, adam)
                record = {"step": step, "learning_rate": lr, "loss": loss}
                record.update(terms)
                records.append(record)
                if val_scenes and (step + 1) % val_interval == 0:
                    recall = validate()
                    records.append({"step": step, "validation_recall": recall})
                    if best_recall is None or recall > best_recall:
                        best_recall = recall
                        best_params = params.flat.copy()
    except FloatingPointError as exc:
        raise DivergenceError(f"floating-point {exc} at step {step}") from None
    if best_params is not None:
        params.flat[...] = best_params
    # The trained parameters on a fresh, untouched gradient arena, as
    # ``load_model`` builds them: the written gradients are not kept.
    return TrainingResult(
        model=wire_model(run_config.model, params),
        run_config=run_config,
        log_records=records,
        total_steps=total_steps,
        best_validation_recall=best_recall,
    )


def write_log(records: Sequence[dict], path) -> None:
    """JSONL, sorted keys; byte-identical across identical runs."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def check_model_compatibility(config: ModelConfig, dataset: Dataset) -> None:
    """Model/dataset dimension mismatches surface as a load error."""
    from .errors import CheckpointError

    problems = []
    if config.predicate_count != dataset.vocabulary.predicate_count:
        problems.append(
            f"predicate_count {config.predicate_count} != {dataset.vocabulary.predicate_count}"
        )
    if config.object_count != dataset.vocabulary.object_count:
        problems.append(
            f"object_count {config.object_count} != {dataset.vocabulary.object_count}"
        )
    if config.visual_dim != dataset.features.dim:
        problems.append(f"visual_dim {config.visual_dim} != {dataset.features.dim}")
    if MODAL_LINGUISTIC_EXTERNAL in config.enabled_modals:
        if dataset.embeddings is None:
            problems.append("model uses external linguistic features but the dataset has no embeddings")
        elif config.embedding_dim != dataset.embeddings.dim:
            problems.append(
                f"embedding_dim {config.embedding_dim} != {dataset.embeddings.dim}"
            )
    if problems:
        raise CheckpointError("model does not fit dataset: " + "; ".join(problems))


def run_evaluation(
    dataset: Dataset,
    model,
    tasks: Sequence[str] = (EvalConfig.task,),
    n_values: Tuple[int, ...] = EvalConfig.n_values,
    k: int = EvalConfig.k,
    zero_shot: bool = False,
    macro_average: bool = EvalConfig.macro_average,
    split: str = "test",
) -> dict:
    """Metrics report over the chosen split; stable keys for CI assertions.

    Every config is built before any scene is scored, and each scene is
    scored once per candidate source. A zero-shot block with no unseen
    triplet types degrades to an error entry without affecting the other
    blocks.
    """
    configs = {}
    for task in tasks:
        config = EvalConfig(task=task, n_values=tuple(n_values), k=k, macro_average=macro_average)
        configs[task, "recall"] = config
        if zero_shot:
            configs[task, "zero_shot"] = replace(config, zero_shot_only=True)
    check_model_compatibility(model.config, dataset)
    scenes = dataset.split(split)
    if not scenes:
        raise UndefinedMetricError(f"no scenes in split {split!r}")
    extractor = build_extractor(dataset)
    tallies = evaluate_configs(
        scenes,
        ModelScorer(model, extractor),
        list(configs.values()),
        dataset.vocabulary.predicate_count,
        training_types=extractor.stats.triplet_types(),
    )
    report = {"schema_version": 1, "split": split, "k": k, "tasks": {}}
    for (task, block), tally in zip(configs, tallies):
        entry = report["tasks"].setdefault(task, {})
        try:
            entry[block] = tally.recalls()
        except UndefinedMetricError as exc:
            if block == "recall":
                raise
            entry[block] = {"error": exc.category, "message": str(exc)}
    return report
