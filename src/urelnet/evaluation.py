"""Prediction ranking, ground-truth matching, and recall@N.

The three tasks differ in where candidate pairs come from and in what a
hit requires: the predicate task pairs ground-truth objects and checks
categories and predicate only; the phrase task checks IoU of the union
boxes; the relation task checks both individual box IoUs. Evaluation
thresholds are inclusive (>= 0.5), unlike the strict generator threshold.
A ranking is a ``PredictionSet`` of columns gathered from the candidate
pairs' arrays. A scene's ground truth is a ``GroundTruth`` of columns,
built once per scene, and matching runs the IoU tests only on the
(prediction, ground truth) entries whose triplet types agree.

Phrase and relation rank the same detection pairs, and the zero-shot filter
only drops ground truth, so an evaluation scores each scene once per
candidate source and k and matches every requested config against that one
ranking, cut at the largest N that reads it.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Sequence, Set, Tuple

import numpy as np

from .errors import DimensionError, DivergenceError, UndefinedMetricError, UsageError
from .features import FeatureExtractor
from .model import required_streams
from .pairs import ScenePairs, generate_for_scene, gt_pairs_for_scene
from .scene import AnnotatedTriplet, BoundingBox, SceneRecord, box_array, iou_pairs, union_rows

TASKS = ("predicate", "phrase", "relation")

# Where each task's candidate pairs come from; tasks sharing a source rank
# the same pairs.
CANDIDATE_SOURCE = {"predicate": "ground_truth", "phrase": "detections", "relation": "detections"}

EVAL_IOU_THRESHOLD = 0.5


@dataclass(frozen=True)
class EvalConfig:
    task: str = "relation"
    n_values: Tuple[int, ...] = (50, 100)
    k: int = 1
    zero_shot_only: bool = False
    macro_average: bool = False

    def __post_init__(self):
        if self.task not in TASKS:
            raise UsageError(f"task must be one of {TASKS}, got {self.task!r}")
        if self.k < 1:
            raise UsageError(f"k must be >= 1, got {self.k}")
        if not self.n_values:
            raise UsageError("at least one N value is required")
        if any(n <= 0 for n in self.n_values):
            raise UsageError(f"N values must be positive, got {self.n_values}")


@dataclass(frozen=True)
class PredictedTriplet:
    """One ranked output triplet; pair_index preserves the enumeration order
    for deterministic tie-breaking. A row of ``PredictionSet.triplets``,
    which only perfbench and tests read; the commands read the columns."""

    subject_box: BoundingBox
    subject_category: int
    predicate: int
    object_box: BoundingBox
    object_category: int
    score: float
    pair_index: int


@dataclass(frozen=True, eq=False)
class PredictionSet:
    """Ranked triplets for one image, highest score first; ties broken by
    pair enumeration index then predicate index. One column per
    ``PredictedTriplet`` field, in its order; ``triplets`` are the rows,
    read by perfbench and tests only."""

    image_id: str
    subject_boxes: np.ndarray  # (R, 4) float64
    subject_categories: np.ndarray  # (R,) intp
    predicates: np.ndarray  # (R,) intp
    object_boxes: np.ndarray  # (R, 4) float64
    object_categories: np.ndarray  # (R,) intp
    scores: np.ndarray  # (R,) float64
    pair_indices: np.ndarray  # (R,) intp

    def top(self, n: int) -> "PredictionSet":
        """The first ``n`` ranked triplets."""
        return PredictionSet(self.image_id, *(getattr(self, f.name)[:n] for f in fields(self)[1:]))

    @property
    def triplets(self) -> List[PredictedTriplet]:
        columns = (getattr(self, f.name).tolist() for f in fields(self)[1:])
        return [
            PredictedTriplet(BoundingBox(*s), sc, p, BoundingBox(*o), oc, score, index)
            for s, sc, p, o, oc, score, index in zip(*columns)
        ]


# Scorer protocol: callable(pairs, scene) -> (len(pairs), M) relation scores.
Scorer = Callable[[ScenePairs, SceneRecord], np.ndarray]


class ModelScorer:
    """Scores pairs with a trained model: assembles the features the model
    consumes, runs forward, and multiplies in the detector confidences."""

    def __init__(self, model, extractor: FeatureExtractor):
        self.model = model
        self.extractor = extractor
        self.streams = required_streams(model.config)

    def __call__(self, pairs: ScenePairs, scene: SceneRecord) -> np.ndarray:
        features = self.extractor.matrix(pairs, scene, streams=self.streams)
        subjects = pairs.confidences[pairs.subject_indices]
        objects = pairs.confidences[pairs.object_indices]
        return self.model.relation_scores(features, subjects, objects)


class UniformRandomScorer:
    """Baseline: uniform random scores, deterministic per (seed, image id)."""

    def __init__(self, predicate_count: int, seed: int = 0):
        self.predicate_count = predicate_count
        self.seed = seed

    def __call__(self, pairs: ScenePairs, scene: SceneRecord) -> np.ndarray:
        image_seed = zlib.crc32(scene.image_id.encode("utf-8"))
        rng = np.random.default_rng((self.seed, image_seed))
        return rng.uniform(size=(len(pairs), self.predicate_count))


def candidate_pairs(scene: SceneRecord, task: str, predicate_count: int) -> ScenePairs:
    """Pairs to score: ground-truth object pairs (confidence 1) for the
    predicate task, detector pairs otherwise."""
    source = CANDIDATE_SOURCE.get(task)
    if source is None:
        raise UsageError(f"task must be one of {TASKS}, got {task!r}")
    if source == "ground_truth":
        return gt_pairs_for_scene(scene, predicate_count, annotated_only=False)
    return generate_for_scene(scene, predicate_count)


def predict_scene(
    scene: SceneRecord,
    scorer: Scorer,
    task: str = "relation",
    k: int = 1,
    *,
    predicate_count: int,
    _limit: int | None = None,
) -> PredictionSet:
    """Rank the top-k predicates of every candidate pair in one image.

    ``_limit`` keeps only the first that many ranked triplets; evaluation
    passes the largest N it reads.
    """
    if k < 1:
        raise UsageError(f"k must be >= 1, got {k}")
    pairs = candidate_pairs(scene, task, predicate_count)
    if pairs:
        diverged = DivergenceError(f"non-finite relation scores for image {scene.image_id!r}")
        # Scores that overflow have diverged: numpy raises instead of printing
        # a warning and going on, as in a training step.
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                scores = np.asarray(scorer(pairs, scene), dtype=np.float64)
        except FloatingPointError:
            raise diverged from None
        if scores.ndim != 2 or scores.shape[0] != len(pairs):
            raise DimensionError(f"scorer returned shape {scores.shape} for {len(pairs)} pairs")
        if not np.isfinite(scores).all():
            raise diverged
    else:
        scores = np.zeros((0, predicate_count))
    # Per pair, the k best predicates (ties to the lower index); then every
    # kept entry by score, ties by pair index, then predicate.
    top = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    top_scores = np.take_along_axis(scores, top, axis=1).ravel()
    predicates = top.ravel()
    pair_indices = np.repeat(np.arange(len(pairs)), top.shape[1])
    order = np.lexsort((predicates, pair_indices, -top_scores))[:_limit]
    rows = pair_indices[order]
    s, o = pairs.subject_indices[rows], pairs.object_indices[rows]
    return PredictionSet(
        scene.image_id, pairs.boxes[s], pairs.categories[s], predicates[order],
        pairs.boxes[o], pairs.categories[o], top_scores[order], rows,
    )


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Ground-truth triplets as columns, in annotation order."""

    subject_categories: np.ndarray  # (G,) intp
    predicates: np.ndarray  # (G,) intp
    object_categories: np.ndarray  # (G,) intp
    subject_boxes: np.ndarray  # (G, 4) float64
    object_boxes: np.ndarray  # (G, 4) float64

    @classmethod
    def of(cls, triplets: Sequence[AnnotatedTriplet]) -> "GroundTruth":
        types = np.array([gt.type_key() for gt in triplets], dtype=np.intp).reshape(-1, 3)
        return cls(
            *types.T,
            box_array(gt.subject_box for gt in triplets),
            box_array(gt.object_box for gt in triplets),
        )

    def __len__(self) -> int:
        return len(self.predicates)

    def take(self, rows) -> "GroundTruth":
        """The triplets at ``rows`` (indices or a boolean mask), in order."""
        return GroundTruth(*(getattr(self, f.name)[rows] for f in fields(self)))


def match_predictions(
    predictions: PredictionSet,
    ground_truth: GroundTruth | Sequence[AnnotatedTriplet],
    task: str = "relation",
) -> List[bool]:
    """Greedy matching in rank order; each ground-truth triplet is consumed
    by at most one prediction (first eligible in annotation order).

    The (prediction, ground truth) entries whose types agree are found at
    once; only those get the task's IoU tests.
    """
    if task not in TASKS:
        raise UsageError(f"task must be one of {TASKS}, got {task!r}")
    p = predictions
    gt = ground_truth if isinstance(ground_truth, GroundTruth) else GroundTruth.of(ground_truth)
    rows, cols = np.nonzero(
        (p.predicates[:, None] == gt.predicates)
        & (p.subject_categories[:, None] == gt.subject_categories)
        & (p.object_categories[:, None] == gt.object_categories)
    )
    if rows.size and task == "phrase":
        unions = union_rows(p.subject_boxes[rows], p.object_boxes[rows])
        gt_unions = union_rows(gt.subject_boxes[cols], gt.object_boxes[cols])
        keep = iou_pairs(unions, gt_unions) >= EVAL_IOU_THRESHOLD
        rows, cols = rows[keep], cols[keep]
    elif rows.size and task == "relation":
        keep = iou_pairs(p.subject_boxes[rows], gt.subject_boxes[cols]) >= EVAL_IOU_THRESHOLD
        keep &= iou_pairs(p.object_boxes[rows], gt.object_boxes[cols]) >= EVAL_IOU_THRESHOLD
        rows, cols = rows[keep], cols[keep]
    # Entries come in rank order, each row's in annotation order.
    hits = [False] * len(p.scores)
    consumed = set()
    for row, col in zip(rows.tolist(), cols.tolist()):
        if not hits[row] and col not in consumed:
            hits[row] = True
            consumed.add(col)
    return hits


def recall_at_n(
    image_hits: Sequence[Sequence[bool]],
    gt_counts: Sequence[int],
    n: int,
    macro_average: bool = False,
) -> float:
    """Fraction of ground-truth triplets recovered among each image's top n.

    Micro-averaged by default (total hits / total ground truth); the macro
    flag averages per-image recalls instead.
    """
    if len(image_hits) != len(gt_counts):
        raise ValueError("image_hits and gt_counts must align")
    if macro_average:
        recalls = [
            sum(hits[:n]) / count
            for hits, count in zip(image_hits, gt_counts)
            if count > 0
        ]
        if not recalls:
            raise UndefinedMetricError("no image has ground-truth triplets")
        return float(np.mean(recalls))
    total_gt = sum(gt_counts)
    if total_gt == 0:
        raise UndefinedMetricError("no ground-truth triplets in the evaluation set")
    total_hits = sum(sum(hits[:n]) for hits in image_hits)
    return total_hits / total_gt


@dataclass
class RecallTally:
    """Per-image hits and ground-truth counts of one config."""

    config: EvalConfig
    image_hits: List[List[bool]] = field(default_factory=list)
    gt_counts: List[int] = field(default_factory=list)

    def recalls(self) -> Dict[str, float]:
        return {
            str(n): recall_at_n(self.image_hits, self.gt_counts, n, self.config.macro_average)
            for n in self.config.n_values
        }


def evaluate_configs(
    scenes: Sequence[SceneRecord],
    scorer: Scorer,
    configs: Sequence[EvalConfig],
    predicate_count: int,
    training_types: Set[Tuple[int, int, int]] | None = None,
) -> List[RecallTally]:
    """Hits of several configs over one scene collection, one tally per config.

    Each scene is scored and ranked once per (candidate source, k), cut at
    the largest N of the configs that read that ranking. Greedy matching is
    decided in rank order, so hits[:n] against the cut ranking equal those
    against the full one. With zero_shot_only, ground truth is filtered to
    triplet types unseen in training before counting.
    """
    zero_shot = any(c.zero_shot_only for c in configs)
    if zero_shot and training_types is None:
        raise ValueError("zero-shot evaluation requires the training triplet types")
    limits: Dict[Tuple[str, int], int] = {}
    for config in configs:
        key = (CANDIDATE_SOURCE[config.task], config.k)
        limits[key] = max(limits.get(key, 0), max(config.n_values))
    tallies = [RecallTally(config) for config in configs]
    for scene in scenes:
        gt = GroundTruth.of(scene.annotations)
        if zero_shot:
            unseen = [t.type_key() not in training_types for t in scene.annotations]
            zero_shot_gt = gt.take(np.array(unseen, dtype=bool))
        ranked: Dict[Tuple[str, int], PredictionSet] = {}
        for tally in tallies:
            config = tally.config
            key = (CANDIDATE_SOURCE[config.task], config.k)
            if key not in ranked:
                ranked[key] = predict_scene(
                    scene,
                    scorer,
                    task=config.task,
                    k=config.k,
                    predicate_count=predicate_count,
                    _limit=limits[key],
                )
            predictions = ranked[key].top(max(config.n_values))
            truth = zero_shot_gt if config.zero_shot_only else gt
            tally.image_hits.append(match_predictions(predictions, truth, config.task))
            tally.gt_counts.append(len(truth))
    return tallies


def evaluate_scenes(
    scenes: Sequence[SceneRecord],
    scorer: Scorer,
    config: EvalConfig,
    predicate_count: int,
    training_types: Set[Tuple[int, int, int]] | None = None,
) -> Dict[str, float]:
    """Recall@N over a scene collection for one config."""
    (tally,) = evaluate_configs(scenes, scorer, [config], predicate_count, training_types)
    return tally.recalls()
