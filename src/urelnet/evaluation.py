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
candidate source, ranks it once per source and k, and matches every
requested config against that one ranking, cut at the largest N that reads
it. Scorers take a group of scenes: an evaluation scores the pairs of
consecutive scenes together, up to ``PAIR_BUDGET``, and ``predict_scene``
scores a group of one.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, Iterator, List, Sequence, Set, Tuple

import numpy as np

from .errors import DimensionError, DivergenceError, UndefinedMetricError, UsageError
from .features import FeatureExtractor, FeatureMatrix
from .model import required_streams
from .pairs import ScenePairs, generate_for_scene, gt_pairs_for_scene
from .scene import BoundingBox, SceneRecord, iou_pairs, union_rows

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


# Scorer protocol: callable(group) -> relation scores, where ``group`` is a
# sequence of (pairs, scene) and the result stacks each scene's
# (len(pairs), M) rows in group order.
Scorer = Callable[[Sequence[Tuple[ScenePairs, SceneRecord]]], np.ndarray]

# The most candidate pairs scored in one call, over consecutive scenes; a
# scene with more is scored alone. On the 4096-d full-size benchmark
# workload (about 115 pairs a scene, 2-vCPU VM), against scoring scene by
# scene, evaluation ran 1.2, 1.4 and 1.8 times as fast at 256, 512 and 1024
# pairs, and its peak of numpy memory moved by -18, -4 and +24 MB. 512 is
# the largest of these that does not raise that peak.
PAIR_BUDGET = 512


class ModelScorer:
    """Scores pairs with a trained model: assembles the features the model
    consumes, one matrix for the whole group, runs forward, and multiplies
    in the detector confidences."""

    def __init__(self, model, extractor: FeatureExtractor):
        self.model = model
        self.extractor = extractor
        self.streams = required_streams(model.config)

    def __call__(self, group: Sequence[Tuple[ScenePairs, SceneRecord]]) -> np.ndarray:
        features = FeatureMatrix.concatenate(
            [self.extractor.matrix(pairs, scene, streams=self.streams) for pairs, scene in group]
        )
        subjects = np.concatenate([pairs.confidences[pairs.subject_indices] for pairs, _ in group])
        objects = np.concatenate([pairs.confidences[pairs.object_indices] for pairs, _ in group])
        return self.model.relation_scores(features, subjects, objects)


class UniformRandomScorer:
    """Baseline: uniform random scores, deterministic per (seed, image id)."""

    def __init__(self, predicate_count: int, seed: int = 0):
        self.predicate_count = predicate_count
        self.seed = seed

    def __call__(self, group: Sequence[Tuple[ScenePairs, SceneRecord]]) -> np.ndarray:
        draws = [np.empty((0, self.predicate_count))]
        for pairs, scene in group:
            image_seed = zlib.crc32(scene.image_id.encode("utf-8"))
            rng = np.random.default_rng((self.seed, image_seed))
            draws.append(rng.uniform(size=(len(pairs), self.predicate_count)))
        return np.concatenate(draws)


def candidate_pairs(scene: SceneRecord, task: str, predicate_count: int) -> ScenePairs:
    """Pairs to score: ground-truth object pairs (confidence 1) for the
    predicate task, detector pairs otherwise."""
    source = CANDIDATE_SOURCE.get(task)
    if source is None:
        raise UsageError(f"task must be one of {TASKS}, got {task!r}")
    if source == "ground_truth":
        return gt_pairs_for_scene(scene, predicate_count, annotated_only=False)
    return generate_for_scene(scene, predicate_count)


def score_group(
    group: Sequence[Tuple[ScenePairs, SceneRecord]], scorer: Scorer, predicate_count: int
) -> List[np.ndarray]:
    """Each scene's (len(pairs), M) scores, from one scorer call over the
    scenes that have pairs.

    Scores that overflow or are not finite have diverged; the
    DivergenceError names the first scene of the group whose own scores
    diverge when it is scored alone.
    """
    sizes = [len(pairs) for pairs, _ in group]
    scored = [item for item, size in zip(group, sizes) if size]
    scores = np.zeros((0, predicate_count))
    if scored:
        # Scores that overflow have diverged: numpy raises instead of printing
        # a warning and going on, as in a training step.
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                scores = np.asarray(scorer(scored), dtype=np.float64)
        except FloatingPointError:
            scores = None
        if scores is not None and (scores.ndim != 2 or scores.shape[0] != sum(sizes)):
            raise DimensionError(f"scorer returned shape {scores.shape} for {sum(sizes)} pairs")
        if scores is None or not np.isfinite(scores).all():
            if len(scored) > 1:
                for item in scored:
                    score_group([item], scorer, predicate_count)
            raise DivergenceError(f"non-finite relation scores for image {scored[0][1].image_id!r}")
    return np.split(scores, np.cumsum(sizes)[:-1])


def rank_pairs(
    scene: SceneRecord, pairs: ScenePairs, scores: np.ndarray, k: int, limit: int | None = None
) -> PredictionSet:
    """The top-k predicates of every pair, ranked; ``limit`` keeps only
    the first that many triplets."""
    # Per pair, the k best predicates (ties to the lower index); then every
    # kept entry by score, ties by pair index, then predicate.
    top = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    top_scores = np.take_along_axis(scores, top, axis=1).ravel()
    predicates = top.ravel()
    pair_indices = np.repeat(np.arange(len(pairs)), top.shape[1])
    order = np.lexsort((predicates, pair_indices, -top_scores))[:limit]
    rows = pair_indices[order]
    s, o = pairs.subject_indices[rows], pairs.object_indices[rows]
    return PredictionSet(
        scene.image_id, pairs.boxes[s], pairs.categories[s], predicates[order],
        pairs.boxes[o], pairs.categories[o], top_scores[order], rows,
    )


def predict_scene(
    scene: SceneRecord,
    scorer: Scorer,
    task: str = "relation",
    k: int = 1,
    *,
    predicate_count: int,
) -> PredictionSet:
    """Rank the top-k predicates of every candidate pair in one image,
    scored as a group of one."""
    if k < 1:
        raise UsageError(f"k must be >= 1, got {k}")
    pairs = candidate_pairs(scene, task, predicate_count)
    (scores,) = score_group([(pairs, scene)], scorer, predicate_count)
    return rank_pairs(scene, pairs, scores, k)


def scored_scenes(
    scenes: Sequence[SceneRecord], scorer: Scorer, task: str, predicate_count: int
) -> Iterator[Tuple[ScenePairs, np.ndarray]]:
    """Each scene's candidate pairs and their scores, in order. Consecutive
    scenes are scored as one group of at most ``PAIR_BUDGET`` pairs."""
    group: List[Tuple[ScenePairs, SceneRecord]] = []
    size = 0
    for scene in scenes:
        pairs = candidate_pairs(scene, task, predicate_count)
        if group and size + len(pairs) > PAIR_BUDGET:
            yield from zip((p for p, _ in group), score_group(group, scorer, predicate_count))
            group, size = [], 0
        group.append((pairs, scene))
        size += len(pairs)
    if group:
        yield from zip((p for p, _ in group), score_group(group, scorer, predicate_count))


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Ground-truth triplets as columns, in annotation order."""

    subject_categories: np.ndarray  # (G,) intp
    predicates: np.ndarray  # (G,) intp
    object_categories: np.ndarray  # (G,) intp
    subject_boxes: np.ndarray  # (G, 4) float64
    object_boxes: np.ndarray  # (G, 4) float64

    @classmethod
    def of(cls, scene: SceneRecord) -> "GroundTruth":
        """The scene's annotations, sharing its columns."""
        return cls(*(getattr(scene, f.name) for f in fields(cls)))

    def __len__(self) -> int:
        return len(self.predicates)

    def take(self, rows) -> "GroundTruth":
        """The triplets at ``rows`` (indices or a boolean mask), in order."""
        return GroundTruth(*(getattr(self, f.name)[rows] for f in fields(self)))


def match_predictions(
    predictions: PredictionSet, gt: GroundTruth, task: str = "relation"
) -> List[bool]:
    """Greedy matching in rank order; each ground-truth triplet is consumed
    by at most one prediction (first eligible in annotation order).

    The (prediction, ground truth) entries whose types agree are found at
    once; only those get the task's IoU tests.
    """
    if task not in TASKS:
        raise UsageError(f"task must be one of {TASKS}, got {task!r}")
    p = predictions
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

    Each candidate source's pairs are scored once per scene, in groups of
    consecutive scenes (``scored_scenes``), and each scene is ranked once
    per (source, k), cut at the largest N of the configs that read that
    ranking. Greedy matching is decided in rank order, so hits[:n] against
    the cut ranking equal those against the full one. With zero_shot_only,
    ground truth is filtered to triplet types unseen in training before
    counting.
    """
    zero_shot = any(c.zero_shot_only for c in configs)
    if zero_shot and training_types is None:
        raise ValueError("zero-shot evaluation requires the training triplet types")
    scenes = list(scenes)
    limits: Dict[Tuple[str, int], int] = {}
    for config in configs:
        key = (CANDIDATE_SOURCE[config.task], config.k)
        limits[key] = max(limits.get(key, 0), max(config.n_values))
    # One scoring pass per source, advanced scene by scene in step.
    tasks = {CANDIDATE_SOURCE[c.task]: c.task for c in configs}
    passes = [scored_scenes(scenes, scorer, task, predicate_count) for task in tasks.values()]
    tallies = [RecallTally(config) for config in configs]
    for scene, *scored in zip(scenes, *passes):
        by_source = dict(zip(tasks, scored))
        gt = GroundTruth.of(scene)
        if zero_shot:
            columns = (gt.subject_categories, gt.predicates, gt.object_categories)
            types = zip(*(column.tolist() for column in columns))
            zero_shot_gt = gt.take(np.array([t not in training_types for t in types], dtype=bool))
        ranked: Dict[Tuple[str, int], PredictionSet] = {}
        for tally in tallies:
            config = tally.config
            key = (CANDIDATE_SOURCE[config.task], config.k)
            if key not in ranked:
                ranked[key] = rank_pairs(scene, *by_source[key[0]], config.k, limits[key])
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
