"""Determinate / undetermined pair generation and batch sampling.

Every ordered pair of objects is compared against the scene's annotations
by one builder: it reads the objects' boxes and categories and the
scene's annotation columns as arrays, then fills two (objects x
annotations) role matrices, "object i can be annotation k's subject" and
"... its object"; pair (i, j) matches annotation k iff both hold. A role
needs the annotation's category and a box test: for detections the
paper's IoU above 0.5 (strict), all IoUs of a scene at once; for
ground-truth objects, the annotation's own box. A pair
is determinate iff it matches some annotation and accumulates the
predicates of every one it matches (multi-hot labels); everything else is
undetermined with all-zero labels. A scene's pairs are one ``ScenePairs``.
"""

from __future__ import annotations

import enum
import math
from collections import abc
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from .errors import InsufficientDataError, UsageError
from .scene import SceneRecord, iou_rows, pair_indices

# Generator threshold is strict (> 0.5); evaluation uses inclusive >= 0.5.
GENERATOR_IOU_THRESHOLD = 0.5


class PairStatus(enum.Enum):
    DETERMINATE = "determinate"
    UNDETERMINED = "undetermined"


@dataclass
class ObjectPair:
    """One row of a ``ScenePairs``: ordered pair, status and labels.

    ``predicate_labels`` is a multi-hot float vector of length M; it has at
    least one set bit iff the pair is determinate. ``union_feature_key``
    names the pair's union-box visual vector in the feature store.
    No pipeline path reads this view; perfbench reads its ``determinate``.
    """

    subject_index: int
    object_index: int
    status: PairStatus
    predicate_labels: np.ndarray
    matched_annotations: tuple = ()
    union_feature_key: str | None = None

    @property
    def determinate(self) -> bool:
        return self.status is PairStatus.DETERMINATE


@dataclass(frozen=True, eq=False)
class ScenePairs(abc.Sequence):
    """A scene's candidate pairs: row p pairs object ``subject_indices[p]``
    with object ``object_indices[p]`` and matches annotation k iff
    ``hits[p, k]``. ``feature_keys``, ``boxes``, ``categories`` and
    ``confidences`` tabulate the objects. ``pairs[p]`` is row p as an
    ``ObjectPair``; only perfbench and tests read rows."""

    feature_keys: Tuple[str | None, ...]  # (D,)
    boxes: np.ndarray  # (D, 4) float64
    categories: np.ndarray  # (D,) intp
    confidences: np.ndarray  # (D,) float64
    subject_indices: np.ndarray  # (P,) intp
    object_indices: np.ndarray  # (P,) intp
    hits: np.ndarray  # (P, K) bool
    labels: np.ndarray  # (P, M) float64
    union_keys: Tuple[str | None, ...]

    @property
    def determinate(self) -> np.ndarray:
        return self.hits.any(axis=1)

    def __len__(self) -> int:
        return len(self.subject_indices)

    def __getitem__(self, row: int) -> ObjectPair:
        i, j = int(self.subject_indices[row]), int(self.object_indices[row])
        matched = tuple(np.flatnonzero(self.hits[row]).tolist())
        status = PairStatus.DETERMINATE if matched else PairStatus.UNDETERMINED
        return ObjectPair(i, j, status, self.labels[row], matched, self.union_keys[row])

    def take(self, rows) -> "ScenePairs":
        """The pairs at ``rows``, in that order (repeats allowed)."""
        table = (self.feature_keys, self.boxes, self.categories, self.confidences)
        arrays = (self.subject_indices, self.object_indices, self.hits, self.labels)
        keys = tuple(self.union_keys[r] for r in rows)
        return ScenePairs(*table, *(a[rows] for a in arrays), keys)


def _build_pairs(
    table: tuple,
    scene: SceneRecord,
    predicate_count: int,
    kind: str,
    box_test: Callable[[np.ndarray, np.ndarray], np.ndarray],
    annotated_only: bool = False,
) -> ScenePairs:
    """Label every ordered pair (i, j) of the objects that ``table`` (feature
    keys, boxes, categories, confidences) tabulates against ``scene``'s
    annotations, in ``pair_indices`` order. Object i can take an
    annotation's subject (object) role iff it has that role's category and
    ``box_test`` holds for the two boxes; (i, j) matches annotation k iff i
    can be its subject and j its object. ``annotated_only`` keeps the
    determinate pairs."""
    _, boxes, categories, _ = table
    role_boxes = np.concatenate([scene.subject_boxes, scene.object_boxes])
    role_categories = np.concatenate([scene.subject_categories, scene.object_categories])
    roles = (categories[:, None] == role_categories) & box_test(boxes, role_boxes)
    annotations = len(scene.predicates)
    can_be_subject, can_be_object = roles[:, :annotations], roles[:, annotations:]
    subjects, objs = pair_indices(len(boxes))
    hits = can_be_subject[subjects] & can_be_object[objs]  # (pairs, annotations)
    rows, ks = np.nonzero(hits)
    labels = np.zeros((len(subjects), predicate_count), dtype=np.float64)
    labels[rows, scene.predicates[ks]] = 1.0
    keys = union_keys(scene.image_id, kind, subjects.tolist(), objs.tolist())
    pairs = ScenePairs(*table, subjects, objs, hits, labels, keys)
    return pairs.take(np.flatnonzero(pairs.determinate)) if annotated_only else pairs


def _detection_overlaps(boxes: np.ndarray, role_boxes: np.ndarray) -> np.ndarray:
    """The generator's box test: IoU above 0.5 (strict)."""
    return iou_rows(boxes, role_boxes) > GENERATOR_IOU_THRESHOLD


def _same_boxes(boxes: np.ndarray, role_boxes: np.ndarray) -> np.ndarray:
    """The ground-truth box test: all four coordinates equal."""
    return (boxes[:, None, :] == role_boxes[None, :, :]).all(axis=2)


def union_keys(image_id: str, kind: str, subjects, objects) -> Tuple[str, ...]:
    """The feature keys of the union boxes of pairs (``subjects[p]``,
    ``objects[p]``) of ``kind`` objects: "det" for detections, "gt" for
    ground-truth objects."""
    prefix = f"{image_id}|union|{kind}|"
    return tuple([f"{prefix}{i}|{j}" for i, j in zip(subjects, objects)])


def gt_feature_key(image_id: str, i: int) -> str:
    return f"{image_id}|gt|{i}"


def generate_for_scene(scene: SceneRecord, predicate_count: int) -> ScenePairs:
    """Every ordered detection pair, in enumeration order."""
    table = (scene.feature_keys, scene.boxes, scene.categories, scene.confidences)
    return _build_pairs(table, scene, predicate_count, "det", _detection_overlaps)


def gt_pairs_for_scene(
    scene: SceneRecord, predicate_count: int, annotated_only: bool = False
) -> ScenePairs:
    """Pairs built from ground-truth objects with confidence 1.0.

    An object stands in for an annotation's subject (object) iff it is that
    annotation's subject (object) box and category. With ``annotated_only``
    (the ground-truth training mode used for the predicate task) only pairs
    backed by at least one annotation are kept, all of them determinate;
    otherwise every ordered pair is returned.
    """
    boxes, categories = scene.gt_objects()
    keys = tuple(gt_feature_key(scene.image_id, i) for i in range(len(boxes)))
    return _build_pairs(
        (keys, boxes, categories, np.ones(len(boxes))), scene, predicate_count, "gt",
        _same_boxes, annotated_only=annotated_only,
    )


@dataclass(frozen=True)
class BatchSpec:
    """Batch size and undetermined:determinate ratio (default 3:1)."""

    batch_size: int
    undetermined_ratio: float = 3.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.batch_size <= 0:
            raise UsageError("batch_size must be positive")
        if not 0 <= self.undetermined_ratio < math.inf:
            raise UsageError("undetermined_ratio must be finite and >= 0")

    @property
    def undetermined_quota(self) -> int:
        r = self.undetermined_ratio
        if 1.0 + r == r:  # the whole batch, where batch_size * r could overflow
            return self.batch_size
        return int(round(self.batch_size * r / (1.0 + r)))

    @property
    def determinate_quota(self) -> int:
        return self.batch_size - self.undetermined_quota


class _PoolCycler:
    """Draws items without replacement, reshuffling when exhausted."""

    def __init__(self, items: Sequence, rng: np.random.Generator):
        self._items = np.asarray(items)
        self._rng = rng
        self._order = self._items[:0]  # the current shuffle's undrawn items

    def draw(self, count: int) -> np.ndarray:
        """The next ``count`` items, filled from successive shuffles into an
        array allocated first, so a count no array can hold fails before
        any shuffle."""
        drawn = np.empty(count, dtype=self._items.dtype)
        filled = 0
        while filled < count:
            if not len(self._order):
                self._order = self._items[self._rng.permutation(len(self._items))]
            part, self._order = self._order[: count - filled], self._order[count - filled :]
            drawn[filled : filled + len(part)] = part
            filled += len(part)
        return drawn


class PairSampler:
    """Stateful batch sampler: fixed determinate/undetermined composition.

    Sampling is without replacement within an epoch over each pool; once a
    pool is exhausted it is reshuffled, so quotas larger than a pool fall
    back to sampling with replacement. Fully reproducible from the seed.
    """

    def __init__(self, determinate_pool: Sequence, undetermined_pool: Sequence, spec: BatchSpec):
        if spec.determinate_quota > 0 and not len(determinate_pool):
            raise InsufficientDataError(
                "determinate pool is empty but the batch requires "
                f"{spec.determinate_quota} determinate pairs"
            )
        if spec.undetermined_quota > 0 and not len(undetermined_pool):
            raise InsufficientDataError(
                "undetermined pool is empty but the batch requires "
                f"{spec.undetermined_quota} undetermined pairs"
            )
        self.spec = spec
        rng = np.random.default_rng(spec.rng_seed)
        self._determinate = _PoolCycler(determinate_pool, rng)
        self._undetermined = _PoolCycler(undetermined_pool, rng)

    def sample_batch(self) -> np.ndarray:
        """One batch: its determinate items, then its undetermined ones."""
        parts = (
            self._determinate.draw(self.spec.determinate_quota),
            self._undetermined.draw(self.spec.undetermined_quota),
        )
        # A quota of 0 adds nothing, not even the dtype of its (maybe empty) pool.
        return np.concatenate([part for part in parts if len(part)])
