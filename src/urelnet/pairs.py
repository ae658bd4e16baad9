"""Determinate / undetermined pair generation and batch sampling.

Every ordered pair of objects is compared against the scene's annotations
by one builder: it tabulates the objects' boxes, categories and confidences
as arrays, then fills two (objects x annotations) role matrices, "object i
can be annotation k's subject" and "... its object"; pair (i, j) matches
annotation k iff both hold. A role needs the annotation's category and a
box test: for detections the paper's IoU above 0.5 (strict), all IoUs of a
scene at once; for ground-truth objects, the annotation's own box. A pair
is determinate iff it matches some annotation and accumulates the
predicates of every one it matches (multi-hot labels); everything else is
undetermined with all-zero labels. A scene's pairs are one ``ScenePairs``.
"""

from __future__ import annotations

import enum
import math
from collections import abc
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence, Tuple

import numpy as np

from .errors import InsufficientDataError, UsageError
from .scene import (
    AnnotatedTriplet,
    DetectedObject,
    SceneRecord,
    box_array,
    iou_rows,
    pair_indices,
)

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
    subject: DetectedObject
    object: DetectedObject
    status: PairStatus
    predicate_labels: np.ndarray
    matched_annotations: tuple = ()
    union_feature_key: str | None = None

    @property
    def determinate(self) -> bool:
        return self.status is PairStatus.DETERMINATE


@dataclass(frozen=True, eq=False)
class ScenePairs(abc.Sequence):
    """A scene's candidate pairs: row p pairs ``objects[subject_indices[p]]``
    with ``objects[object_indices[p]]`` and matches annotation k iff
    ``hits[p, k]``. ``boxes``, ``categories`` and ``confidences`` tabulate
    the objects. ``pairs[p]`` is row p as an ``ObjectPair``; only perfbench
    and tests read rows."""

    objects: Tuple[DetectedObject, ...]
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
        objects, key = (self.objects[i], self.objects[j]), self.union_keys[row]
        return ObjectPair(i, j, *objects, status, self.labels[row], matched, key)

    def take(self, rows) -> "ScenePairs":
        """The pairs at ``rows``, in that order (repeats allowed)."""
        table = (self.objects, self.boxes, self.categories, self.confidences)
        arrays = (self.subject_indices, self.object_indices, self.hits, self.labels)
        keys = tuple(self.union_keys[r] for r in rows)
        return ScenePairs(*table, *(a[rows] for a in arrays), keys)


def _build_pairs(
    objects: Sequence[DetectedObject],
    annotations: Sequence[AnnotatedTriplet],
    predicate_count: int,
    union_key: Callable[[int, int], str | None],
    box_test: Callable[[np.ndarray, np.ndarray], np.ndarray],
    annotated_only: bool = False,
) -> ScenePairs:
    """Label every ordered pair (i, j) of ``objects``, in ``pair_indices``
    order. Object i can take an annotation's subject (object) role iff it
    has that role's category and ``box_test`` holds for the two boxes;
    (i, j) matches annotation k iff i can be its subject and j its object.
    ``annotated_only`` keeps the determinate pairs."""
    boxes = box_array(o.box for o in objects)
    categories = np.array([o.category for o in objects], dtype=np.intp)
    confidences = np.array([o.confidence for o in objects], dtype=np.float64)
    ends = [(a.subject_box, a.subject_category) for a in annotations]
    ends += [(a.object_box, a.object_category) for a in annotations]
    same_category = categories[:, None] == np.array([c for _, c in ends], dtype=np.intp)
    roles = same_category & box_test(boxes, box_array(box for box, _ in ends))
    can_be_subject, can_be_object = np.hsplit(roles, 2)
    subjects, objs = pair_indices(len(objects))
    hits = can_be_subject[subjects] & can_be_object[objs]  # (pairs, annotations)
    rows, ks = np.nonzero(hits)
    predicates = np.array([a.predicate for a in annotations], dtype=np.intp)
    labels = np.zeros((len(subjects), predicate_count), dtype=np.float64)
    labels[rows, predicates[ks]] = 1.0
    keys = tuple(map(union_key, subjects.tolist(), objs.tolist()))
    pairs = ScenePairs(
        tuple(objects), boxes, categories, confidences, subjects, objs, hits, labels, keys
    )
    return pairs.take(np.flatnonzero(pairs.determinate)) if annotated_only else pairs


def _detection_overlaps(boxes: np.ndarray, role_boxes: np.ndarray) -> np.ndarray:
    """The generator's box test: IoU above 0.5 (strict)."""
    return iou_rows(boxes, role_boxes) > GENERATOR_IOU_THRESHOLD


def _same_boxes(boxes: np.ndarray, role_boxes: np.ndarray) -> np.ndarray:
    """The ground-truth box test: all four coordinates equal."""
    return (boxes[:, None, :] == role_boxes[None, :, :]).all(axis=2)


def detection_union_key(image_id: str, i: int, j: int) -> str:
    return f"{image_id}|union|det|{i}|{j}"


def gt_union_key(image_id: str, i: int, j: int) -> str:
    return f"{image_id}|union|gt|{i}|{j}"


def gt_feature_key(image_id: str, i: int) -> str:
    return f"{image_id}|gt|{i}"


def generate_for_scene(scene: SceneRecord, predicate_count: int) -> ScenePairs:
    """Every ordered detection pair, in enumeration order."""
    return _build_pairs(
        scene.detections, scene.annotations, predicate_count,
        partial(detection_union_key, scene.image_id), _detection_overlaps,
    )


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
    objects = [
        DetectedObject(box, cat, 1.0, feature_key=gt_feature_key(scene.image_id, i))
        for i, (box, cat) in enumerate(scene.gt_objects())
    ]
    return _build_pairs(
        objects, scene.annotations, predicate_count, partial(gt_union_key, scene.image_id),
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
        self._items = list(items)
        self._rng = rng
        self._order = []
        self._cursor = 0

    def draw(self, count: int) -> list:
        out = []
        while len(out) < count:
            if self._cursor >= len(self._order):
                self._order = list(self._rng.permutation(len(self._items)))
                self._cursor = 0
            out.append(self._items[self._order[self._cursor]])
            self._cursor += 1
        return out


class PairSampler:
    """Stateful batch sampler: fixed determinate/undetermined composition.

    Sampling is without replacement within an epoch over each pool; once a
    pool is exhausted it is reshuffled, so quotas larger than a pool fall
    back to sampling with replacement. Fully reproducible from the seed.
    """

    def __init__(self, determinate_pool: Sequence, undetermined_pool: Sequence, spec: BatchSpec):
        if spec.determinate_quota > 0 and not determinate_pool:
            raise InsufficientDataError(
                "determinate pool is empty but the batch requires "
                f"{spec.determinate_quota} determinate pairs"
            )
        if spec.undetermined_quota > 0 and not undetermined_pool:
            raise InsufficientDataError(
                "undetermined pool is empty but the batch requires "
                f"{spec.undetermined_quota} undetermined pairs"
            )
        self.spec = spec
        rng = np.random.default_rng(spec.rng_seed)
        self._determinate = _PoolCycler(determinate_pool, rng)
        self._undetermined = _PoolCycler(undetermined_pool, rng)

    def sample_batch(self) -> list:
        batch = self._determinate.draw(self.spec.determinate_quota)
        batch.extend(self._undetermined.draw(self.spec.undetermined_quota))
        return batch
