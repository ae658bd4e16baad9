"""Determinate / undetermined pair generation and batch sampling.

Every ordered pair of detected objects is compared against the scene's
annotations: a pair is determinate only if some annotation has the same
subject and object category labels and both box IoUs exceed 0.5 (strict).
Determinate pairs accumulate the predicates of every matching annotation
(multi-hot labels); everything else is undetermined with all-zero labels.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .errors import InsufficientDataError, UsageError
from .scene import (
    AnnotatedTriplet,
    DetectedObject,
    SceneRecord,
    enumerate_pairs,
    iou,
)

# Generator threshold is strict (> 0.5); evaluation uses inclusive >= 0.5.
GENERATOR_IOU_THRESHOLD = 0.5


class PairStatus(enum.Enum):
    DETERMINATE = "determinate"
    UNDETERMINED = "undetermined"


@dataclass
class ObjectPair:
    """Ordered (subject, object) pair with determinacy status and labels.

    ``predicate_labels`` is a multi-hot float vector of length M; it has at
    least one set bit iff the pair is determinate. ``union_feature_key``
    names the pair's union-box visual vector in the feature store.
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


def _matches(subject: DetectedObject, obj: DetectedObject, ann: AnnotatedTriplet) -> bool:
    return (
        subject.category == ann.subject_category
        and obj.category == ann.object_category
        and iou(subject.box, ann.subject_box) > GENERATOR_IOU_THRESHOLD
        and iou(obj.box, ann.object_box) > GENERATOR_IOU_THRESHOLD
    )


def classify_pair(
    subject: DetectedObject,
    obj: DetectedObject,
    annotations: Sequence[AnnotatedTriplet],
    predicate_count: int,
    subject_index: int = 0,
    object_index: int = 1,
    union_feature_key: str | None = None,
) -> ObjectPair:
    """Classify one detected pair against the annotations.

    The pair is determinate iff at least one annotation matches on both
    category labels and both IoUs; the label vector takes the union of the
    predicates of all matching annotations.
    """
    labels = np.zeros(predicate_count, dtype=np.float64)
    matched = []
    for k, ann in enumerate(annotations):
        if _matches(subject, obj, ann):
            labels[ann.predicate] = 1.0
            matched.append(k)
    status = PairStatus.DETERMINATE if matched else PairStatus.UNDETERMINED
    return ObjectPair(
        subject_index=subject_index,
        object_index=object_index,
        subject=subject,
        object=obj,
        status=status,
        predicate_labels=labels,
        matched_annotations=tuple(matched),
        union_feature_key=union_feature_key,
    )


def detection_union_key(image_id: str, i: int, j: int) -> str:
    return f"{image_id}|union|det|{i}|{j}"


def gt_union_key(image_id: str, i: int, j: int) -> str:
    return f"{image_id}|union|gt|{i}|{j}"


def gt_feature_key(image_id: str, i: int) -> str:
    return f"{image_id}|gt|{i}"


def generate_for_scene(scene: SceneRecord, predicate_count: int) -> List[ObjectPair]:
    """One ObjectPair per ordered detection pair, in enumeration order."""
    out = []
    for i, j in enumerate_pairs(scene.detections):
        out.append(
            classify_pair(
                scene.detections[i],
                scene.detections[j],
                scene.annotations,
                predicate_count,
                subject_index=i,
                object_index=j,
                union_feature_key=detection_union_key(scene.image_id, i, j),
            )
        )
    return out


def _gt_detections(scene: SceneRecord) -> List[DetectedObject]:
    return [
        DetectedObject(
            box=box,
            category=cat,
            confidence=1.0,
            feature_key=gt_feature_key(scene.image_id, idx),
        )
        for idx, (box, cat) in enumerate(scene.gt_objects())
    ]


def gt_pairs_for_scene(
    scene: SceneRecord, predicate_count: int, annotated_only: bool = False
) -> List[ObjectPair]:
    """Pairs built from ground-truth objects with confidence 1.0.

    With ``annotated_only`` (the ground-truth training mode used for the
    predicate task) only pairs backed by at least one annotation are kept,
    all of them determinate; otherwise every ordered pair is returned.
    """
    objects = _gt_detections(scene)
    pairs = []
    for i, j in enumerate_pairs(objects):
        subject, obj = objects[i], objects[j]
        labels = np.zeros(predicate_count, dtype=np.float64)
        matched = []
        for k, ann in enumerate(scene.annotations):
            if (
                ann.subject_box == subject.box
                and ann.subject_category == subject.category
                and ann.object_box == obj.box
                and ann.object_category == obj.category
            ):
                labels[ann.predicate] = 1.0
                matched.append(k)
        if annotated_only and not matched:
            continue
        status = PairStatus.DETERMINATE if matched else PairStatus.UNDETERMINED
        pairs.append(
            ObjectPair(
                subject_index=i,
                object_index=j,
                subject=subject,
                object=obj,
                status=status,
                predicate_labels=labels,
                matched_annotations=tuple(matched),
                union_feature_key=gt_union_key(scene.image_id, i, j),
            )
        )
    return pairs


@dataclass(frozen=True)
class BatchSpec:
    """Batch size and undetermined:determinate ratio (default 3:1)."""

    batch_size: int
    undetermined_ratio: float = 3.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.batch_size <= 0:
            raise UsageError("batch_size must be positive")
        if self.undetermined_ratio < 0:
            raise UsageError("undetermined_ratio must be >= 0")

    @property
    def undetermined_quota(self) -> int:
        r = self.undetermined_ratio
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
