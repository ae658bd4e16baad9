"""Scene data model: boxes, detections, annotations, vocabularies.

Boxes are axis-aligned with continuous corner coordinates; area is
``(x_max - x_min) * (y_max - y_min)`` with no +1 pixel convention.
Degenerate boxes are rejected at construction rather than clamped.
All types are immutable after construction and safe to share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Tuple

import numpy as np

from .errors import DatasetValidationError, GeometryError

SPLITS = ("train", "validation", "test")


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box, corners (x_min, y_min) and (x_max, y_max)."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        for name in ("x_min", "y_min", "x_max", "y_max"):
            object.__setattr__(self, name, float(getattr(self, name)))
        coords = (self.x_min, self.y_min, self.x_max, self.y_max)
        if not all(math.isfinite(c) for c in coords):
            raise GeometryError(f"non-finite box coordinates {coords}")
        if self.x_max <= self.x_min or self.y_max <= self.y_min:
            raise GeometryError(f"degenerate box {coords}: extent must be positive")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height

    def as_tuple(self) -> Tuple[float, float, float, float]:
        return (self.x_min, self.y_min, self.x_max, self.y_max)


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes; 0.0 when disjoint. The pipeline
    runs ``iou_rows``; this one-pair form is for tests and perfbench."""
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


def box_array(boxes: Iterable[BoundingBox]) -> np.ndarray:
    """(n, 4) float64 rows of (x_min, y_min, x_max, y_max)."""
    return np.array([b.as_tuple() for b in boxes], dtype=np.float64).reshape(-1, 4)


def iou_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n, m) IoU of every row of ``a`` (n, 4) with every row of ``b`` (m, 4),
    in the operation order of ``iou``, so every entry equals it bit for bit."""
    return iou_pairs(a[:, None, :], b[None, :, :])


def iou_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of row i of ``a`` with row i of ``b`` (box arrays whose leading
    axes broadcast), bit for bit equal to ``iou``."""
    ix = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    iy = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = np.where((ix > 0.0) & (iy > 0.0), ix * iy, 0.0)
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    return inter / (area_a + area_b - inter)


def union_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n, 4) ``union_box`` of row i of ``a`` and row i of ``b``, equal bit for bit."""
    return np.hstack([np.minimum(a[:, :2], b[:, :2]), np.maximum(a[:, 2:], b[:, 2:])])


def union_box(a: BoundingBox, b: BoundingBox) -> BoundingBox:
    """Smallest axis-aligned box containing both inputs. The pipeline runs
    ``union_rows``; this one-pair form is for tests and perfbench."""
    return BoundingBox(
        min(a.x_min, b.x_min),
        min(a.y_min, b.y_min),
        max(a.x_max, b.x_max),
        max(a.y_max, b.y_max),
    )


def pair_indices(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Subject and object indices of all n * (n - 1) ordered pairs (i, j),
    i != j, in lexicographic order; (i, j) and (j, i) swap the roles."""
    return np.nonzero(~np.eye(n, dtype=bool))


@dataclass(frozen=True)
class DetectedObject:
    """Detector output: box, category index, and detection confidence.

    ``feature_key`` references this box's visual feature vector in the
    dataset's feature store (None when features are resolved elsewhere).
    """

    box: BoundingBox
    category: int
    confidence: float
    feature_key: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "confidence", float(self.confidence))
        if self.category < 0:
            raise DatasetValidationError(f"negative category index {self.category}")
        if not (0.0 < self.confidence <= 1.0) or not math.isfinite(self.confidence):
            raise DatasetValidationError(
                f"detection confidence {self.confidence!r} outside (0, 1]"
            )


@dataclass(frozen=True)
class AnnotatedTriplet:
    """Human-annotated relation: subject box/category, predicate, object box/category."""

    subject_box: BoundingBox
    subject_category: int
    predicate: int
    object_box: BoundingBox
    object_category: int

    def __post_init__(self):
        if self.subject_category < 0 or self.object_category < 0 or self.predicate < 0:
            raise DatasetValidationError("negative index in annotation")

    def type_key(self) -> Tuple[int, int, int]:
        """Category-level triplet type (subject, predicate, object)."""
        return (self.subject_category, self.predicate, self.object_category)


@dataclass(frozen=True)
class SceneRecord:
    """One image's detections and annotations plus its dataset split."""

    image_id: str
    width: float
    height: float
    detections: Tuple[DetectedObject, ...]
    annotations: Tuple[AnnotatedTriplet, ...]
    split: str

    def __post_init__(self):
        object.__setattr__(self, "width", float(self.width))
        object.__setattr__(self, "height", float(self.height))
        if self.split not in SPLITS:
            raise DatasetValidationError(
                f"scene {self.image_id!r}: split {self.split!r} not in {SPLITS}"
            )
        if not (0 < self.width < math.inf and 0 < self.height < math.inf):
            raise DatasetValidationError(
                f"scene {self.image_id!r}: image size must be positive and finite"
            )
        for kind, boxes in (
            ("detection", [d.box for d in self.detections]),
            ("annotation", [b for a in self.annotations for b in (a.subject_box, a.object_box)]),
        ):
            for box in boxes:
                if not (
                    0.0 <= box.x_min
                    and 0.0 <= box.y_min
                    and box.x_max <= self.width
                    and box.y_max <= self.height
                ):
                    raise DatasetValidationError(
                        f"scene {self.image_id!r}: {kind} box {box.as_tuple()} "
                        f"outside image bounds {self.width}x{self.height}"
                    )

    def gt_objects(self) -> List[Tuple[BoundingBox, int]]:
        return unique_objects(self.annotations)


def unique_objects(annotations: Iterable[AnnotatedTriplet]) -> List[Tuple[BoundingBox, int]]:
    """Unique (box, category) ground-truth objects in first-appearance order.

    Order scans annotations, subject then object; it fixes the ground-truth
    feature-key numbering, so it must stay stable.
    """
    seen = {}
    for ann in annotations:
        for box, cat in (
            (ann.subject_box, ann.subject_category),
            (ann.object_box, ann.object_category),
        ):
            seen.setdefault((box.as_tuple(), cat), (box, cat))
    return list(seen.values())


@dataclass(frozen=True)
class Vocabulary:
    """Object and predicate category names; indices are positions in these lists."""

    object_names: Tuple[str, ...]
    predicate_names: Tuple[str, ...]

    def __post_init__(self):
        if not self.object_names or not self.predicate_names:
            raise DatasetValidationError("vocabulary lists must be non-empty")
        if len(set(self.object_names)) != len(self.object_names):
            raise DatasetValidationError("duplicate object category names")
        if len(set(self.predicate_names)) != len(self.predicate_names):
            raise DatasetValidationError("duplicate predicate names")

    @property
    def object_count(self) -> int:
        return len(self.object_names)

    @property
    def predicate_count(self) -> int:
        return len(self.predicate_names)
