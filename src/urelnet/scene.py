"""Scene data model: boxes, scenes as columns, vocabularies.

Boxes are axis-aligned with continuous corner coordinates; area is
``(x_max - x_min) * (y_max - y_min)`` with no +1 pixel convention.
A ``BoundingBox`` rejects a degenerate box at construction rather than
clamping it. A scene holds its detections and annotations as columns, one
row each. All types are immutable after construction and safe to share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

from .errors import DatasetValidationError, DimensionError, GeometryError

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


@lru_cache(maxsize=64)
def pair_indices(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Subject and object indices of all n * (n - 1) ordered pairs (i, j),
    i != j, in lexicographic order; (i, j) and (j, i) swap the roles.
    Read-only, and shared by every caller with the same n."""
    indices = np.nonzero(~np.eye(n, dtype=bool))
    for column in indices:
        column.flags.writeable = False
    return indices


# SceneRecord's columns: (name, dtype, row width or None for one value).
DETECTION_COLUMNS = (("boxes", np.float64, 4), ("categories", np.intp, None),
                     ("confidences", np.float64, None))
ANNOTATION_COLUMNS = (("subject_boxes", np.float64, 4), ("subject_categories", np.intp, None),
                      ("predicates", np.intp, None), ("object_boxes", np.float64, 4),
                      ("object_categories", np.intp, None))


@dataclass(frozen=True, eq=False)
class SceneRecord:
    """One image's detections and annotations, as columns, plus its split.

    Detection d is row d of ``boxes`` (x_min, y_min, x_max, y_max),
    ``categories``, ``confidences`` and ``feature_keys``, which name its
    visual vector in the feature store (None when features are resolved
    elsewhere). Annotation a is row a of the five annotation columns.
    Construction only converts the columns, read-only, and checks that they
    fit; ``dataset.load_dataset`` checks the values of the scenes it reads.
    """

    image_id: str
    width: float
    height: float
    split: str
    boxes: np.ndarray = ()
    categories: np.ndarray = ()
    confidences: np.ndarray = ()
    feature_keys: Tuple[str | None, ...] | None = None
    subject_boxes: np.ndarray = ()
    subject_categories: np.ndarray = ()
    predicates: np.ndarray = ()
    object_boxes: np.ndarray = ()
    object_categories: np.ndarray = ()

    def __post_init__(self):
        object.__setattr__(self, "width", float(self.width))
        object.__setattr__(self, "height", float(self.height))
        for name, dtype, width in DETECTION_COLUMNS + ANNOTATION_COLUMNS:
            column = np.asarray(getattr(self, name), dtype=dtype)
            column = column.reshape(-1, width) if width else column.reshape(-1)  # a view
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        keys = (None,) * len(self.boxes) if self.feature_keys is None else tuple(self.feature_keys)
        object.__setattr__(self, "feature_keys", keys)
        rows = [len(getattr(self, name)) for name, _, _ in DETECTION_COLUMNS + ANNOTATION_COLUMNS]
        if len({len(keys), *rows[:3]}) > 1 or len(set(rows[3:])) > 1:
            raise DimensionError(f"scene {self.image_id!r}: its columns differ in length")

    def gt_objects(self) -> Tuple[np.ndarray, np.ndarray]:
        """The (G, 4) boxes and (G,) categories of ``unique_objects``."""
        return unique_objects(
            self.subject_boxes, self.subject_categories, self.object_boxes, self.object_categories
        )


def unique_objects(subject_boxes, subject_categories, object_boxes, object_categories):
    """Unique (box, category) ground-truth objects in first-appearance order,
    as (G, 4) boxes and (G,) categories.

    Order scans annotations, subject then object; it fixes the ground-truth
    feature-key numbering, so it must stay stable. Boxes compare as floats,
    so -0.0 and 0.0 are one coordinate; an object keeps its first row.
    """
    boxes = np.stack([subject_boxes, object_boxes], axis=1).reshape(-1, 4)
    categories = np.stack([subject_categories, object_categories], axis=1).reshape(-1)
    same = (boxes[:, None] == boxes[None]).all(axis=2) & (categories[:, None] == categories)
    first = ~np.tril(same, -1).any(axis=1)  # no earlier end is the same object
    return boxes[first], categories[first]


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
