"""Row-wise stand-ins for a scene's detections and annotations.

A ``SceneRecord`` holds columns. Tests that state a scene one detection or
one annotation at a time, and brute-force oracles that read them back that
way, use these rows and ``make_scene``; the package itself never does.
"""

from typing import NamedTuple, Optional

from urelnet.evaluation import GroundTruth
from urelnet.scene import BoundingBox, SceneRecord


class Det(NamedTuple):
    box: BoundingBox
    category: int
    confidence: float = 0.9
    feature_key: Optional[str] = None


class Ann(NamedTuple):
    subject_box: BoundingBox
    subject_category: int
    predicate: int
    object_box: BoundingBox
    object_category: int

    def type_key(self):
        return (self.subject_category, self.predicate, self.object_category)


def _annotation_columns(annotations):
    return (
        [a.subject_box.as_tuple() for a in annotations],
        [a.subject_category for a in annotations],
        [a.predicate for a in annotations],
        [a.object_box.as_tuple() for a in annotations],
        [a.object_category for a in annotations],
    )


def make_scene(image_id, detections=(), annotations=(), split="train", width=100.0, height=100.0):
    """The ``SceneRecord`` whose rows are ``detections`` and ``annotations``."""
    return SceneRecord(
        image_id, width, height, split,
        [d.box.as_tuple() for d in detections],
        [d.category for d in detections],
        [d.confidence for d in detections],
        [d.feature_key for d in detections],
        *_annotation_columns(annotations),
    )


def detections_of(scene):
    """The scene's detections as rows."""
    return [
        Det(BoundingBox(*box), category, confidence, key)
        for box, category, confidence, key in zip(
            scene.boxes.tolist(), scene.categories.tolist(), scene.confidences.tolist(),
            scene.feature_keys,
        )
    ]


def annotations_of(scene):
    """The scene's annotations as rows."""
    return [
        Ann(BoundingBox(*s), sc, p, BoundingBox(*o), oc)
        for s, sc, p, o, oc in zip(
            scene.subject_boxes.tolist(), scene.subject_categories.tolist(),
            scene.predicates.tolist(), scene.object_boxes.tolist(),
            scene.object_categories.tolist(),
        )
    ]


def ground_truth(annotations):
    """``GroundTruth`` of the rows ``annotations``."""
    return GroundTruth.of(make_scene("gt", annotations=annotations, width=1e9, height=1e9))
