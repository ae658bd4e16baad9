"""Dataset file format: one JSON document plus feature and embedding files.

``dataset.json`` holds the vocabulary and scenes and names the sibling
files: a flat binary of little-endian float64 visual feature rows with a
JSON sidecar index, and optionally a plain-text embedding table. Feature
keys follow fixed conventions: ``{image_id}|det|{i}`` and
``{image_id}|gt|{i}`` for boxes, ``{image_id}|union|det|{i}|{j}`` and
``{image_id}|union|gt|{i}|{j}`` for pair union boxes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

from .errors import DatasetParseError, DatasetValidationError, GeometryError, IngestionError
from .features import EmbeddingTable, FeatureStore
from .scene import (
    AnnotatedTriplet,
    BoundingBox,
    DetectedObject,
    SceneRecord,
    Vocabulary,
)

SCHEMA_VERSION = 1

DATASET_FILE = "dataset.json"
FEATURES_FILE = "features.bin"
FEATURES_INDEX_FILE = "features.idx.json"
EMBEDDINGS_FILE = "embeddings.txt"


@dataclass
class Dataset:
    """Fully validated in-memory dataset."""

    vocabulary: Vocabulary
    scenes: List[SceneRecord]
    features: FeatureStore
    embeddings: Optional[EmbeddingTable] = None

    def split(self, name: str) -> List[SceneRecord]:
        return [s for s in self.scenes if s.split == name]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise DatasetValidationError(message)


def _parse_box(raw, where: str) -> BoundingBox:
    _require(
        isinstance(raw, list) and len(raw) == 4,
        f"{where}: box must be a 4-element list, got {raw!r}",
    )
    return BoundingBox(*(float(v) for v in raw))


def _parse_scene(raw: dict, vocab: Vocabulary, index: int) -> SceneRecord:
    _require(
        isinstance(raw, dict), f"scene #{index}: expected a JSON object, got {type(raw).__name__}"
    )
    where = f"scene #{index} ({raw.get('image_id', '?')!r})"
    for key in ("image_id", "width", "height", "split", "detections", "annotations"):
        _require(key in raw, f"{where}: missing field {key!r}")
    try:
        detections = []
        for d, det in enumerate(raw["detections"]):
            dw = f"{where}: detection #{d}"
            for key in ("box", "category", "confidence", "feature_key"):
                _require(key in det, f"{dw}: missing field {key!r}")
            _require(
                0 <= det["category"] < vocab.object_count,
                f"{dw}: category {det['category']} out of range [0, {vocab.object_count})",
            )
            try:
                detections.append(
                    DetectedObject(
                        box=_parse_box(det["box"], dw),
                        category=int(det["category"]),
                        confidence=float(det["confidence"]),
                        feature_key=str(det["feature_key"]),
                    )
                )
            except (GeometryError, DatasetValidationError) as exc:
                raise DatasetValidationError(f"{dw}: {exc}") from None
        annotations = []
        for a, ann in enumerate(raw["annotations"]):
            aw = f"{where}: annotation #{a}"
            for key in ("subject_box", "subject_category", "predicate",
                        "object_box", "object_category"):
                _require(key in ann, f"{aw}: missing field {key!r}")
            _require(
                0 <= ann["subject_category"] < vocab.object_count,
                f"{aw}: subject_category {ann['subject_category']} out of range",
            )
            _require(
                0 <= ann["object_category"] < vocab.object_count,
                f"{aw}: object_category {ann['object_category']} out of range",
            )
            _require(
                0 <= ann["predicate"] < vocab.predicate_count,
                f"{aw}: predicate {ann['predicate']} out of range",
            )
            try:
                annotations.append(
                    AnnotatedTriplet(
                        subject_box=_parse_box(ann["subject_box"], aw),
                        subject_category=int(ann["subject_category"]),
                        predicate=int(ann["predicate"]),
                        object_box=_parse_box(ann["object_box"], aw),
                        object_category=int(ann["object_category"]),
                    )
                )
            except (GeometryError, DatasetValidationError) as exc:
                raise DatasetValidationError(f"{aw}: {exc}") from None
        return SceneRecord(
            image_id=str(raw["image_id"]),
            width=float(raw["width"]),
            height=float(raw["height"]),
            detections=tuple(detections),
            annotations=tuple(annotations),
            split=str(raw["split"]),
        )
    except (TypeError, ValueError) as exc:
        raise DatasetValidationError(f"{where}: malformed value ({exc})") from None


def load_dataset(path) -> Dataset:
    """Load and validate a dataset directory (or its dataset.json path)."""
    path = Path(path)
    root = path if path.is_dir() else path.parent
    doc_path = path / DATASET_FILE if path.is_dir() else path
    try:
        with open(doc_path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise IngestionError(f"dataset file not found: {doc_path}") from None
    except json.JSONDecodeError as exc:
        raise DatasetParseError(f"{doc_path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    _require(isinstance(raw, dict), f"{doc_path}: expected a JSON object, got {type(raw).__name__}")
    _require(
        raw.get("schema_version") == SCHEMA_VERSION,
        f"unsupported schema_version {raw.get('schema_version')!r}",
    )
    vocab_raw = raw.get("vocabulary", {})
    _require(isinstance(vocab_raw, dict), "vocabulary must be a JSON object")
    objects, predicates = vocab_raw.get("objects", []), vocab_raw.get("predicates", [])
    _require(
        all(
            isinstance(names, list) and all(isinstance(n, str) for n in names)
            for names in (objects, predicates)
        ),
        "vocabulary objects and predicates must be lists of names",
    )
    vocab = Vocabulary(tuple(objects), tuple(predicates))
    scenes_raw = raw.get("scenes", [])
    _require(isinstance(scenes_raw, list), "scenes must be a JSON list")
    scenes = [_parse_scene(s, vocab, i) for i, s in enumerate(scenes_raw)]
    ids = [s.image_id for s in scenes]
    _require(len(set(ids)) == len(ids), "duplicate image_id values in dataset")

    features = FeatureStore.from_files(
        root / raw.get("features_file", FEATURES_FILE),
        root / raw.get("features_index_file", FEATURES_INDEX_FILE),
    )
    declared_dim = raw.get("feature_dim")
    if declared_dim is not None and int(declared_dim) != features.dim:
        raise DatasetValidationError(
            f"feature_dim {declared_dim} does not match feature file dim {features.dim}"
        )
    for scene in scenes:
        for d, det in enumerate(scene.detections):
            if det.feature_key not in features:
                raise DatasetValidationError(
                    f"scene {scene.image_id!r}: detection #{d} references "
                    f"missing feature {det.feature_key!r}"
                )
    embeddings = None
    emb_name = raw.get("embeddings_file")
    if emb_name:
        embeddings = EmbeddingTable.from_file(root / emb_name)
    return Dataset(vocabulary=vocab, scenes=scenes, features=features, embeddings=embeddings)


def _scene_to_json(scene: SceneRecord) -> dict:
    return {
        "image_id": scene.image_id,
        "width": scene.width,
        "height": scene.height,
        "split": scene.split,
        "detections": [
            {
                "box": list(d.box.as_tuple()),
                "category": d.category,
                "confidence": d.confidence,
                "feature_key": d.feature_key,
            }
            for d in scene.detections
        ],
        "annotations": [
            {
                "subject_box": list(a.subject_box.as_tuple()),
                "subject_category": a.subject_category,
                "predicate": a.predicate,
                "object_box": list(a.object_box.as_tuple()),
                "object_category": a.object_category,
            }
            for a in scene.annotations
        ],
    }


def save_dataset(dataset: Dataset, out_dir) -> Path:
    """Write dataset.json plus feature (and embedding) files; returns the dir."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "vocabulary": {
            "objects": list(dataset.vocabulary.object_names),
            "predicates": list(dataset.vocabulary.predicate_names),
        },
        "feature_dim": dataset.features.dim,
        "features_file": FEATURES_FILE,
        "features_index_file": FEATURES_INDEX_FILE,
        "scenes": [_scene_to_json(s) for s in dataset.scenes],
    }
    if dataset.embeddings is not None:
        doc["embeddings_file"] = EMBEDDINGS_FILE
        dataset.embeddings.save(out_dir / EMBEDDINGS_FILE)
    dataset.features.save(out_dir / FEATURES_FILE, out_dir / FEATURES_INDEX_FILE)
    with open(out_dir / DATASET_FILE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
    return out_dir
