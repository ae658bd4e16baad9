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


# Accepted Python types of each JSON kind; booleans are not integers here.
_KINDS = {"integer": (int,), "number": (int, float), "string": (str,), "list": (list,)}


def _field(raw: dict, key: str, kind: str, where: str):
    """``raw[key]``, which must be present and a JSON ``kind``."""
    _require(key in raw, f"{where}: missing field {key!r}")
    value = raw[key]
    _require(
        type(value) in _KINDS[kind],
        f"{where}: {key} must be a JSON {kind}, got {type(value).__name__}",
    )
    return value


def _index(raw: dict, key: str, count: int, where: str) -> int:
    value = _field(raw, key, "integer", where)
    _require(0 <= value < count, f"{where}: {key} {value} out of range [0, {count})")
    return value


def _parse_box(raw: dict, key: str, where: str) -> BoundingBox:
    coords = _field(raw, key, "list", where)
    _require(
        len(coords) == 4 and all(type(v) in _KINDS["number"] for v in coords),
        f"{where}: {key} must be a list of 4 numbers, got {coords!r}",
    )
    try:
        return BoundingBox(*coords)
    except GeometryError as exc:
        raise DatasetValidationError(f"{where}: {exc}") from None


def _parse_detection(raw, vocab: Vocabulary, where: str) -> DetectedObject:
    _require(isinstance(raw, dict), f"{where}: expected a JSON object, got {type(raw).__name__}")
    box = _parse_box(raw, "box", where)
    category = _index(raw, "category", vocab.object_count, where)
    confidence = _field(raw, "confidence", "number", where)
    feature_key = _field(raw, "feature_key", "string", where)
    try:
        return DetectedObject(box, category, confidence, feature_key)
    except DatasetValidationError as exc:
        raise DatasetValidationError(f"{where}: {exc}") from None


def _parse_annotation(raw, vocab: Vocabulary, where: str) -> AnnotatedTriplet:
    _require(isinstance(raw, dict), f"{where}: expected a JSON object, got {type(raw).__name__}")
    return AnnotatedTriplet(
        subject_box=_parse_box(raw, "subject_box", where),
        subject_category=_index(raw, "subject_category", vocab.object_count, where),
        predicate=_index(raw, "predicate", vocab.predicate_count, where),
        object_box=_parse_box(raw, "object_box", where),
        object_category=_index(raw, "object_category", vocab.object_count, where),
    )


def _parse_scene(raw, vocab: Vocabulary, index: int) -> SceneRecord:
    _require(isinstance(raw, dict), f"scene #{index}: expected a JSON object, got {type(raw).__name__}")
    where = f"scene #{index} ({raw.get('image_id', '?')!r})"
    try:
        return SceneRecord(
            image_id=_field(raw, "image_id", "string", where),
            width=_field(raw, "width", "number", where),
            height=_field(raw, "height", "number", where),
            detections=tuple(
                _parse_detection(det, vocab, f"{where}: detection #{d}")
                for d, det in enumerate(_field(raw, "detections", "list", where))
            ),
            annotations=tuple(
                _parse_annotation(ann, vocab, f"{where}: annotation #{a}")
                for a, ann in enumerate(_field(raw, "annotations", "list", where))
            ),
            split=_field(raw, "split", "string", where),
        )
    except OverflowError:  # an integer beyond the float range
        raise DatasetValidationError(f"{where}: number too large for a float") from None


def load_dataset(path) -> Dataset:
    """Load and validate a dataset directory (or its dataset.json path)."""
    path = Path(path)
    root = path if path.is_dir() else path.parent
    doc_path = path / DATASET_FILE if path.is_dir() else path
    try:
        with open(doc_path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise IngestionError(f"dataset file not found or unreadable: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DatasetParseError(f"{doc_path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except ValueError as exc:  # not UTF-8, or an integer literal too long to convert
        raise DatasetParseError(f"{doc_path}: {exc}") from None
    _require(isinstance(raw, dict), f"{doc_path}: expected a JSON object, got {type(raw).__name__}")
    version = raw.get("schema_version")
    _require(
        type(version) is int and version == SCHEMA_VERSION,
        f"unsupported schema_version {version!r}",
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

    # File names default to the standard ones; no embeddings_file, no table.
    files = {"features_file": FEATURES_FILE, "features_index_file": FEATURES_INDEX_FILE,
             "embeddings_file": "", **raw}
    features_name, index_name, emb_name = (
        _field(files, key, "string", str(doc_path))
        for key in ("features_file", "features_index_file", "embeddings_file")
    )
    declared_dim = None
    if "feature_dim" in raw:
        declared_dim = _field(raw, "feature_dim", "integer", str(doc_path))
    features = FeatureStore.from_files(root / features_name, root / index_name)
    if declared_dim is not None and declared_dim != features.dim:
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
