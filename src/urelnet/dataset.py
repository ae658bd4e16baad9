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
import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, List, Optional, Tuple

import numpy as np

from .errors import DatasetParseError, DatasetValidationError, GeometryError, IngestionError
from .features import EmbeddingTable, FeatureStore
from .scene import ANNOTATION_COLUMNS, SPLITS, BoundingBox, SceneRecord, Vocabulary

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


# The JSON fields of a detection and of an annotation, in SceneRecord's column order.
_DETECTION_KEYS = ("box", "category", "confidence", "feature_key")
_ANNOTATION_KEYS = ("subject_box", "subject_category", "predicate", "object_box", "object_category")
_BOX_KEYS = ("subject_box", "object_box")


def _count(key: str, vocab: Vocabulary) -> int:
    """The bound of an annotation's index field ``key``."""
    return vocab.predicate_count if key == "predicate" else vocab.object_count

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


def _parse_box(raw: dict, key: str, where: str) -> Tuple[float, ...]:
    coords = _field(raw, key, "list", where)
    _require(
        len(coords) == 4 and all(type(v) in _KINDS["number"] for v in coords),
        f"{where}: {key} must be a list of 4 numbers, got {coords!r}",
    )
    try:
        return BoundingBox(*coords).as_tuple()
    except GeometryError as exc:
        raise DatasetValidationError(f"{where}: {exc}") from None


def _parse_detection(raw, vocab: Vocabulary, where: str) -> tuple:
    _require(isinstance(raw, dict), f"{where}: expected a JSON object, got {type(raw).__name__}")
    box = _parse_box(raw, "box", where)
    category = _index(raw, "category", vocab.object_count, where)
    confidence = _field(raw, "confidence", "number", where)
    feature_key = _field(raw, "feature_key", "string", where)
    confidence = float(confidence)
    _require(0.0 < confidence <= 1.0, f"{where}: detection confidence {confidence!r} outside (0, 1]")
    return box, category, confidence, feature_key


def _parse_annotation(raw, vocab: Vocabulary, where: str) -> list:
    _require(isinstance(raw, dict), f"{where}: expected a JSON object, got {type(raw).__name__}")
    return [
        _parse_box(raw, key, where) if key in _BOX_KEYS else _index(raw, key, _count(key, vocab), where)
        for key in _ANNOTATION_KEYS
    ]


def _parse_scene(raw, vocab: Vocabulary, index: int) -> SceneRecord:
    """One scene, field by field: the first bad value raises, named."""
    _require(isinstance(raw, dict), f"scene #{index}: expected a JSON object, got {type(raw).__name__}")
    where = f"scene #{index} ({raw.get('image_id', '?')!r})"
    try:
        image_id = _field(raw, "image_id", "string", where)
        width = _field(raw, "width", "number", where)
        height = _field(raw, "height", "number", where)
        detections = [
            _parse_detection(det, vocab, f"{where}: detection #{d}")
            for d, det in enumerate(_field(raw, "detections", "list", where))
        ]
        annotations = [
            _parse_annotation(ann, vocab, f"{where}: annotation #{a}")
            for a, ann in enumerate(_field(raw, "annotations", "list", where))
        ]
        split = _field(raw, "split", "string", where)
        width, height = float(width), float(height)
    except OverflowError:  # an integer beyond the float range
        raise DatasetValidationError(f"{where}: number too large for a float") from None
    _require(split in SPLITS, f"scene {image_id!r}: split {split!r} not in {SPLITS}")
    _require(
        0 < width < math.inf and 0 < height < math.inf,
        f"scene {image_id!r}: image size must be positive and finite",
    )
    for kind, boxes in (
        ("detection", [det[0] for det in detections]),
        ("annotation", [box for ann in annotations for box in (ann[0], ann[3])]),
    ):
        for box in boxes:
            _require(
                0.0 <= box[0] and 0.0 <= box[1] and box[2] <= width and box[3] <= height,
                f"scene {image_id!r}: {kind} box {box} outside image bounds {width}x{height}",
            )
    columns = [*zip(*detections)] or [()] * 4
    columns += [*zip(*annotations)] or [()] * 5
    return SceneRecord(image_id, width, height, split, *columns)


def _check(ok) -> None:
    if not ok:
        raise ValueError("a column check failed")


def _exact(values: Iterable, *kinds: type) -> None:
    """Every value's type is one of ``kinds``; so a bool is not a number."""
    _check(set(map(type, values)) <= set(kinds))


def _index_column(values: list, count: int) -> np.ndarray:
    _exact(values, int)
    column = np.array(values, dtype=np.intp)
    _check(((0 <= column) & (column < count)).all())
    return column


def _box_column(values: list, owners: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Finite, non-degenerate boxes inside the image of their scene."""
    _exact(values, list)
    _check(set(map(len, values)) <= {4})
    _exact(chain.from_iterable(values), *_KINDS["number"])
    boxes = np.array(values, dtype=np.float64).reshape(-1, 4)
    _check(np.isfinite(boxes).all() and (boxes[:, 2:] > boxes[:, :2]).all())
    _check((boxes[:, :2] >= 0.0).all() and (boxes[:, 2:] <= sizes[owners]).all())
    return boxes


def _column_scenes(scenes_raw: list, vocab: Vocabulary) -> List[SceneRecord]:
    """The scenes of ``scenes_raw``, read as columns: each field is gathered
    across the document and checked at once, for everything
    ``_parse_scene`` checks. Raises on the first column that fails a check
    or does not gather; ``_parse_scene`` then finds the value and names it."""
    ids, splits = [s["image_id"] for s in scenes_raw], [s["split"] for s in scenes_raw]
    sizes = [(s["width"], s["height"]) for s in scenes_raw]
    dets, anns = [s["detections"] for s in scenes_raw], [s["annotations"] for s in scenes_raw]
    _exact(ids + splits, str)
    _check(set(splits) <= set(SPLITS))
    _exact(chain.from_iterable(sizes), *_KINDS["number"])
    sizes = np.array(sizes, dtype=np.float64).reshape(-1, 2)
    _check(((0.0 < sizes) & (sizes < math.inf)).all())
    _exact(dets + anns, list)
    det_counts, ann_counts = [len(d) for d in dets], [len(a) for a in anns]
    dets, anns = [*chain.from_iterable(dets)], [*chain.from_iterable(anns)]
    det_owners = np.repeat(np.arange(len(scenes_raw)), det_counts)
    ann_owners = np.repeat(np.arange(len(scenes_raw)), ann_counts)
    boxes = _box_column([d["box"] for d in dets], det_owners, sizes)
    categories = _index_column([d["category"] for d in dets], vocab.object_count)
    confidences, keys = [d["confidence"] for d in dets], [d["feature_key"] for d in dets]
    _exact(confidences, *_KINDS["number"])
    _exact(keys, str)
    confidences = np.array(confidences, dtype=np.float64)
    _check(((0.0 < confidences) & (confidences <= 1.0)).all())
    annotations = [
        _box_column([a[key] for a in anns], ann_owners, sizes) if key in _BOX_KEYS
        else _index_column([a[key] for a in anns], _count(key, vocab))
        for key in _ANNOTATION_KEYS
    ]
    det_ends, ann_ends = np.cumsum([0] + det_counts).tolist(), np.cumsum([0] + ann_counts).tolist()
    scenes = []
    for i, (w, h) in enumerate(sizes.tolist()):
        d, a = slice(det_ends[i], det_ends[i + 1]), slice(ann_ends[i], ann_ends[i + 1])
        scenes.append(SceneRecord(
            ids[i], w, h, splits[i], boxes[d], categories[d], confidences[d], keys[d],
            *(column[a] for column in annotations),
        ))
    return scenes


def load_dataset(path) -> Dataset:
    """Load and validate a dataset directory (or its dataset.json path)."""
    path = Path(path)
    root = path if path.is_dir() else path.parent
    doc_path = path / DATASET_FILE if path.is_dir() else path
    try:
        fh = open(doc_path, "r", encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise IngestionError(f"dataset file not found or unreadable: {exc}") from None
    try:
        with fh:
            raw = json.load(fh)
    except OSError as exc:
        raise IngestionError(f"dataset file unreadable: {exc}") from None
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
    try:
        scenes = _column_scenes(scenes_raw, vocab)
    except (KeyError, TypeError, ValueError, OverflowError):  # the scan names the value
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
        for d, key in enumerate(scene.feature_keys):
            if key not in features.index:
                raise DatasetValidationError(
                    f"scene {scene.image_id!r}: detection #{d} references missing feature {key!r}"
                )
    embeddings = None
    if emb_name:
        embeddings = EmbeddingTable.from_file(root / emb_name)
    return Dataset(vocabulary=vocab, scenes=scenes, features=features, embeddings=embeddings)


def _scene_to_json(scene: SceneRecord) -> dict:
    detections = (scene.boxes.tolist(), scene.categories.tolist(), scene.confidences.tolist(),
                  scene.feature_keys)
    annotations = (getattr(scene, name).tolist() for name, _, _ in ANNOTATION_COLUMNS)
    return {
        "image_id": scene.image_id,
        "width": scene.width,
        "height": scene.height,
        "split": scene.split,
        "detections": [dict(zip(_DETECTION_KEYS, row)) for row in zip(*detections)],
        "annotations": [dict(zip(_ANNOTATION_KEYS, row)) for row in zip(*annotations)],
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
