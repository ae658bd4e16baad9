"""Per-pair feature extraction: visual (ingested), spatial, linguistic.

Visual vectors are rows of a feature store's one table, ingested, never
computed here.
Spatial features are the 8 closed-form union-relative box offsets. The
internal linguistic feature is a smoothed predicate distribution estimated
from training-set triplet frequencies; the external one averages word
vectors of the (lowercased) category name tokens. Both depend only on
categories, so each is tabulated once, (N, N, M) internal and (N, E)
external. A scene's ``ScenePairs`` carry its object table (boxes and
categories, one row per object) and index it, so every object's box,
category and feature row number is read once; only the union key is
resolved per pair. Every stream but spatial indexes a shared table, which a
``FeatureMatrix`` holds without copying. The four streams that read one box
(subject and object visual and external vectors) index it twice: each
object's row number, and each pair's subject or object number, so the model
can transform each object's row once. The training pool and scoring build
their matrices alike.
"""

from __future__ import annotations

import json
import mmap
import os
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Dict, Iterable, Sequence, Set, Tuple

import numpy as np

from .errors import DatasetValidationError, DimensionError, GeometryError, IngestionError
from .nn import all_finite
from .pairs import ScenePairs
from .scene import SceneRecord, Vocabulary, union_rows

SPATIAL_DIM = 8

# float64 values read and checked at a time when a feature file is loaded:
# 1 MiB, one reused buffer.
LOAD_BLOCK = 1 << 17

# Canonical stream order used for batched matrices and model wiring.
STREAMS = (
    "visual_subject",
    "visual_object",
    "visual_union",
    "spatial",
    "external_subject",
    "external_object",
    "internal",
)

# Streams that read one box, each with the pair role whose box it reads.
ONE_BOX_STREAMS = {
    "visual_subject": "subject",
    "visual_object": "object",
    "external_subject": "subject",
    "external_object": "object",
}


def spatial_rows(subjects: np.ndarray, objects: np.ndarray) -> np.ndarray:
    """(P, 8) rows of subject and object corner offsets relative to their union.

    ``subjects`` and ``objects`` are (P, 4) arrays of (x_min, y_min, x_max,
    y_max). Entries are (min-corner and max-corner offsets) / union extent,
    subject first then object. Invariant under joint translation and uniform
    scaling; swapping the roles swaps the two halves.
    """
    union = union_rows(subjects, objects)
    extent = union[:, 2:] - union[:, :2]
    if not (extent > 0).all():
        row = int(np.flatnonzero(~(extent > 0).all(axis=1))[0])
        raise GeometryError(f"degenerate union box {tuple(union[row].tolist())}")
    return np.hstack([subjects - union, objects - union]) / np.tile(extent, 4)


@dataclass
class TripletStatistics:
    """Raw (subject, predicate, object) co-occurrence counts from training data."""

    counts: np.ndarray  # (N, M, N) int64

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 3 or self.counts.shape[0] != self.counts.shape[2]:
            raise DimensionError(f"counts must be (N, M, N), got {self.counts.shape}")
        if (self.counts < 0).any():
            raise DatasetValidationError("negative triplet counts")
        self.total = int(self.counts.sum())

    @property
    def object_count(self) -> int:
        return self.counts.shape[0]

    @property
    def predicate_count(self) -> int:
        return self.counts.shape[1]

    @cached_property
    def internal_table(self) -> np.ndarray:
        """(N, N, M) read-only table of the internal linguistic feature of
        every (subject, object) category pair, built on first use.

        Entry (s, o) is the smoothed predicate distribution given the pair's
        categories. It factorizes as P(p) * P(s|p) * P(o|p) with add-one
        smoothing on every factor, renormalized; smoothing keeps unseen
        category pairs strictly positive."""
        n, m = self.object_count, self.predicate_count
        cp = self.counts.sum(axis=(0, 2)).astype(np.float64)
        prior = (cp + 1.0) / (self.total + m)
        subj = (self.counts.sum(axis=2) + 1.0) / (cp + n)
        obj = (self.counts.sum(axis=0).T + 1.0) / (cp + n)
        raw = ((prior * subj)[:, None, :] * obj[None, :, :]).reshape(n * n, m)
        # Each row by its own 1-D sum: a sum over the last axis of the whole
        # array adds in another order and can differ in the last bit.
        sums = np.array([row.sum() for row in raw])
        table = (raw / sums[:, None]).reshape(n, n, m)
        table.flags.writeable = False
        return table

    def triplet_types(self) -> Set[Tuple[int, int, int]]:
        s, p, o = np.nonzero(self.counts)
        return {(int(a), int(b), int(c)) for a, b, c in zip(s, p, o)}

    def to_json_dict(self) -> dict:
        s, p, o = np.nonzero(self.counts)
        entries = sorted(
            [int(a), int(b), int(c), int(self.counts[a, b, c])]
            for a, b, c in zip(s, p, o)
        )
        return {
            "schema_version": 1,
            "object_count": self.object_count,
            "predicate_count": self.predicate_count,
            "total": self.total,
            "counts": entries,
        }


def build_triplet_statistics(
    scenes: Iterable[SceneRecord], vocab: Vocabulary
) -> TripletStatistics:
    """Count every training annotation occurrence (duplicates count multiply).

    The first fault in scene order is raised: a scene's split, then each of
    its annotations' subject category, object category and predicate."""
    scenes = list(scenes)
    n, m = vocab.object_count, vocab.predicate_count
    checks = (
        ("subject category", "subject_categories", n),
        ("object category", "object_categories", n),
        ("predicate", "predicates", m),
    )
    columns = {
        name: np.concatenate([np.empty(0, np.intp)] + [getattr(s, name) for s in scenes])
        for _, name, _ in checks
    }
    bad = np.stack([(columns[name] < 0) | (columns[name] >= count) for _, name, count in checks], 1)
    owners = np.repeat(np.arange(len(scenes)), [len(s.predicates) for s in scenes])
    row = int(bad.any(axis=1).argmax()) if bad.any() else None
    for scene in scenes[: len(scenes) if row is None else owners[row] + 1]:
        if scene.split != "train":
            raise DatasetValidationError(
                f"scene {scene.image_id!r} has split {scene.split!r}; "
                "statistics are built from the train split only"
            )
    if row is not None:
        what, name, count = checks[int(bad[row].argmax())]
        raise IngestionError(
            f"scene {scenes[owners[row]].image_id!r}: {what} {columns[name][row]} "
            f"out of range [0, {count})"
        )
    counts = np.zeros((n, m, n), dtype=np.int64)
    np.add.at(counts, (columns["subject_categories"], columns["predicates"],
                       columns["object_categories"]), 1)
    return TripletStatistics(counts)


class EmbeddingTable:
    """Token -> vector table loaded from a plain-text embedding file."""

    def __init__(self, vectors: Dict[str, np.ndarray], dim: int):
        self.vectors = vectors
        self.dim = dim

    @classmethod
    def from_file(cls, path) -> "EmbeddingTable":
        """Parse "token v1 v2 ... vD" lines; dimension fixed by the first line."""
        vectors: Dict[str, np.ndarray] = {}
        dim = None
        try:
            fh = open(path, "r", encoding="utf-8")
        except (OSError, ValueError) as exc:
            raise IngestionError(f"embedding file not found or unreadable: {exc}") from None
        try:
            with fh:
                for lineno, line in enumerate(fh, start=1):
                    parts = line.split()
                    if not parts:
                        continue
                    token, values = parts[0], parts[1:]
                    try:
                        vec = np.array([float(v) for v in values], dtype=np.float64)
                    except ValueError as exc:
                        raise IngestionError(
                            f"{path}: line {lineno}: non-numeric embedding value ({exc})"
                        ) from None
                    if not np.isfinite(vec).all():
                        raise IngestionError(f"{path}: line {lineno}: non-finite embedding value")
                    if dim is None:
                        dim = len(vec)
                        if dim == 0:
                            raise IngestionError(f"{path}: line {lineno}: empty vector")
                    elif len(vec) != dim:
                        raise IngestionError(
                            f"{path}: line {lineno}: expected {dim} values, got {len(vec)}"
                        )
                    vectors[token] = vec
        except UnicodeDecodeError as exc:
            raise IngestionError(f"{path}: not UTF-8 text ({exc.reason})") from None
        if dim is None:
            raise IngestionError(f"{path}: no embedding entries found")
        return cls(vectors, dim)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for token in sorted(self.vectors):
                values = " ".join(repr(float(v)) for v in self.vectors[token])
                fh.write(f"{token} {values}\n")


def external_linguistic(embeddings: EmbeddingTable, category_name: str) -> np.ndarray:
    """Mean of the name's token vectors; unknown tokens contribute zeros.

    Names are lowercased before lookup. A name with no known token maps to
    the all-zero vector.
    """
    tokens = category_name.lower().split()
    out = np.zeros(embeddings.dim, dtype=np.float64)
    if not tokens:
        return out
    for token in tokens:
        if token in embeddings.vectors:
            out += embeddings.vectors[token]
    return out / len(tokens)


class FeatureStore:
    """Visual feature vectors: one read-only (count, dim) little-endian
    float64 table and a key -> row index.

    On disk the table is ``features.bin``, written as it is held, and the
    index is the ``keys`` map of the JSON sidecar. A loaded table is a
    read-only memory map of the file, so only the rows a run reads become
    resident; ``save`` writes a new file rather than rewriting the old one,
    so a table mapped from the old file keeps its bytes.
    """

    def __init__(self, table: np.ndarray, index: Dict[str, int]):
        # A view, so the caller's array keeps its own flags.
        self.table = np.asarray(table, dtype="<f8").view()
        self.table.flags.writeable = False
        self.index = index

    @property
    def dim(self) -> int:
        return self.table.shape[1]

    def __contains__(self, key: str) -> bool:
        return key in self.index

    def __len__(self) -> int:
        return len(self.index)

    def lookup(self, keys: Iterable[str]) -> np.ndarray:
        """Row numbers of ``keys`` in ``table``."""
        try:
            return np.array(list(map(self.index.__getitem__, keys)), dtype=np.intp)
        except KeyError as exc:
            key = exc.args[0]
            raise IngestionError(f"missing visual feature vector for key {key!r}") from None

    @classmethod
    def from_files(cls, data_path, index_path) -> "FeatureStore":
        """Load and validate a store: every index row must be in range and
        every feature value finite. The file is read once, in blocks, to
        check it, and then mapped."""
        try:
            fh = open(index_path, "r", encoding="utf-8")
        except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
            raise IngestionError(f"feature index file not found or unreadable: {exc}") from None
        try:
            with fh:
                index = json.load(fh)
            dim = index["dim"]
            if type(dim) is not int or dim <= 0:
                raise ValueError(f"dim must be a positive integer, got {dim!r}")
            keys = index["keys"]
            count, rows = len(keys), list(keys.values())
            bad = []
            if not (set(map(type, rows)) <= {int} and 0 <= min(rows, default=0)
                    and max(rows, default=-1) < count):
                bad = [k for k, row in keys.items() if type(row) is not int or not 0 <= row < count]
        except OSError as exc:
            raise IngestionError(f"feature index file not found or unreadable: {exc}") from None
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise IngestionError(f"{index_path}: malformed feature index ({exc!r})") from None
        if bad:
            raise IngestionError(
                f"{index_path}: key {bad[0]!r} has row {keys[bad[0]]!r}, "
                f"outside [0, {count})"
            )
        try:
            with open(data_path, "rb", buffering=0) as fh:
                table = _checked_map(fh, data_path, count, dim)
        except (OSError, ValueError) as exc:
            raise IngestionError(f"feature file not found or unreadable: {exc}") from None
        return cls(table, keys)

    def save(self, data_path, index_path) -> None:
        """Write the table and the index. The table goes to a new file: the
        old one is unlinked first, so a store mapped from it keeps its bytes."""
        # Unlinking first, not writing a temporary file and renaming it over
        # the old one, frees an unmapped old file's pages before the write
        # needs as many. The rename keeps both copies at once, which made a
        # 271 MB save about three times slower on a 2-vCPU VM.
        Path(data_path).unlink(missing_ok=True)
        self.table.tofile(data_path)
        index = {
            "schema_version": 1,
            "dim": self.dim,
            "count": len(self.index),
            "keys": self.index,
        }
        with open(index_path, "w", encoding="utf-8") as fh:
            json.dump(index, fh, sort_keys=True, indent=1)


def _size_error(data_path, size: int, count: int, dim: int) -> IngestionError:
    """The error for a feature file of ``size`` bytes where a (count, dim)
    table was expected."""
    expected = count * dim
    # A partial value past a whole table is named, or the two counts would read equal.
    stray = f" and {size % 8} more bytes" if size // 8 == expected else ""
    return IngestionError(
        f"{data_path}: expected {expected} float64 values "
        f"({count} rows x {dim}), found {size // 8}{stray}"
    )


def _checked_map(fh, data_path, count: int, dim: int) -> np.ndarray:
    """The (count, dim) table of the open file ``fh``, mapped read-only.

    Before mapping, the file's size must be the table's, and one pass of
    ``LOAD_BLOCK``-value reads into one buffer checks every value is
    finite. A file that ends early while it is read is a size error.
    """
    expected = count * dim
    size = os.fstat(fh.fileno()).st_size
    if size != expected * 8:
        raise _size_error(data_path, size, count, dim)
    if expected == 0:  # mmap rejects an empty file
        return np.empty((0, dim), dtype="<f8")
    block = np.empty(min(expected, LOAD_BLOCK), dtype="<f8")
    raw = memoryview(block).cast("B")
    for start in range(0, expected, len(block)):
        values = block[: min(len(block), expected - start)]
        filled = 0
        while filled < values.nbytes:
            read = fh.readinto(raw[filled : values.nbytes])
            if not read:
                raise _size_error(data_path, os.fstat(fh.fileno()).st_size, count, dim)
            filled += read
        if not all_finite(values):
            first = start + int(np.flatnonzero(~np.isfinite(values))[0])
            raise IngestionError(f"{data_path}: non-finite values in feature row {first // dim}")
    mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    return np.frombuffer(mapped, dtype="<f8", count=expected).reshape(count, dim)


@dataclass
class FeatureMatrix:
    """Batched feature streams, one row per pair.

    A stream named in ``index`` is held as a table that the matrix shares
    and never copies; the other streams (spatial) hold their own rows. Pair
    p reads row ``index[name][p]`` of the table, unless the stream is also
    in ``objects``: a one-box stream holds each object's row number in
    ``objects[name]``, and ``index[name][p]`` is then pair p's subject or
    object number, so the model can transform each object's row once.
    Indexing by name and ``rows`` always hand out one row per pair.
    """

    streams: Dict[str, np.ndarray]
    index: Dict[str, np.ndarray] = field(default_factory=dict)
    objects: Dict[str, np.ndarray] = field(default_factory=dict)

    def _table_rows(self, name: str, pairs=None) -> np.ndarray:
        """Stream ``name``'s rows of the pairs numbered ``pairs``, or of
        every pair."""
        table, at = self.streams[name], self.index.get(name)
        if at is None:
            return table if pairs is None else table[pairs]
        if pairs is not None:
            at = at[pairs]
        objects = self.objects.get(name)
        return table[at if objects is None else objects[at]]

    def __getitem__(self, name: str) -> np.ndarray:
        if name not in self.streams:
            raise DimensionError(
                f"feature stream {name!r} was not assembled "
                f"(available: {sorted(self.streams)})"
            )
        return self._table_rows(name)

    def shape(self, name: str) -> Tuple[int, ...]:
        """The per-pair shape of stream ``name``, without gathering it."""
        index = self.index.get(name)
        if index is None:
            return self[name].shape
        return (len(index),) + self.streams[name].shape[1:]

    @property
    def count(self) -> int:
        return self.shape(next(iter(self.streams)))[0]

    def rows(self, indices) -> "FeatureMatrix":
        return FeatureMatrix({name: self._table_rows(name, indices) for name in self.streams})

    @classmethod
    def concatenate(cls, matrices: Sequence["FeatureMatrix"]) -> "FeatureMatrix":
        """The pairs of ``matrices``, in order. Every matrix must index the
        same streams, each over the same shared table, which is kept; each
        matrix's object numbers are offset past the objects before it, and
        the row numbers are joined. The other streams' rows are stacked.
        One matrix is returned as it is."""
        first = matrices[0]
        if any(m.streams.keys() != first.streams.keys() or m.index.keys() != first.index.keys()
               or m.objects.keys() != first.objects.keys() for m in matrices):
            raise DimensionError("the matrices do not index the same streams")
        if len(matrices) == 1:
            return first
        streams, index, objects = {}, {}, {}
        for name, table in first.streams.items():
            if name not in first.index:
                streams[name] = np.concatenate([m.streams[name] for m in matrices])
                continue
            if any(m.streams[name] is not table for m in matrices):
                raise DimensionError(f"the matrices index different tables for stream {name!r}")
            streams[name] = table
            index[name] = np.concatenate([m.index[name] for m in matrices])
            if name in first.objects:
                offsets = np.cumsum([0] + [len(m.objects[name]) for m in matrices[:-1]])
                index[name] += np.repeat(offsets, [len(m.index[name]) for m in matrices])
                objects[name] = np.concatenate([m.objects[name] for m in matrices])
        return cls(streams, index, objects)


def _check_categories(pairs: ScenePairs, count: int) -> None:
    """Reject a pair whose subject or object category is outside [0, count)."""
    bad = (pairs.categories < 0) | (pairs.categories >= count)
    for role in ("subject", "object"):
        used = getattr(pairs, f"{role}_indices")
        wrong = pairs.categories[used[bad[used]]]
        if wrong.size:
            raise IngestionError(f"{role} category {wrong[0]} out of range [0, {count})")


class FeatureExtractor:
    """Assembles batched feature matrices from the store, statistics, and embeddings.

    Every stream but spatial is a row gather from one table: the store's
    visual table, the statistics' internal table viewed as (N * N, M) rows,
    or an (N, E) table of external embeddings built here once. ``matrix``
    indexes them for a scene's pairs, for the training pool and for scoring.
    """

    def __init__(
        self,
        store: FeatureStore,
        stats: TripletStatistics,
        embeddings: EmbeddingTable | None,
        vocab: Vocabulary,
    ):
        self.store = store
        self.stats = stats
        self._external_table = None if embeddings is None else np.stack(
            [external_linguistic(embeddings, name) for name in vocab.object_names]
        )

    @cached_property
    def _internal_rows(self) -> np.ndarray:
        """The internal table as (N * N, M) rows; row s * N + o is (s, o)'s."""
        return self.stats.internal_table.reshape(-1, self.stats.predicate_count)

    @staticmethod
    def check_embeddings(streams: Iterable[str], embeddings) -> None:
        """Reject external linguistic streams when ``embeddings`` (a table or
        the table built from it) is None."""
        if embeddings is None and any(name.startswith("external_") for name in streams):
            raise IngestionError(
                "external linguistic features requested but no embedding table loaded"
            )

    def _sources(
        self, names: Sequence[str], pairs: ScenePairs, scene
    ) -> Dict[str, Tuple[np.ndarray, np.ndarray | None]]:
        """Each stream's (table, row numbers). A one-box stream reads one row
        per object of ``pairs``, and its subject and object streams share
        them; the other streams read one row per pair. Spatial rows are
        computed, so they are their own table, with no row numbers."""
        _check_categories(pairs, self.stats.object_count)
        self.check_embeddings(names, self._external_table)
        sources = {}
        per_object = {}
        for name in names:
            role = ONE_BOX_STREAMS.get(name)
            if role is None:
                sources[name] = self._pair_source(name, pairs, scene)
                continue
            modality = name[: -len(role) - 1]
            if modality not in per_object:
                per_object[modality] = self._object_source(modality, pairs, scene)
            sources[name] = per_object[modality]
        return sources

    def _pair_source(self, name: str, pairs: ScenePairs, scene):
        """The table and (P,) row numbers of a stream that reads both boxes."""
        subjects, objects = pairs.subject_indices, pairs.object_indices
        if name == "spatial":
            return spatial_rows(pairs.boxes[subjects], pairs.boxes[objects]), None
        if name == "internal":
            n = self.stats.object_count
            return self._internal_rows, pairs.categories[subjects] * n + pairs.categories[objects]
        if name == "visual_union":
            return self.store.table, self._rows(pairs.union_keys, scene, "pair")
        raise DimensionError(f"unknown feature stream {name!r}")

    def _object_source(self, modality: str, pairs: ScenePairs, scene):
        """The table and (D,) row numbers of every object for a one-box stream."""
        if modality == "visual":
            return self.store.table, self._rows(pairs.feature_keys, scene, "object")
        # An object that no pair reads was not range-checked; its row is never read.
        return self._external_table, np.clip(pairs.categories, 0, len(self._external_table) - 1)

    def _rows(self, keys: Sequence[str | None], scene, what: str) -> np.ndarray:
        """The store's row numbers of ``keys``."""
        if None in keys:
            missing = f"{what} {keys.index(None)}"
            raise IngestionError(f"scene {scene.image_id!r}: {missing} has no feature key")
        return self.store.lookup(keys)

    def matrix(
        self, pairs: ScenePairs, scene: SceneRecord, streams: Sequence[str] | None = None
    ) -> FeatureMatrix:
        """The requested streams (all of them by default), for the training
        pool and for scoring alike.

        Every stream but spatial indexes a shared table, which the matrix
        holds without copying: the union visual and internal streams by one
        row number per pair, and a one-box stream by every object's row
        number (``objects``) and the pairs' subject or object indices
        (``index``); subject and object share the objects' row numbers.
        Spatial holds its own rows. ``FeatureMatrix.concatenate`` merges the
        matrices of many scenes without copying a table row.
        """
        names = list(streams) if streams is not None else list(STREAMS)
        rows: Dict[str, np.ndarray] = {}
        index: Dict[str, np.ndarray] = {}
        objects: Dict[str, np.ndarray] = {}
        for name, (table, at) in self._sources(names, pairs, scene).items():
            rows[name] = table
            role = ONE_BOX_STREAMS.get(name)
            if role is not None:
                objects[name] = at
                index[name] = getattr(pairs, f"{role}_indices")
            elif at is not None:
                index[name] = at
        return FeatureMatrix(rows, index, objects)
