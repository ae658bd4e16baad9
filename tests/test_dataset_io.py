import contextlib
import dataclasses
import io
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urelnet.dataset import Dataset, load_dataset, save_dataset
from urelnet.errors import (
    DatasetParseError,
    DatasetValidationError,
    IngestionError,
)
from urelnet.features import EmbeddingTable, FeatureStore
from urelnet.scene import ANNOTATION_COLUMNS, DETECTION_COLUMNS, BoundingBox, Vocabulary

from scene_rows import Ann, Det, make_scene


def minimal_dataset():
    vocab = Vocabulary(("cup", "table"), ("on",))
    sbox = BoundingBox(10, 10, 50, 50)
    obox = BoundingBox(5, 60, 95, 95)
    detections = (
        Det(sbox, 0, 0.9, feature_key="img0|det|0"),
        Det(obox, 1, 0.8, feature_key="img0|det|1"),
    )
    scene = make_scene("img0", detections, [Ann(sbox, 0, 0, obox, 1)])
    keys = ("img0|det|0", "img0|det|1", "img0|union|det|0|1", "img0|union|det|1|0",
            "img0|gt|0", "img0|gt|1", "img0|union|gt|0|1", "img0|union|gt|1|0")
    store = FeatureStore(
        np.random.default_rng(0).standard_normal((len(keys), 3)),
        {key: row for row, key in enumerate(keys)},
    )
    embeddings = EmbeddingTable({"cup": np.array([1.0, 2.0]), "table": np.array([3.0, 4.0])}, 2)
    return Dataset(vocabulary=vocab, scenes=[scene], features=store, embeddings=embeddings)


COLUMNS = [name for name, _, _ in DETECTION_COLUMNS + ANNOTATION_COLUMNS]


def assert_same_columns(a, b):
    """Two scenes hold the same values, of the same dtypes, in every column."""
    assert (a.image_id, a.width, a.height, a.split) == (b.image_id, b.width, b.height, b.split)
    assert a.feature_keys == b.feature_keys
    for name in COLUMNS:
        x, y = getattr(a, name), getattr(b, name)
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name


def test_minimal_roundtrip(tmp_path):
    original = minimal_dataset()
    save_dataset(original, tmp_path / "ds")
    loaded = load_dataset(tmp_path / "ds")
    assert loaded.vocabulary == original.vocabulary
    assert len(loaded.scenes) == 1
    scene = loaded.scenes[0]
    assert scene.image_id == "img0"
    assert_same_columns(scene, original.scenes[0])
    for key, row in original.features.index.items():
        np.testing.assert_array_equal(
            loaded.features.table[loaded.features.index[key]], original.features.table[row]
        )
    np.testing.assert_array_equal(loaded.embeddings.vectors["cup"], [1.0, 2.0])


def test_load_save_load_fixpoint(tmp_path):
    save_dataset(minimal_dataset(), tmp_path / "a")
    first = load_dataset(tmp_path / "a")
    save_dataset(first, tmp_path / "b")
    assert (tmp_path / "a" / "dataset.json").read_bytes() == (
        tmp_path / "b" / "dataset.json"
    ).read_bytes()
    assert (tmp_path / "a" / "features.bin").read_bytes() == (
        tmp_path / "b" / "features.bin"
    ).read_bytes()


DATASET_FILES = ["dataset.json", "embeddings.txt", "features.bin", "features.idx.json"]


def _other_dataset():
    """``minimal_dataset`` with different feature values and one more key."""
    first = minimal_dataset()
    index = dict(first.features.index, extra=len(first.features))
    table = np.random.default_rng(1).standard_normal((len(index), 3))
    return dataclasses.replace(first, features=FeatureStore(table, index))


def test_saving_over_a_loaded_dataset_keeps_its_table(tmp_path):
    target = tmp_path / "ds"
    save_dataset(minimal_dataset(), target)
    first = load_dataset(target)
    before = first.features.table.copy()
    # Rewriting the directory a loaded table is mapped from, with other data
    # and with the loaded data itself, leaves the loaded table as it was.
    for data in (_other_dataset(), first):
        save_dataset(data, target)
        assert sorted(os.listdir(target)) == DATASET_FILES
        for row in range(len(before)):
            assert first.features.table[row].tobytes() == before[row].tobytes()
        fresh = load_dataset(target)
        assert fresh.features.index == data.features.index
        assert fresh.features.table.tobytes() == data.features.table.tobytes()


def _write_and_mutate(tmp_path, mutate):
    save_dataset(minimal_dataset(), tmp_path / "ds")
    doc_path = tmp_path / "ds" / "dataset.json"
    doc = json.loads(doc_path.read_text(encoding="utf-8"))
    mutate(doc)
    doc_path.write_text(json.dumps(doc), encoding="utf-8")
    return tmp_path / "ds"


def test_out_of_range_category_names_scene(tmp_path):
    def mutate(doc):
        doc["scenes"][0]["detections"][0]["category"] = 7

    path = _write_and_mutate(tmp_path, mutate)
    with pytest.raises(DatasetValidationError, match="img0"):
        load_dataset(path)


def test_out_of_range_predicate(tmp_path):
    def mutate(doc):
        doc["scenes"][0]["annotations"][0]["predicate"] = 5

    with pytest.raises(DatasetValidationError, match="predicate"):
        load_dataset(_write_and_mutate(tmp_path, mutate))


def test_missing_feature_reference(tmp_path):
    def mutate(doc):
        doc["scenes"][0]["detections"][1]["feature_key"] = "img0|det|99"

    with pytest.raises(DatasetValidationError, match="img0\\|det\\|99"):
        load_dataset(_write_and_mutate(tmp_path, mutate))


def test_box_outside_bounds(tmp_path):
    def mutate(doc):
        doc["scenes"][0]["detections"][0]["box"] = [10, 10, 150, 50]

    with pytest.raises(DatasetValidationError, match="bounds"):
        load_dataset(_write_and_mutate(tmp_path, mutate))


def test_duplicate_image_ids(tmp_path):
    def mutate(doc):
        doc["scenes"].append(doc["scenes"][0])

    with pytest.raises(DatasetValidationError, match="duplicate"):
        load_dataset(_write_and_mutate(tmp_path, mutate))


def test_bad_schema_version(tmp_path):
    def mutate(doc):
        doc["schema_version"] = 99

    with pytest.raises(DatasetValidationError, match="schema_version"):
        load_dataset(_write_and_mutate(tmp_path, mutate))


def test_parse_error_reports_position(tmp_path):
    target = tmp_path / "ds"
    save_dataset(minimal_dataset(), target)
    (target / "dataset.json").write_text('{"schema_version": 1,\n  broken', encoding="utf-8")
    with pytest.raises(DatasetParseError, match="line 2"):
        load_dataset(target)


def test_non_utf8_dataset_json_is_parse_error(tmp_path):
    target = tmp_path / "ds"
    save_dataset(minimal_dataset(), target)
    (target / "dataset.json").write_bytes(b"\xff" + (target / "dataset.json").read_bytes())
    with pytest.raises(DatasetParseError, match="utf-8"):
        load_dataset(target)


@pytest.mark.parametrize(
    "key, name",
    [("features_file", "."), ("features_index_file", "."), ("embeddings_file", "."),
     ("features_file", "a\x00b"), ("features_index_file", "a\x00b"),
     ("embeddings_file", "a\x00b")],
)
def test_unreadable_named_file_is_ingestion_error(tmp_path, key, name):
    def mutate(doc):
        doc[key] = name

    with pytest.raises(IngestionError, match="not found or unreadable"):
        load_dataset(_write_and_mutate(tmp_path, mutate))


def test_missing_dataset_file(tmp_path):
    with pytest.raises(IngestionError, match="not found"):
        load_dataset(tmp_path / "nope")


def test_dataset_path_with_nul_byte_is_not_found(tmp_path):
    with pytest.raises(IngestionError, match="not found or unreadable"):
        load_dataset(str(tmp_path / "ds\x00x"))


def test_truncated_feature_file(tmp_path):
    target = tmp_path / "ds"
    save_dataset(minimal_dataset(), target)
    data = (target / "features.bin").read_bytes()
    (target / "features.bin").write_bytes(data[:-8])
    with pytest.raises(IngestionError, match="expected"):
        load_dataset(target)


def _json_kind(value) -> str:
    if isinstance(value, float) and not value.is_integer():
        return "fraction"
    return type(value).__name__


def _value_paths(doc, prefix=()):
    """Every key or index path under the document root."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _value_paths(value, prefix + (key,))


_JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False).filter(lambda f: not f.is_integer()),
    st.text(max_size=8),
    st.lists(st.integers(-3, 3), max_size=4),
    st.dictionaries(st.text(max_size=4), st.integers(-3, 3), max_size=2),
)


@pytest.fixture(scope="module")
def saved_minimal(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz") / "ds"
    save_dataset(minimal_dataset(), root)
    return root


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_dataset_json_wrong_type_fuzz(saved_minimal, data):
    # One value anywhere replaced by a value of another JSON kind: build-stats
    # succeeds or exits 1 with exactly one JSON error line, never a traceback.
    from urelnet.cli import main

    doc_path = saved_minimal / "dataset.json"
    original = doc_path.read_bytes()
    doc = json.loads(original)
    path = data.draw(st.sampled_from(sorted(_value_paths(doc), key=repr)))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = data.draw(
        _JSON_VALUES.filter(lambda v: _json_kind(v) != _json_kind(target[path[-1]]))
    )
    doc_path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["build-stats", "--dataset", str(saved_minimal)])
    finally:
        doc_path.write_bytes(original)
    assert code in (0, 1)
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        assert set(json.loads(lines[0])["error"]) == {"category", "message"}
