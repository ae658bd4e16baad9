import dataclasses
import json
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from urelnet import features
from urelnet.errors import DatasetValidationError, DimensionError, GeometryError, IngestionError
from urelnet.features import (
    STREAMS,
    EmbeddingTable,
    FeatureExtractor,
    FeatureMatrix,
    FeatureStore,
    TripletStatistics,
    build_triplet_statistics,
    external_linguistic,
    spatial_rows,
)
from urelnet.pairs import ScenePairs, generate_for_scene, union_keys
from urelnet.scene import BoundingBox, Vocabulary

from scene_rows import Ann, Det, make_scene

coord = st.integers(min_value=-8000, max_value=8000).map(lambda v: v / 16.0)
extent = st.integers(min_value=8, max_value=4800).map(lambda v: v / 16.0)


@st.composite
def boxes(draw):
    x1 = draw(coord)
    y1 = draw(coord)
    return BoundingBox(x1, y1, x1 + draw(extent), y1 + draw(extent))


def spatial_features(subject, obj):
    """``spatial_rows`` of one (subject, object) pair of boxes."""
    return spatial_rows(np.array([subject.as_tuple()]), np.array([obj.as_tuple()]))[0]


def test_spatial_hand_example():
    got = spatial_features(BoundingBox(2, 2, 6, 6), BoundingBox(4, 4, 10, 8))
    expected = np.array([0.0, 0.0, -0.5, -1 / 3, 0.25, 1 / 3, 0.0, 0.0])
    np.testing.assert_allclose(got, expected, atol=1e-12)


def _scalar_spatial(s, o):
    """The closed form, one pair at a time."""
    ux1, uy1 = min(s.x_min, o.x_min), min(s.y_min, o.y_min)
    ux2, uy2 = max(s.x_max, o.x_max), max(s.y_max, o.y_max)
    w, h = ux2 - ux1, uy2 - uy1
    return np.array([
        (s.x_min - ux1) / w, (s.y_min - uy1) / h, (s.x_max - ux2) / w, (s.y_max - uy2) / h,
        (o.x_min - ux1) / w, (o.y_min - uy1) / h, (o.x_max - ux2) / w, (o.y_max - uy2) / h,
    ])


def test_spatial_rows_bit_identical_to_one_pair_form():
    rng = np.random.default_rng(2)
    corners = rng.uniform(-500, 500, size=(2, 300, 2))
    sizes = rng.uniform(0.01, 400, size=(2, 300, 2))
    subjects = np.concatenate([corners[0], corners[0] + sizes[0]], axis=1)
    objects = np.concatenate([corners[1], corners[1] + sizes[1]], axis=1)
    objects[:50] = subjects[:50]  # identical boxes: zero offsets throughout
    rows = spatial_rows(subjects, objects)
    assert rows.shape == (300, 8)
    for p in range(300):
        s, o = BoundingBox(*subjects[p]), BoundingBox(*objects[p])
        assert rows[p].tobytes() == _scalar_spatial(s, o).tobytes()


def test_spatial_rows_reject_degenerate_union():
    good = [0.0, 0.0, 2.0, 2.0]
    with pytest.raises(GeometryError):
        spatial_rows(np.array([good, [1.0, 1.0, 1.0, 1.0]]), np.array([good, [1.0, 1.0, 1.0, 1.0]]))


def test_spatial_identical_boxes_all_zero():
    b = BoundingBox(5, 7, 11, 19)
    np.testing.assert_array_equal(spatial_features(b, b), np.zeros(8))


def test_spatial_subject_equals_union():
    subject = BoundingBox(0, 0, 20, 20)
    obj = BoundingBox(5, 5, 10, 10)
    got = spatial_features(subject, obj)
    np.testing.assert_allclose(got[:4], np.zeros(4), atol=1e-15)


@given(boxes(), boxes())
def test_spatial_role_swap_antisymmetry(a, b):
    fwd = spatial_features(a, b)
    rev = spatial_features(b, a)
    np.testing.assert_allclose(fwd[:4], rev[4:], atol=1e-12)
    np.testing.assert_allclose(fwd[4:], rev[:4], atol=1e-12)


@given(boxes(), boxes(),
       st.floats(min_value=-200, max_value=200),
       st.floats(min_value=-200, max_value=200),
       st.floats(min_value=0.25, max_value=8.0))
def test_spatial_translation_scale_invariance(a, b, dx, dy, scale):
    def transform(box):
        return BoundingBox(
            (box.x_min + dx) * scale,
            (box.y_min + dy) * scale,
            (box.x_max + dx) * scale,
            (box.y_max + dy) * scale,
        )

    np.testing.assert_allclose(
        spatial_features(a, b), spatial_features(transform(a), transform(b)), atol=1e-9
    )


@given(boxes(), boxes())
def test_spatial_entry_ranges(a, b):
    v = spatial_features(a, b)
    assert np.all(v[[0, 1, 4, 5]] >= -1e-12)
    assert np.all(v[[2, 3, 6, 7]] <= 1e-12)
    assert np.all(np.abs(v) <= 1.0 + 1e-12)


def _scene(annotations, split="train", image_id="s0"):
    return make_scene(image_id, (), annotations, split, width=1000.0, height=1000.0)


def _ann(scat, pred, ocat):
    return Ann(
        BoundingBox(0, 0, 10, 10), scat, pred, BoundingBox(20, 20, 30, 30), ocat
    )


def test_stats_empty():
    vocab = Vocabulary(("a", "b"), ("p", "q"))
    stats = build_triplet_statistics([], vocab)
    assert stats.total == 0
    assert stats.counts.sum() == 0


def test_stats_counts_occurrences():
    vocab = Vocabulary(("person", "horse"), ("ride", "on"))
    scenes = [
        _scene([_ann(0, 0, 1)], image_id="a"),
        _scene([_ann(0, 0, 1), _ann(0, 0, 1)], image_id="b"),  # duplicate counts twice
    ]
    stats = build_triplet_statistics(scenes, vocab)
    assert stats.counts[0, 0, 1] == 3
    assert stats.total == 3


def test_stats_total_matches_annotation_count():
    rng = np.random.default_rng(0)
    vocab = Vocabulary(tuple(f"o{i}" for i in range(5)), tuple(f"p{i}" for i in range(3)))
    scenes = []
    total = 0
    for s in range(10):
        n = int(rng.integers(0, 6))
        total += n
        scenes.append(
            _scene(
                [_ann(int(rng.integers(5)), int(rng.integers(3)), int(rng.integers(5)))
                 for _ in range(n)],
                image_id=f"s{s}",
            )
        )
    assert build_triplet_statistics(scenes, vocab).total == total


def test_stats_rejects_out_of_vocabulary():
    vocab = Vocabulary(("a",), ("p",))
    with pytest.raises(IngestionError):
        build_triplet_statistics([_scene([_ann(0, 0, 3)])], vocab)


def test_stats_rejects_non_train_split():
    vocab = Vocabulary(("a", "b"), ("p",))
    with pytest.raises(DatasetValidationError):
        build_triplet_statistics([_scene([_ann(0, 0, 1)], split="test")], vocab)


def test_internal_linguistic_hand_example():
    # objects: person, dog, horse, street; predicates: ride, on
    # counts: (person, ride, horse)=2, (person, on, street)=1, (dog, on, street)=1
    counts = np.zeros((4, 2, 4), dtype=np.int64)
    counts[0, 0, 2] = 2
    counts[0, 1, 3] = 1
    counts[1, 1, 3] = 1
    stats = TripletStatistics(counts)
    got = stats.internal_table[0, 2]  # (person, horse)
    np.testing.assert_allclose(got, [9 / 11, 2 / 11], atol=1e-12)


def test_internal_linguistic_empty_stats_uniform():
    stats = TripletStatistics(np.zeros((3, 5, 3), dtype=np.int64))
    np.testing.assert_allclose(stats.internal_table[0, 1], np.full(5, 0.2), atol=1e-15)


def test_internal_linguistic_unseen_pair_positive():
    counts = np.zeros((3, 2, 3), dtype=np.int64)
    counts[0, 0, 1] = 5
    stats = TripletStatistics(counts)
    v = stats.internal_table[2, 2]
    assert np.all(v > 0)
    assert v.sum() == pytest.approx(1.0, abs=1e-12)


def brute_force_internal(counts, ls, lo):
    """Direct evaluation of the smoothed factorization from raw counts."""
    n, m, _ = counts.shape
    total = counts.sum()
    out = np.zeros(m)
    for p in range(m):
        cp = counts[:, p, :].sum()
        prior = (cp + 1) / (total + m)
        ps = (counts[ls, p, :].sum() + 1) / (cp + n)
        po = (counts[:, p, lo].sum() + 1) / (cp + n)
        out[p] = prior * ps * po
    return out / out.sum()


def test_internal_linguistic_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        counts = rng.integers(0, 5, size=(n, m, n))
        stats = TripletStatistics(counts)
        ls, lo = int(rng.integers(n)), int(rng.integers(n))
        got = stats.internal_table[ls, lo]
        np.testing.assert_allclose(got, brute_force_internal(counts, ls, lo), atol=1e-12)
        assert got.sum() == pytest.approx(1.0, abs=1e-12)


def _table():
    return EmbeddingTable(
        {
            "traffic": np.array([1.0, 2.0]),
            "light": np.array([3.0, 4.0]),
            "dog": np.array([5.0, 6.0]),
        },
        dim=2,
    )


def test_external_known_word_verbatim():
    np.testing.assert_array_equal(external_linguistic(_table(), "dog"), [5.0, 6.0])


def test_external_multi_token_average():
    np.testing.assert_allclose(external_linguistic(_table(), "traffic light"), [2.0, 3.0])


def test_external_partial_unknown_contributes_zero():
    np.testing.assert_allclose(external_linguistic(_table(), "traffic cone"), [0.5, 1.0])


def test_external_fully_unknown_is_zero():
    np.testing.assert_array_equal(external_linguistic(_table(), "zeppelin"), [0.0, 0.0])


def test_external_lookup_is_lowercased():
    np.testing.assert_array_equal(external_linguistic(_table(), "DOG"), [5.0, 6.0])


def test_embedding_file_roundtrip(tmp_path):
    path = tmp_path / "emb.txt"
    _table().save(path)
    loaded = EmbeddingTable.from_file(path)
    assert loaded.dim == 2
    np.testing.assert_array_equal(loaded.vectors["light"], [3.0, 4.0])


def test_embedding_file_dimension_enforced(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("a 1.0 2.0\nb 1.0\n", encoding="utf-8")
    with pytest.raises(IngestionError, match="line 2"):
        EmbeddingTable.from_file(path)


def test_embedding_file_non_numeric(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("a 1.0 oops\n", encoding="utf-8")
    with pytest.raises(IngestionError, match="line 1"):
        EmbeddingTable.from_file(path)


def _store(keys, vectors):
    """A store whose row i is ``vectors[i]``, keyed by ``keys[i]``."""
    return FeatureStore(np.asarray(vectors, dtype=np.float64), {k: i for i, k in enumerate(keys)})


def _vector(store, key):
    return store.table[store.lookup([key])[0]]


def _pair_scene_fixture():
    vocab = Vocabulary(("person", "horse"), ("ride", "on", "near"))
    sbox, obox = BoundingBox(0, 0, 10, 10), BoundingBox(20, 0, 30, 10)
    detections = (
        Det(sbox, 0, 0.9, feature_key="img|det|0"),
        Det(obox, 1, 0.8, feature_key="img|det|1"),
    )
    scene = make_scene("img", detections, [Ann(sbox, 0, 0, obox, 1)])
    keys = ["img|det|0", "img|det|1", *union_keys("img", "det", [0, 1], [1, 0])]
    store = _store(keys, np.random.default_rng(3).standard_normal((4, 4)))
    emb = EmbeddingTable({"person": np.array([1.0, 0.0]), "horse": np.array([0.0, 1.0])}, 2)
    stats = build_triplet_statistics([scene], vocab)
    # Row 0 is the pair (0, 1), row 1 the flipped pair (1, 0).
    pairs = generate_for_scene(scene, vocab.predicate_count)
    return vocab, scene, store, emb, stats, pairs


def test_matrix_one_pair_shapes_and_invariants():
    vocab, scene, store, emb, stats, pairs = _pair_scene_fixture()
    matrix = FeatureExtractor(store, stats, emb, vocab).matrix(pairs.take([0]), scene)
    assert matrix.count == 1
    assert matrix["visual_subject"].shape == (1, 4)
    assert matrix["visual_union"].shape == (1, 4)
    assert matrix["spatial"].shape == (1, 8)
    assert matrix["external_subject"].shape == (1, 2)
    assert matrix["internal"].shape == (1, 3)
    assert matrix["internal"][0].sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_array_equal(matrix["external_subject"][0], [1.0, 0.0])


def test_matrix_missing_visual_vector_errors():
    vocab, scene, store, emb, stats, pairs = _pair_scene_fixture()
    del store.index["img|det|1"]
    extractor = FeatureExtractor(store, stats, emb, vocab)
    with pytest.raises(IngestionError, match=r"'img\|det\|1'"):
        extractor.matrix(pairs.take([0]), scene)


def test_matrix_stacks_rows():
    vocab, scene, store, emb, stats, pairs = _pair_scene_fixture()
    extractor = FeatureExtractor(store, stats, emb, vocab)
    matrix = extractor.matrix(pairs.take([0, 0]), scene)
    assert matrix.count == 2
    assert matrix["visual_union"].shape == (2, 4)
    assert matrix["internal"].shape == (2, 3)


def test_feature_store_roundtrip(tmp_path):
    store = _store([f"k{i}" for i in range(5)], np.random.default_rng(0).standard_normal((5, 3)))
    store.save(tmp_path / "f.bin", tmp_path / "f.idx.json")
    loaded = FeatureStore.from_files(tmp_path / "f.bin", tmp_path / "f.idx.json")
    assert len(loaded) == 5
    for key in store.index:
        np.testing.assert_array_equal(_vector(loaded, key), _vector(store, key))


def test_feature_store_keeps_read_only_views(tmp_path):
    vectors = np.random.default_rng(1).standard_normal((4, 3))
    _store([f"k{i}" for i in range(4)], vectors).save(tmp_path / "f.bin", tmp_path / "f.idx.json")
    index = json.loads((tmp_path / "f.idx.json").read_text())["keys"]
    on_disk = np.fromfile(tmp_path / "f.bin", dtype="<f8").reshape(4, 3)
    loaded = FeatureStore.from_files(tmp_path / "f.bin", tmp_path / "f.idx.json")
    assert loaded.index == index
    assert loaded.table.tobytes() == on_disk.tobytes()
    with pytest.raises(ValueError):
        loaded.table[0, 0] = 1.0
    # The caller's array stays writable; the store holds a read-only view.
    store = _store(["a"], vectors[:1])
    assert vectors.flags.writeable and np.shares_memory(store.table, vectors)
    with pytest.raises(ValueError):
        store.table[0, 0] = 1.0


def _saved_store(tmp_path, rows=2):
    store = _store([f"k{i}" for i in range(rows)], [np.full(3, float(i)) for i in range(rows)])
    store.save(tmp_path / "f.bin", tmp_path / "f.idx.json")
    return tmp_path / "f.bin", tmp_path / "f.idx.json"


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_feature_store_rejects_non_finite_row(tmp_path, value):
    data, index = _saved_store(tmp_path)
    flat = np.fromfile(data, dtype="<f8")
    flat[4] = value
    flat.tofile(data)
    with pytest.raises(IngestionError, match="non-finite values in feature row 1"):
        FeatureStore.from_files(data, index)


def test_feature_store_accepts_large_finite_values(tmp_path):
    data, index = _saved_store(tmp_path)
    np.full(6, 1e200).tofile(data)
    loaded = FeatureStore.from_files(data, index)
    np.testing.assert_array_equal(_vector(loaded, "k1"), np.full(3, 1e200))


def test_feature_store_accepts_finite_values_whose_sum_overflows(tmp_path):
    data, index = _saved_store(tmp_path)
    values = np.array([1e308, 1e308, -1.0, 1e308, 2.0, 3.0])
    with np.errstate(over="ignore"):
        assert not np.isfinite(values.sum())
    values.tofile(data)
    loaded = FeatureStore.from_files(data, index)
    np.testing.assert_array_equal(_vector(loaded, "k0"), values[:3])


@pytest.mark.parametrize("row", [-1, 2, 7, 1.0, "1"])
def test_feature_store_rejects_index_row_out_of_range(tmp_path, row):
    data, index = _saved_store(tmp_path)
    doc = json.loads(index.read_text())
    doc["keys"]["k1"] = row
    index.write_text(json.dumps(doc))
    with pytest.raises(IngestionError, match="'k1'"):
        FeatureStore.from_files(data, index)


def test_feature_store_missing_index(tmp_path):
    data, index = _saved_store(tmp_path)
    index.unlink()
    with pytest.raises(IngestionError, match="not found"):
        FeatureStore.from_files(data, index)


@pytest.mark.parametrize("text", [
    "{not json",
    "[1, 2]",
    '{"keys": {"k0": 0, "k1": 1}}',
    '{"dim": 3}',
    '{"dim": 0, "keys": {}}',
    '{"dim": "three", "keys": {"k0": 0, "k1": 1}}',
    '{"dim": true, "keys": {"k0": 0, "k1": 1}}',
    '{"dim": 3.0, "keys": {"k0": 0, "k1": 1}}',
    '{"dim": 3, "keys": ["k0", "k1"]}',
])
def test_feature_store_malformed_index(tmp_path, text):
    data, index = _saved_store(tmp_path)
    index.write_text(text)
    with pytest.raises(IngestionError, match="malformed feature index"):
        FeatureStore.from_files(data, index)


def _straddling_store(tmp_path):
    """Five rows of three values: with blocks of 4 values, rows 1 to 3 each
    straddle a block boundary."""
    data, index = _saved_store(tmp_path, rows=5)
    np.arange(15.0).tofile(data)
    return data, index


@pytest.mark.parametrize("block", [1, 2, 4, 5, 7, 15, 16, features.LOAD_BLOCK])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_feature_store_block_check_reports_first_non_finite_row(tmp_path, monkeypatch, block,
                                                                value):
    monkeypatch.setattr(features, "LOAD_BLOCK", block)
    data, index = _straddling_store(tmp_path)
    clean = np.fromfile(data, dtype="<f8")
    # The first value, the last, and every value of the straddling rows;
    # a later bad value in another block must not be the one reported.
    for at in range(15):
        flat = clean.copy()
        flat[at] = value
        flat[min(at + 5, 14)] = np.nan
        flat.tofile(data)
        with pytest.raises(IngestionError) as info:
            FeatureStore.from_files(data, index)
        assert str(info.value) == f"{data}: non-finite values in feature row {at // 3}"


@pytest.mark.parametrize("edit, found", [
    (lambda b: b[:-8], "found 5"),
    (lambda b: b + b[:8], "found 7"),
    (lambda b: b[:-3], "found 5"),
    (lambda b: b + b[:11], "found 7"),
    (lambda b: b + b[:3], "found 6 and 3 more bytes"),
    (lambda b: b"", "found 0"),
])
def test_feature_store_rejects_a_file_of_the_wrong_size(tmp_path, edit, found):
    data, index = _saved_store(tmp_path)
    data.write_bytes(edit(data.read_bytes()))
    with pytest.raises(IngestionError) as info:
        FeatureStore.from_files(data, index)
    assert str(info.value) == f"{data}: expected 6 float64 values (2 rows x 3), {found}"


def test_feature_store_zero_rows(tmp_path):
    FeatureStore(np.empty((0, 3)), {}).save(tmp_path / "f.bin", tmp_path / "f.idx.json")
    assert (tmp_path / "f.bin").read_bytes() == b""
    loaded = FeatureStore.from_files(tmp_path / "f.bin", tmp_path / "f.idx.json")
    assert loaded.table.shape == (0, 3) and len(loaded) == 0
    assert not loaded.table.flags.writeable
    (tmp_path / "f.bin").write_bytes(bytes(8))
    with pytest.raises(IngestionError, match=re.escape("expected 0 float64 values (0 rows x 3), found 1")):
        FeatureStore.from_files(tmp_path / "f.bin", tmp_path / "f.idx.json")


@pytest.mark.parametrize("left, found", [(0, 0), (8, 1), (32, 4), (40, 5)])
def test_feature_store_file_shrinking_while_checked_raises(tmp_path, monkeypatch, left, found):
    monkeypatch.setattr(features, "LOAD_BLOCK", 4)
    data, index = _straddling_store(tmp_path)
    check = features.all_finite

    def shrink_after_first_block(values):
        if data.stat().st_size > left:
            with open(data, "r+b") as fh:
                fh.truncate(left)
        return check(values)

    monkeypatch.setattr(features, "all_finite", shrink_after_first_block)
    outcome = []

    def load():
        try:
            FeatureStore.from_files(data, index)
        except IngestionError as exc:
            outcome.append(str(exc))

    loader = threading.Thread(target=load, daemon=True)
    loader.start()
    loader.join(timeout=30)
    assert not loader.is_alive()
    assert outcome == [f"{data}: expected 15 float64 values (5 rows x 3), found {found}"]


def test_feature_store_maps_the_table_instead_of_copying_it(tmp_path):
    rows, dim = 1024, 1024  # an 8 MiB table
    vectors = np.random.default_rng(2).standard_normal((rows, dim))
    _store([f"k{i}" for i in range(rows)], vectors).save(tmp_path / "f.bin", tmp_path / "f.idx.json")
    tracemalloc.start()
    try:
        loaded = FeatureStore.from_files(tmp_path / "f.bin", tmp_path / "f.idx.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert type(loaded.table) is np.ndarray
    assert loaded.table.tobytes() == vectors.tobytes()
    with pytest.raises(ValueError):
        loaded.table[0, 0] = 1.0
    with pytest.raises(ValueError):
        loaded.table.flags.writeable = True


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_embedding_file_rejects_non_finite(tmp_path, value):
    path = tmp_path / "emb.txt"
    path.write_text(f"a 1.0 2.0\nb 1.0 {value}\n", encoding="utf-8")
    with pytest.raises(IngestionError, match="line 2: non-finite"):
        EmbeddingTable.from_file(path)


def _per_pair_internal(stats, s, o):
    """The smoothed factorization for one category pair, as evaluated one
    pair at a time."""
    n, m = stats.object_count, stats.predicate_count
    cp = stats.counts.sum(axis=(0, 2)).astype(np.float64)
    prior = (cp + 1.0) / (stats.total + m)
    subj = (stats.counts.sum(axis=2)[s] + 1.0) / (cp + n)
    obj = (stats.counts.sum(axis=0)[:, o] + 1.0) / (cp + n)
    raw = prior * subj * obj
    return raw / raw.sum()


@pytest.mark.parametrize("n, m", [(1, 1), (3, 5), (20, 8), (7, 9), (6, 70), (4, 130)])
def test_internal_table_bit_identical_to_per_pair_formula(n, m):
    rng = np.random.default_rng(n * 1000 + m)
    counts = rng.integers(0, 6, size=(n, m, n)) * (rng.random((n, m, n)) < 0.3)
    stats = TripletStatistics(counts)
    table = stats.internal_table
    assert table.shape == (n, n, m)
    assert not table.flags.writeable
    assert stats.internal_table is table
    for s in range(n):
        for o in range(n):
            assert table[s, o].tobytes() == _per_pair_internal(stats, s, o).tobytes()


@pytest.mark.parametrize("s, o", [(-1, 0), (0, 2), (2, 2)])
def test_internal_linguistic_rejects_out_of_range_categories(s, o):
    vocab, scene, store, emb, stats, pairs = _pair_scene_fixture()
    # The pair (0, 1) with its subject's category s and its object's o.
    pairs = dataclasses.replace(pairs.take([0]), categories=np.array([s, o]))
    role, category = ("subject", s) if not 0 <= s < 2 else ("object", o)
    extractor = FeatureExtractor(store, stats, emb, vocab)
    with pytest.raises(IngestionError, match=f"{role} category {category} out of range"):
        extractor.matrix(pairs, scene, streams=["internal"])


def test_matrix_linguistic_streams_are_the_per_category_vectors():
    vocab, scene, store, emb, stats, pairs = _pair_scene_fixture()
    chosen = pairs.take([0, 1, 0])  # the pair, the flipped pair, the pair again
    matrix = FeatureExtractor(store, stats, emb, vocab).matrix(chosen, scene)
    for row, p in enumerate(chosen):
        s, o = chosen.categories[p.subject_index], chosen.categories[p.object_index]
        assert matrix["internal"][row].tobytes() == _per_pair_internal(stats, s, o).tobytes()
        for role, category in (("subject", s), ("object", o)):
            np.testing.assert_array_equal(
                matrix[f"external_{role}"][row],
                external_linguistic(emb, vocab.object_names[category]),
            )


def test_matrix_of_no_pairs_has_zero_rows():
    vocab, scene, store, emb, stats, pairs = _pair_scene_fixture()
    matrix = FeatureExtractor(store, stats, emb, vocab).matrix(pairs.take([]), scene)
    assert matrix.count == 0
    expected = {
        "visual_subject": (0, 4), "visual_object": (0, 4), "visual_union": (0, 4),
        "spatial": (0, 8), "external_subject": (0, 2), "external_object": (0, 2),
        "internal": (0, 3),
    }
    assert {name: matrix[name].shape for name in matrix.streams} == expected
    assert {name: matrix.shape(name) for name in matrix.streams} == expected


@pytest.mark.parametrize(
    "stream, role",
    [("internal", "subject"), ("internal", "object"),
     ("external_subject", "subject"), ("external_object", "object")],
)
def test_matrix_out_of_range_category_errors(stream, role):
    vocab, scene, store, emb, stats, pairs = _pair_scene_fixture()
    # Object 2 is a copy of the pair's subject (object) with category 5; row 1
    # pairs it in that role, so the good pair (0, 1) comes first.
    copied = getattr(pairs[0], f"{role}_index")
    subjects, objects = ([0, 2], [1, 1]) if role == "subject" else ([0, 0], [1, 2])
    key = pairs.union_keys[0]
    pairs = ScenePairs(
        pairs.feature_keys + (pairs.feature_keys[copied],),
        np.vstack([pairs.boxes, pairs.boxes[copied]]), np.append(pairs.categories, 5),
        np.append(pairs.confidences, pairs.confidences[copied]), np.array(subjects),
        np.array(objects), np.zeros((2, 1), dtype=bool), np.zeros((2, vocab.predicate_count)),
        (key, key),
    )
    extractor = FeatureExtractor(store, stats, emb, vocab)
    with pytest.raises(IngestionError, match=f"{role} category 5 out of range"):
        extractor.matrix(pairs, scene, streams=[stream])


@pytest.mark.parametrize("pairs", [1, 0])
def test_matrix_external_without_embeddings_errors(pairs):
    vocab, scene, store, emb, stats, scene_pairs = _pair_scene_fixture()
    chosen = scene_pairs.take([0] * pairs)
    extractor = FeatureExtractor(store, stats, None, vocab)
    assert extractor.matrix(chosen, scene, streams=["internal"]).count == pairs
    with pytest.raises(IngestionError, match="no embedding table"):
        extractor.matrix(chosen, scene, streams=["external_object"])


def _synthetic_scene_pairs():
    from urelnet.synthetic import SyntheticConfig, generate_synthetic
    from urelnet.training import build_extractor

    dataset = generate_synthetic(SyntheticConfig(train_scenes=6, test_scenes=0, seed=5))
    scene = max(dataset.split("train"), key=lambda s: len(s.boxes))
    pairs = generate_for_scene(scene, dataset.vocabulary.predicate_count)
    return build_extractor(dataset), scene, pairs


def test_matrix_of_taken_rows_equals_stacked_single_rows():
    extractor, scene, pairs = _synthetic_scene_pairs()
    rows = [3, 0, 3, len(pairs) - 1, 1, 1, 0]
    matrix = extractor.matrix(pairs.take(rows), scene)
    singles = [extractor.matrix(pairs.take([row]), scene) for row in rows]
    assert matrix.count == len(rows)
    for name in matrix.streams:
        stacked = np.concatenate([single[name] for single in singles])
        assert matrix[name].tobytes() == stacked.tobytes(), name


@pytest.mark.parametrize("stream", ["visual_subject", "visual_object", "visual_union"])
def test_matrix_looks_up_object_vectors_once_per_object(stream, monkeypatch):
    extractor, scene, pairs = _synthetic_scene_pairs()
    d = len(scene.boxes)
    if stream == "visual_union":
        keys = list(pairs.union_keys)  # one key resolved per pair
        expected_resolved = keys
    else:  # one key resolved per object, gathered to every pair
        role = stream[len("visual_") :]
        indices = getattr(pairs, f"{role}_indices").tolist()
        keys = [scene.feature_keys[i] for i in indices]
        expected_resolved = list(scene.feature_keys)
    resolved = []
    lookup = FeatureStore.lookup

    def counting(self, keys):
        resolved.extend(keys)
        return lookup(self, keys)

    monkeypatch.setattr(FeatureStore, "lookup", counting)
    matrix = extractor.matrix(pairs, scene, streams=[stream])
    assert len(pairs) == d * (d - 1) > d
    assert resolved == expected_resolved
    store = extractor.store
    expected = np.stack([store.table[store.index[key]] for key in keys])
    assert matrix[stream].tobytes() == expected.tobytes()


def test_concatenate_merges_row_numbers_over_one_shared_table():
    table = np.arange(12.0).reshape(6, 2)
    a = FeatureMatrix({"t": table, "s": np.ones((2, 1))}, {"t": np.array([5, 0])})
    b = FeatureMatrix({"t": table, "s": np.zeros((1, 1))}, {"t": np.array([3])})
    merged = FeatureMatrix.concatenate([a, b])
    assert merged.streams["t"] is table
    assert merged.index["t"].tolist() == [5, 0, 3]
    assert merged["s"].tolist() == [[1.0], [1.0], [0.0]]
    assert merged.rows([2, 0])["t"].tolist() == [[6.0, 7.0], [10.0, 11.0]]
    per_pair = FeatureMatrix({"t": table[:1], "s": np.ones((1, 1))})
    for matrices in ([a, per_pair], [per_pair, a]):
        with pytest.raises(DimensionError, match="do not index the same streams"):
            FeatureMatrix.concatenate(matrices)


def test_concatenate_offsets_object_numbers_and_joins_objects():
    # Two scenes' one-box streams over one shared table: "u" and "v" share
    # each scene's objects' row numbers and index them by subject and object.
    table = np.arange(12.0).reshape(6, 2)
    a = FeatureMatrix({"u": table, "v": table, "s": np.ones((2, 1))},
                      {"u": np.array([2, 0]), "v": np.array([1, 1])},
                      {"u": np.array([5, 1, 4]), "v": np.array([5, 1, 4])})
    b = FeatureMatrix({"u": table, "v": table, "s": np.zeros((3, 1))},
                      {"u": np.array([1, 0, 1]), "v": np.array([0, 1, 0])},
                      {"u": np.array([0, 3]), "v": np.array([0, 3])})
    merged = FeatureMatrix.concatenate([a, b])
    assert merged.streams["u"] is merged.streams["v"] is table
    for name in ("u", "v"):
        assert merged.objects[name].tolist() == [5, 1, 4, 0, 3]
    assert merged.index["u"].tolist() == [2, 0, 4, 3, 4]
    assert merged.index["v"].tolist() == [1, 1, 3, 4, 3]
    for name in ("u", "v", "s"):
        assert merged[name].tolist() == np.concatenate([a[name], b[name]]).tolist()
    assert merged.rows([4, 0])["u"].tolist() == [[6.0, 7.0], [8.0, 9.0]]
    assert FeatureMatrix.concatenate([a]) is a


def test_concatenate_over_different_tables_raises():
    tables = [np.arange(6.0).reshape(3, 2), np.arange(10.0, 14.0).reshape(2, 2)]
    a = FeatureMatrix({"t": tables[0]}, {"t": np.array([2, 0])})
    b = FeatureMatrix({"t": tables[1]}, {"t": np.array([1])})
    with pytest.raises(DimensionError, match="different tables for stream 't'"):
        FeatureMatrix.concatenate([a, b])
    # Per object too, even where only the tables' identity differs.
    a = FeatureMatrix({"t": tables[0]}, {"t": np.array([0])}, {"t": np.array([1])})
    b = FeatureMatrix({"t": tables[0].copy()}, {"t": np.array([0])}, {"t": np.array([1])})
    with pytest.raises(DimensionError, match="different tables"):
        FeatureMatrix.concatenate([a, b])
    per_pair = FeatureMatrix({"t": tables[0][:1]}, {"t": np.array([0])})
    with pytest.raises(DimensionError, match="do not index the same streams"):
        FeatureMatrix.concatenate([a, per_pair])


def test_pool_built_through_matrix_gives_the_per_pair_rows(monkeypatch):
    # Every batch of the training pool, built through ``matrix``, has the bits
    # of a per-pair gather from the tables.
    from urelnet.model import ModelConfig, required_streams
    from urelnet.synthetic import SyntheticConfig, generate_synthetic
    from urelnet.training import RunConfig, build_extractor, build_training_pool

    dataset = generate_synthetic(SyntheticConfig(train_scenes=6, test_scenes=0, seed=5))
    extractor = build_extractor(dataset)
    vocab, store = dataset.vocabulary, dataset.features
    config = ModelConfig(vocab.predicate_count, vocab.object_count, store.dim,
                         dataset.embeddings.dim, im_mode=True)
    assert set(required_streams(config)) == set(STREAMS)
    calls = []
    matrix = FeatureExtractor.matrix
    monkeypatch.setattr(FeatureExtractor, "matrix",
                        lambda *args, **kw: calls.append(1) or matrix(*args, **kw))
    pool = build_training_pool(dataset, extractor, RunConfig(model=config)).features
    assert len(calls) == len(dataset.split("train"))
    assert sorted(pool.objects) == sorted(features.ONE_BOX_STREAMS)
    expected = {name: [] for name in STREAMS}
    n = vocab.object_count
    for scene in dataset.split("train"):
        pairs = generate_for_scene(scene, vocab.predicate_count)
        s, o = pairs.subject_indices, pairs.object_indices
        cats = pairs.categories
        for role, at in (("subject", s), ("object", o)):
            keys = [pairs.feature_keys[i] for i in at]
            expected[f"visual_{role}"].append(store.table[store.lookup(keys)])
            expected[f"external_{role}"].append(extractor._external_table[cats[at]])
        expected["visual_union"].append(store.table[store.lookup(pairs.union_keys)])
        expected["internal"].append(extractor._internal_rows[cats[s] * n + cats[o]])
        expected["spatial"].append(spatial_rows(pairs.boxes[s], pairs.boxes[o]))
    expected = {name: np.concatenate(rows) for name, rows in expected.items()}
    rng = np.random.default_rng(0)
    for _ in range(20):
        idx = rng.integers(pool.count, size=9)
        batch = pool.rows(idx)
        assert batch.index == {} and batch.objects == {}
        for name in STREAMS:
            assert batch[name].tobytes() == expected[name][idx].tobytes(), name
