"""The two readers of a dataset document's scenes, and the bytes synth writes.

``load_dataset`` reads the scenes as columns (``_column_scenes``): each field
is gathered across the document and checked at once. When a column fails a
check it falls back to the per-field scan (``_parse_scene``), which raises
the first bad value in document order. Both must build the same scenes.
"""

import hashlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urelnet.cli import main
from urelnet.dataset import _column_scenes, _parse_scene, load_dataset, save_dataset
from urelnet.errors import DatasetValidationError
from urelnet.scene import ANNOTATION_COLUMNS, DETECTION_COLUMNS, Vocabulary
from urelnet.synthetic import SyntheticConfig, generate_synthetic

COLUMNS = [name for name, _, _ in DETECTION_COLUMNS + ANNOTATION_COLUMNS]
FILES = ("dataset.json", "embeddings.txt", "features.bin", "features.idx.json")


def assert_same_scenes(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert (a.image_id, a.width, a.height, a.split) == (b.image_id, b.width, b.height, b.split)
        assert a.feature_keys == b.feature_keys
        for name in COLUMNS:
            x, y = getattr(a, name), getattr(b, name)
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name


def _scanned(scenes_raw, vocab):
    return [_parse_scene(raw, vocab, i) for i, raw in enumerate(scenes_raw)]


def _vocabulary(doc):
    names = doc["vocabulary"]
    return Vocabulary(tuple(names["objects"]), tuple(names["predicates"]))


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    """The benchmark's desk data: SyntheticConfig defaults at seed 7."""
    root = tmp_path_factory.mktemp("desk") / "ds"
    save_dataset(generate_synthetic(SyntheticConfig(seed=7)), root)
    return root


def test_columns_equal_the_scan_on_desk_data(desk):
    doc = json.loads((desk / "dataset.json").read_text(encoding="utf-8"))
    vocab = _vocabulary(doc)
    columns = _column_scenes(doc["scenes"], vocab)
    assert len(columns) == 500
    assert_same_scenes(columns, _scanned(doc["scenes"], vocab))


def test_saving_a_loaded_dataset_rewrites_the_same_bytes(desk, tmp_path):
    save_dataset(load_dataset(desk), tmp_path)
    for name in FILES:
        assert (tmp_path / name).read_bytes() == (desk / name).read_bytes(), name


# A coordinate as JSON may hold it: an int, a float, or a signed zero.
_coord = st.one_of(
    st.integers(0, 60),
    st.floats(0, 60, allow_nan=False, allow_infinity=False),
    st.just(-0.0),
)


@st.composite
def _box(draw):
    x, y = draw(_coord), draw(_coord)
    return [x, y, x + draw(st.integers(1, 40)), y + draw(st.floats(0.5, 40))]


def _detection(image_id):
    return st.fixed_dictionaries({
        "box": _box(),
        "category": st.integers(0, 3),
        "confidence": st.one_of(st.just(1), st.floats(1e-9, 1.0)),
        "feature_key": st.text(max_size=3).map(lambda t: f"{image_id}|{t}"),
    })


_annotation = st.fixed_dictionaries({
    "subject_box": _box(),
    "subject_category": st.integers(0, 3),
    "predicate": st.integers(0, 2),
    "object_box": _box(),
    "object_category": st.integers(0, 3),
})


@st.composite
def _scene(draw, index):
    image_id = f"img{index}"
    return {
        "image_id": image_id,
        "width": draw(st.sampled_from([100, 100.0, 1e6])),
        "height": draw(st.sampled_from([100, 100.5])),
        "split": draw(st.sampled_from(["train", "validation", "test"])),
        "detections": draw(st.lists(_detection(image_id), max_size=4)),
        "annotations": draw(st.lists(_annotation, max_size=3)),
        "ignored": draw(st.none()),
    }


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: st.tuples(*(_scene(i) for i in range(n)))))
def test_columns_equal_the_scan_on_valid_documents(scenes_raw):
    vocab = Vocabulary(("a", "b", "c", "d"), ("p", "q", "r"))
    scenes_raw = json.loads(json.dumps(list(scenes_raw)))  # exactly what json.load gives
    columns = _column_scenes(scenes_raw, vocab)
    assert_same_scenes(columns, _scanned(scenes_raw, vocab))
    # -0.0 keeps its sign, as the scan's float() does.
    for scene, raw in zip(columns, scenes_raw):
        for box, det in zip(scene.boxes.tolist(), raw["detections"]):
            assert [math.copysign(1, v) for v in box] == [math.copysign(1, v) for v in det["box"]]


def test_the_first_of_two_faults_in_scan_order_is_reported(desk, tmp_path):
    # The columns meet scene 3's box before scene 1's object category; the
    # scan, and so the error, names scene 1's.
    doc = json.loads((desk / "dataset.json").read_text(encoding="utf-8"))
    doc["scenes"][3]["detections"][0]["box"] = [0, 0, 1000, 10]
    doc["scenes"][1]["annotations"][0]["object_category"] = 99
    save_dataset(load_dataset(desk), tmp_path)
    (tmp_path / "dataset.json").write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DatasetValidationError) as raised:
        load_dataset(tmp_path)
    image_id = doc["scenes"][1]["image_id"]
    assert str(raised.value) == (
        f"scene #1 ({image_id!r}): annotation #0: object_category 99 out of range [0, 20)"
    )
    with pytest.raises(ValueError):
        _column_scenes(doc["scenes"], _vocabulary(doc))


# sha256 of the files ``urelnet synth --seed 7 --train 6 --test 3`` writes.
# They were recorded from commit 5aad70b, before any source change that
# made scenes columns, so a refactor of the scene model that changes a byte
# of the dataset format fails here.
GOLDEN = {
    "dataset.json": "968158ac3377cd328d1687bda18595f71dafb43ef313190283c3e3294fc60622",
    "embeddings.txt": "2bf6f9ceffabbaf5168b1d030560344f53f482aeded7012b23c457e589686587",
    "features.bin": "85d9c11ef5a8bdbd7614335dc0a42a9afc2715ccedc65acdbff6260c3c4323c0",
    "features.idx.json": "d803daa5252669b566007c6f54ac450bc4e9dfe4d0c7dc52350785f24e6ad30d",
}


def test_synth_writes_the_recorded_bytes(tmp_path, capsys):
    out = tmp_path / "ds"
    assert main(["synth", "--out", str(out), "--seed", "7", "--train", "6", "--test", "3"]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in FILES}
    assert digests == GOLDEN
    assert json.loads(capsys.readouterr().out)["features"] == 2281


def _leaf_paths(value, prefix=()):
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        if isinstance(child, (dict, list)) and child:
            yield from _leaf_paths(child, prefix + (key,))
        yield prefix + (key,)


@pytest.mark.parametrize(
    "replacement", [True, False, None, "1", -1, 0, 10**400, 1e400, -math.inf, [], {}, [1, 2]],
    ids=["true", "false", "null", "string", "minus-one", "zero", "huge-int", "inf", "minus-inf",
         "empty-list", "empty-object", "short-list"],
)
def test_columns_reject_exactly_what_the_scan_rejects(desk, replacement):
    # Any one value of two scenes replaced: the columns fail iff the scan
    # raises, so a fallback always finds the value the columns refused.
    doc = json.loads((desk / "dataset.json").read_text(encoding="utf-8"))
    vocab = _vocabulary(doc)
    scenes_raw = doc["scenes"][:2]
    for path in _leaf_paths(scenes_raw):
        target = scenes_raw
        for key in path[:-1]:
            target = target[key]
        original, target[path[-1]] = target[path[-1]], replacement
        try:
            try:
                expected = _scanned(scenes_raw, vocab)
            except DatasetValidationError:
                # Only what load_dataset catches, so the scan then runs.
                with pytest.raises((KeyError, TypeError, ValueError, OverflowError)):
                    _column_scenes(scenes_raw, vocab)
            else:
                assert_same_scenes(_column_scenes(scenes_raw, vocab), expected)
        finally:
            target[path[-1]] = original
