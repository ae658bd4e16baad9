import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from urelnet.errors import GeometryError
from urelnet.scene import (
    BoundingBox,
    iou,
    iou_rows,
    pair_indices,
    union_box,
    union_rows,
)

# Coordinates on a 1/32 grid keep box differences exactly representable,
# so equality-sensitive properties are not confounded by float rounding.
coord = st.integers(min_value=-16000, max_value=16000).map(lambda v: v / 32.0)
extent = st.integers(min_value=16, max_value=9600).map(lambda v: v / 32.0)


@st.composite
def boxes(draw):
    x1 = draw(coord)
    y1 = draw(coord)
    return BoundingBox(x1, y1, x1 + draw(extent), y1 + draw(extent))


def box_array(boxes):
    """(n, 4) rows of the ``BoundingBox``es ``boxes``."""
    return np.array([b.as_tuple() for b in boxes], dtype=np.float64).reshape(-1, 4)


def test_iou_hand_example():
    a = BoundingBox(0, 0, 10, 10)
    b = BoundingBox(5, 5, 15, 15)
    # intersection [5,5,10,10] area 25; union 100 + 100 - 25
    assert iou(a, b) == pytest.approx(25 / 175, abs=1e-12)


def test_iou_identity():
    b = BoundingBox(3.5, -2.0, 9.25, 4.0)
    assert iou(b, b) == 1.0


def test_iou_disjoint():
    assert iou(BoundingBox(0, 0, 1, 1), BoundingBox(2, 2, 3, 3)) == 0.0


def test_degenerate_box_rejected():
    with pytest.raises(GeometryError):
        BoundingBox(0, 0, 0, 1)
    with pytest.raises(GeometryError):
        BoundingBox(5, 5, 4, 6)
    with pytest.raises(GeometryError):
        BoundingBox(0, 0, math.nan, 1)
    with pytest.raises(GeometryError):
        BoundingBox(0, 0, math.inf, 1)


@given(boxes(), boxes())
def test_iou_symmetric_and_bounded(a, b):
    v = iou(a, b)
    assert v == iou(b, a)
    assert 0.0 <= v <= 1.0


@given(boxes(), boxes())
def test_iou_one_only_for_identical(a, b):
    if a != b:
        assert iou(a, b) < 1.0


def test_union_hand_examples():
    assert union_box(BoundingBox(0, 0, 2, 2), BoundingBox(1, 1, 3, 3)) == BoundingBox(0, 0, 3, 3)
    b = BoundingBox(1, 2, 3, 4)
    assert union_box(b, b) == b
    assert union_box(BoundingBox(2, 2, 6, 6), BoundingBox(4, 4, 10, 8)) == BoundingBox(2, 2, 10, 8)


def _contains(outer, inner):
    return (
        outer.x_min <= inner.x_min
        and outer.y_min <= inner.y_min
        and outer.x_max >= inner.x_max
        and outer.y_max >= inner.y_max
    )


@given(boxes(), boxes(), boxes())
def test_union_algebra(a, b, c):
    assert union_box(a, b) == union_box(b, a)
    assert union_box(union_box(a, b), c) == union_box(a, union_box(b, c))
    assert union_box(a, a) == a
    u = union_box(a, b)
    assert _contains(u, a) and _contains(u, b)


def _pair_list(n):
    """``pair_indices(n)`` as a list of (i, j) tuples."""
    subjects, objects = pair_indices(n)
    return list(zip(subjects.tolist(), objects.tolist()))


@pytest.mark.parametrize("n,expected", [(1, 0), (2, 2), (4, 12)])
def test_enumerate_pairs_counts(n, expected):
    pairs = _pair_list(n)
    assert len(pairs) == expected


def test_enumerate_pairs_two():
    assert _pair_list(2) == [(0, 1), (1, 0)]


@given(st.integers(min_value=0, max_value=10))
def test_enumerate_pairs_matches_brute_force(n):
    pairs = _pair_list(n)
    brute = []
    for i in range(n):
        for j in range(n):
            if i != j:
                brute.append((i, j))
    assert pairs == brute
    assert len(set(pairs)) == len(pairs)
    assert all(i != j for i, j in pairs)


def test_iou_rows_bit_identical_to_iou():
    fixed = [
        BoundingBox(0, 0, 10, 10),
        BoundingBox(20, 20, 30, 30),  # disjoint from the first
        BoundingBox(10, 0, 20, 10),  # touches the first along an edge
        BoundingBox(10, 10, 12, 12),  # touches the first at a corner
        BoundingBox(2, 3, 5, 7),  # nested in the first
        BoundingBox(0, 0, 10, 5),  # IoU exactly 0.5 with the first
        BoundingBox(0, 0, 10, 10),  # identical to the first
    ]
    rng = np.random.default_rng(4)
    corners = rng.uniform(-50, 50, size=(60, 2))
    sizes = rng.uniform(0.01, 60, size=(60, 2))
    random = [BoundingBox(*c, *(c + s)) for c, s in zip(corners, sizes)]
    a, b = fixed + random[:30], fixed + random[30:]
    got = iou_rows(box_array(a), box_array(b))
    expected = np.array([[iou(x, y) for y in b] for x in a])
    assert got.shape == (len(a), len(b))
    assert got.tobytes() == expected.tobytes()
    assert iou_rows(box_array([]), box_array(b)).shape == (0, len(b))
    assert iou_rows(box_array(a), box_array([])).shape == (len(a), 0)
    # The row-wise union of the same boxes, paired row by row.
    unions = union_rows(box_array(a), box_array(b))
    assert unions.tobytes() == box_array(map(union_box, a, b)).tobytes()


@given(st.lists(boxes(), min_size=1, max_size=4), st.lists(boxes(), min_size=1, max_size=4))
def test_iou_rows_bit_identical_on_grid_boxes(a, b):
    expected = np.array([[iou(x, y) for y in b] for x in a])
    assert iou_rows(box_array(a), box_array(b)).tobytes() == expected.tobytes()
