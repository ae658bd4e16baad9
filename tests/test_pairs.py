import numpy as np
import pytest

from urelnet.errors import InsufficientDataError, UsageError
from urelnet.pairs import (
    BatchSpec,
    PairSampler,
    PairStatus,
    generate_for_scene,
    gt_pairs_for_scene,
)
from urelnet.scene import BoundingBox

from scene_rows import Ann, Det, annotations_of, detections_of, make_scene

M = 4


def det(x1, y1, x2, y2, category, confidence=0.9):
    return Det(BoundingBox(x1, y1, x2, y2), category, confidence)


def ann(sbox, scat, pred, obox, ocat):
    return Ann(BoundingBox(*sbox), scat, pred, BoundingBox(*obox), ocat)


def shifted(box, dx):
    return BoundingBox(box.x_min + dx, box.y_min, box.x_max + dx, box.y_max)


def _scene(detections, annotations, image_id="img0", split="train"):
    return make_scene(image_id, detections, annotations, split, width=200.0, height=200.0)


def classify(subject, obj, annotations):
    """Row (0, 1) of a two-detection scene's pairs: whether it is
    determinate, its labels and the annotations it matches."""
    pairs = generate_for_scene(_scene([subject, obj], annotations), M)
    assert (pairs.subject_indices[0], pairs.object_indices[0]) == (0, 1)
    matched = tuple(np.flatnonzero(pairs.hits[0]).tolist())
    return bool(pairs.determinate[0]), pairs.labels[0].tolist(), matched


def test_classify_matching_pair_is_determinate():
    # 10x10 boxes shifted to land at IoU 0.8+ / 0.7+ against the annotation
    a = ann((0, 0, 10, 10), 1, 2, (20, 0, 30, 10), 3)
    subject = det(0.5, 0, 10.5, 10, 1)   # IoU ~ 0.82
    obj = det(21.5, 0, 31.5, 10, 3)      # IoU ~ 0.74
    assert classify(subject, obj, [a]) == (True, [0, 0, 1, 0], (0,))


def test_classify_low_object_iou_is_undetermined():
    a = ann((0, 0, 10, 10), 1, 2, (20, 0, 30, 10), 3)
    subject = det(1, 0, 11, 10, 1)    # IoU ~ 0.82 > 0.5
    obj = det(25, 0, 35, 10, 3)       # IoU = 5/15 < 0.5
    assert classify(subject, obj, [a]) == (False, [0, 0, 0, 0], ())


def test_classify_category_mismatch_is_undetermined():
    # Perfect boxes but the detector called the subject a different class.
    a = ann((0, 0, 10, 10), 1, 2, (20, 0, 30, 10), 3)
    subject = det(0, 0, 10, 10, 0)
    obj = det(20, 0, 30, 10, 3)
    assert classify(subject, obj, [a])[0] is False


def test_classify_iou_threshold_is_strict():
    # Exactly 0.5 must NOT match.
    a = ann((0, 0, 10, 10), 1, 2, (20, 0, 30, 10), 3)
    # box [0,0,10,5] vs [0,0,10,10]: inter 50, union 100 -> 0.5 exactly
    subject = Det(BoundingBox(0, 0, 10, 5), 1, 0.9)
    obj = det(20, 0, 30, 10, 3)
    assert classify(subject, obj, [a])[0] is False


def test_multi_label_accumulation():
    base_s, base_o = (0, 0, 10, 10), (20, 0, 30, 10)
    annotations = [
        ann(base_s, 1, 0, base_o, 3),
        ann(base_s, 1, 2, base_o, 3),
    ]
    got = classify(det(*base_s, 1), det(*base_o, 3), annotations)
    assert got == (True, [1, 0, 1, 0], (0, 1))


def brute_force_determinate(subject, obj, annotations):
    """Independent re-statement of the determinacy criterion."""
    from urelnet.scene import iou

    return any(
        subject.category == a.subject_category
        and obj.category == a.object_category
        and iou(subject.box, a.subject_box) > 0.5
        and iou(obj.box, a.object_box) > 0.5
        for a in annotations
    )


def random_scene(rng, n_det, n_ann, n_cat=4):
    def rand_box():
        x1 = rng.uniform(0, 80)
        y1 = rng.uniform(0, 80)
        return BoundingBox(x1, y1, x1 + rng.uniform(2, 40), y1 + rng.uniform(2, 40))

    detections = [
        Det(rand_box(), int(rng.integers(n_cat)), float(rng.uniform(0.1, 1.0)))
        for _ in range(n_det)
    ]
    annotations = [
        Ann(rand_box(), int(rng.integers(n_cat)), int(rng.integers(M)),
            rand_box(), int(rng.integers(n_cat)))
        for _ in range(n_ann)
    ]
    return detections, annotations


def test_classifier_matches_brute_force_oracle():
    rng = np.random.default_rng(11)
    determinate = 0
    for _ in range(300):
        detections, annotations = random_scene(
            rng, int(rng.integers(2, 7)), int(rng.integers(0, 7))
        )
        # Annotations reuse detection boxes half the time so matches occur.
        for k in range(len(annotations)):
            if rng.random() < 0.5 and len(detections) >= 2:
                i, j = rng.choice(len(detections), size=2, replace=False)
                annotations[k] = Ann(
                    detections[i].box, detections[i].category, int(rng.integers(M)),
                    detections[j].box, detections[j].category,
                )
        pairs = generate_for_scene(_scene(detections, annotations), M)
        expected = [
            brute_force_determinate(s, o, annotations)
            for i, s in enumerate(detections)
            for j, o in enumerate(detections)
            if i != j
        ]
        assert pairs.determinate.tolist() == expected
        determinate += sum(expected)
    assert determinate > 0


def test_monotone_in_iou():
    # Sliding the detection boxes toward the annotation raises both IoUs;
    # once determinate, smaller offsets must stay determinate.
    a = ann((0, 0, 10, 10), 1, 2, (20, 0, 30, 10), 3)
    was_determinate = False
    for dx in [6.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.5, 0.0]:
        subject = Det(shifted(a.subject_box, dx), 1, 0.9)
        obj = Det(shifted(a.object_box, dx), 3, 0.9)
        determinate = classify(subject, obj, [a])[0]
        if was_determinate:
            assert determinate
        was_determinate = determinate
    assert was_determinate


def test_generate_for_scene_one_direction_matches():
    a = ann((0, 0, 10, 10), 1, 2, (20, 0, 30, 10), 3)
    scene = _scene([det(0, 0, 10, 10, 1), det(20, 0, 30, 10, 3)], [a])
    result = generate_for_scene(scene, M)
    assert len(result) == 2
    statuses = [p.status for p in result]
    assert statuses == [PairStatus.DETERMINATE, PairStatus.UNDETERMINED]
    assert result[0].union_feature_key == "img0|union|det|0|1"


def test_generate_for_scene_without_annotations():
    scene = _scene([det(0, 0, 10, 10, 1), det(20, 0, 30, 10, 3)], [])
    assert all(p.status is PairStatus.UNDETERMINED for p in generate_for_scene(scene, M))


def test_generate_for_scene_single_detection():
    scene = _scene([det(0, 0, 10, 10, 1)], [])
    assert len(generate_for_scene(scene, M)) == 0


def test_gt_pairs_annotated_only():
    a = ann((0, 0, 10, 10), 1, 2, (20, 0, 30, 10), 3)
    scene = _scene([], [a])
    pairs = gt_pairs_for_scene(scene, M, annotated_only=True)
    assert len(pairs) == 1
    assert pairs[0].status is PairStatus.DETERMINATE
    assert pairs.confidences[pairs[0].subject_index] == 1.0
    assert pairs[0].predicate_labels.tolist() == [0, 0, 1, 0]
    both = gt_pairs_for_scene(scene, M, annotated_only=False)
    assert len(both) == 2  # both orderings of the two gt objects


def test_batch_spec_quota():
    spec = BatchSpec(batch_size=8, undetermined_ratio=3.0, rng_seed=0)
    assert spec.undetermined_quota == 6
    assert spec.determinate_quota == 2
    assert BatchSpec(8, 0.0).undetermined_quota == 0


@pytest.mark.parametrize("ratio", [2.0**53, 1e20, 5.617791046444737e306, 1.7976931348623157e308])
def test_batch_spec_huge_finite_ratio_is_all_undetermined(ratio):
    # 32 * 5.6e306 overflows to inf; the quota is the whole batch all the same.
    spec = BatchSpec(32, ratio)
    assert (spec.undetermined_quota, spec.determinate_quota) == (32, 0)


@pytest.mark.parametrize("ratio", [-1.0, float("nan"), float("inf")])
def test_batch_spec_rejects_negative_or_non_finite_ratio(ratio):
    with pytest.raises(UsageError, match="undetermined_ratio"):
        BatchSpec(8, ratio)


def test_sampler_composition_and_determinism():
    # Determinate items are below 100, undetermined ones from 100 up.
    spec = BatchSpec(batch_size=8, undetermined_ratio=3.0, rng_seed=42)
    det_pool, und_pool = np.arange(10), np.arange(100, 130)
    a = PairSampler(det_pool, und_pool, spec)
    b = PairSampler(det_pool, und_pool, spec)
    for _ in range(3):
        batch = a.sample_batch()
        assert batch.tolist() == b.sample_batch().tolist()
        assert (batch[:2] < 100).all() and (batch[2:] >= 100).all()
        assert len(batch) == 8


def test_sampler_epoch_without_replacement():
    spec = BatchSpec(batch_size=4, undetermined_ratio=1.0, rng_seed=1)
    sampler = PairSampler(np.arange(10), np.arange(100, 110), spec)
    drawn = []
    for _ in range(5):  # 5 batches x 2 determinate = exactly one epoch
        drawn.extend(x for x in sampler.sample_batch().tolist() if x < 100)
    assert sorted(drawn) == list(range(10))


def test_sampler_small_pool_reshuffles():
    spec = BatchSpec(batch_size=4, undetermined_ratio=3.0, rng_seed=5)
    sampler = PairSampler(np.array([7]), np.array([100, 101]), spec)
    batch = sampler.sample_batch()
    assert (batch == 7).sum() == 1
    assert len(batch) == 4  # undetermined quota 3 from a pool of 2 reuses items


class _ItemCycler:
    """Oracle: draws one item at a time into a list, reshuffling with
    ``rng.permutation`` only when the pool runs dry and an item is needed."""

    def __init__(self, items, rng):
        self.items, self.rng, self.order, self.cursor = list(items), rng, [], 0

    def draw(self, count):
        out = []
        while len(out) < count:
            if self.cursor >= len(self.order):
                self.order = list(self.rng.permutation(len(self.items)))
                self.cursor = 0
            out.append(self.items[self.order[self.cursor]])
            self.cursor += 1
        return out


@pytest.mark.parametrize(
    "batch_size, ratio, det_size, und_size",
    [(8, 3.0, 10, 30), (32, 3.0, 7, 95), (5, 0.0, 3, 0), (6, 1e9, 0, 4), (9, 2.0, 3, 61)],
)
def test_sampler_matches_item_by_item_draws(batch_size, ratio, det_size, und_size):
    spec = BatchSpec(batch_size=batch_size, undetermined_ratio=ratio, rng_seed=11)
    det_pool, und_pool = np.arange(det_size), np.arange(1000, 1000 + und_size)
    sampler = PairSampler(det_pool, und_pool, spec)
    rng = np.random.default_rng(spec.rng_seed)
    det, und = _ItemCycler(det_pool.tolist(), rng), _ItemCycler(und_pool.tolist(), rng)
    for _ in range(40):
        expected = det.draw(spec.determinate_quota) + und.draw(spec.undetermined_quota)
        assert sampler.sample_batch().tolist() == expected


def test_sampler_all_determinate_ratio_zero():
    spec = BatchSpec(batch_size=4, undetermined_ratio=0.0, rng_seed=3)
    sampler = PairSampler(list("abcde"), [], spec)
    assert len(sampler.sample_batch()) == 4


def test_sampler_empty_pool_error():
    spec = BatchSpec(batch_size=8, undetermined_ratio=3.0, rng_seed=0)
    with pytest.raises(InsufficientDataError):
        PairSampler(["d0"], [], spec)
    with pytest.raises(InsufficientDataError):
        PairSampler([], ["u0"], spec)


def _pair_tuples(pairs):
    return [
        (p.subject_index, p.object_index, p.status.value,
         p.predicate_labels.dtype.str, p.predicate_labels.tolist(), p.matched_annotations,
         p.union_feature_key)
        for p in pairs
    ]


def _oracle_pairs(objects, annotations, matches, union_key, annotated_only=False):
    """Brute force over every ordered pair and annotation, one at a time."""
    out = []
    for i, s in enumerate(objects):
        for j, o in enumerate(objects):
            if i == j:
                continue
            labels = [0.0] * M
            matched = []
            for k, a in enumerate(annotations):
                if matches(s, o, a):
                    labels[a.predicate] = 1.0
                    matched.append(k)
            if annotated_only and not matched:
                continue
            status = "determinate" if matched else "undetermined"
            out.append((i, j, status, "<f8", labels, tuple(matched), union_key(i, j)))
    return out


def _oracle_detection_match(s, o, a):
    from urelnet.scene import iou

    return (
        s.category == a.subject_category
        and o.category == a.object_category
        and iou(s.box, a.subject_box) > 0.5
        and iou(o.box, a.object_box) > 0.5
    )


def _oracle_gt_match(s, o, a):
    return (
        (s.box, s.category) == (a.subject_box, a.subject_category)
        and (o.box, o.category) == (a.object_box, a.object_category)
    )


def _grid_scene(rng, index):
    """Integer-grid boxes so that exact IoU 0.5 ties, shared boxes and
    duplicate annotations all occur."""
    def rand_box():
        x1, y1 = (int(v) for v in rng.integers(0, 30, size=2))
        w, h = (2 * int(v) for v in rng.integers(1, 8, size=2))
        return BoundingBox(x1, y1, x1 + w, y1 + h)

    pool = [rand_box() for _ in range(4)]
    annotations = [
        Ann(pool[int(rng.integers(4))], int(rng.integers(3)), int(rng.integers(M)),
            pool[int(rng.integers(4))], int(rng.integers(3)))
        for _ in range(int(rng.integers(0, 5)) if index % 5 else 0)
    ]
    if annotations and rng.random() < 0.3:
        annotations.append(annotations[int(rng.integers(len(annotations)))])
    roles = [(a.subject_box, a.subject_category) for a in annotations]
    roles += [(a.object_box, a.object_category) for a in annotations]
    detections = []
    for _ in range(int(rng.integers(0, 7)) if index % 7 else 1):
        if roles and rng.random() < 0.7:  # stand-in for an annotated object
            box, category = roles[int(rng.integers(len(roles)))]
        else:
            box, category = pool[int(rng.integers(4))], int(rng.integers(3))
        kind = rng.random()
        if kind < 0.3:  # half the height: IoU exactly 0.5 with the pool box
            box = BoundingBox(box.x_min, box.y_min, box.x_max, box.y_min + box.height / 2)
        elif kind < 0.5:
            box = BoundingBox(box.x_min + 1, box.y_min, box.x_max + 1, box.y_max)
        elif kind < 0.6:
            box = rand_box()
        detections.append(Det(box, category, 0.9))
    return make_scene(f"img{index}", detections, annotations)


def _assert_arrays_match(pairs, oracle, annotation_count):
    """The record's arrays say what the oracle's pairs do, row for row."""
    assert pairs.subject_indices.tolist() == [t[0] for t in oracle]
    assert pairs.object_indices.tolist() == [t[1] for t in oracle]
    assert pairs.labels.dtype == np.float64
    assert pairs.labels.reshape(len(oracle), M).tolist() == [t[4] for t in oracle]
    assert pairs.determinate.tolist() == [t[2] == "determinate" for t in oracle]
    assert pairs.hits.shape == (len(oracle), annotation_count)
    assert [tuple(np.flatnonzero(row).tolist()) for row in pairs.hits] == [t[5] for t in oracle]
    assert list(pairs.union_keys) == [t[6] for t in oracle]


def _assert_objects_match(pairs, objects):
    """The record's object table holds ``objects``, row for row."""
    assert pairs.boxes.tolist() == [list(o.box.as_tuple()) for o in objects]
    assert pairs.categories.tolist() == [o.category for o in objects]
    assert pairs.confidences.tolist() == [o.confidence for o in objects]
    assert list(pairs.feature_keys) == [o.feature_key for o in objects]


def test_batched_pair_builders_match_brute_force_oracle():
    from urelnet.scene import iou

    rng = np.random.default_rng(23)
    seen = {"no annotations": 0, "one detection": 0, "duplicate annotation": 0, "iou 0.5": 0}
    for index in range(400):
        scene = _grid_scene(rng, index)
        dets, anns = detections_of(scene), annotations_of(scene)
        seen["no annotations"] += not anns
        seen["one detection"] += len(dets) == 1
        seen["duplicate annotation"] += len(set(anns)) < len(anns)
        seen["iou 0.5"] += any(
            iou(d.box, b) == 0.5 for d in dets for a in anns for b in (a.subject_box, a.object_box)
        )
        pairs = generate_for_scene(scene, M)
        oracle = _oracle_pairs(
            dets, anns, _oracle_detection_match,
            lambda i, j: f"{scene.image_id}|union|det|{i}|{j}",
        )
        assert _pair_tuples(pairs) == oracle
        _assert_arrays_match(pairs, oracle, len(anns))
        _assert_objects_match(pairs, dets)
        gt = [
            Det(BoundingBox(*box), cat, 1.0, f"{scene.image_id}|gt|{i}")
            for i, (box, cat) in enumerate(zip(*(c.tolist() for c in scene.gt_objects())))
        ]
        for annotated_only in (False, True):
            pairs = gt_pairs_for_scene(scene, M, annotated_only)
            oracle = _oracle_pairs(
                gt, anns, _oracle_gt_match,
                lambda i, j: f"{scene.image_id}|union|gt|{i}|{j}", annotated_only,
            )
            assert _pair_tuples(pairs) == oracle
            _assert_arrays_match(pairs, oracle, len(anns))
            _assert_objects_match(pairs, gt)
    assert all(count > 0 for count in seen.values()), seen
