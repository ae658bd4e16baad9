import itertools
import zlib

import numpy as np
import pytest

from urelnet.errors import UndefinedMetricError
from urelnet.evaluation import (
    EVAL_IOU_THRESHOLD,
    TASKS,
    EvalConfig,
    PredictedTriplet,
    PredictionSet,
    UniformRandomScorer,
    candidate_pairs,
    evaluate_configs,
    evaluate_scenes,
    match_predictions,
    predict_scene,
    rank_pairs,
    recall_at_n,
)
from urelnet.pairs import generate_for_scene
from urelnet.evaluation import GroundTruth
from urelnet.scene import BoundingBox, iou, union_box

from scene_rows import Ann, Det, annotations_of, ground_truth, make_scene

M = 3


def box(x1, y1, x2, y2):
    return BoundingBox(x1, y1, x2, y2)


def det(b, category, confidence=0.9):
    return Det(b, category, confidence)


def scene_with_detections(detections, annotations=(), image_id="img"):
    return make_scene(image_id, detections, annotations, "test", width=400.0, height=400.0)


def _boxes(boxes):
    return np.array([b.as_tuple() for b in boxes], dtype=np.float64).reshape(-1, 4)


def pair_rows(pairs):
    """Each pair's (index, subject box, subject category, object box, object category)."""
    boxes = [BoundingBox(*b) for b in pairs.boxes.tolist()]
    categories = pairs.categories.tolist()
    for idx, (i, j) in enumerate(zip(pairs.subject_indices.tolist(), pairs.object_indices.tolist())):
        yield idx, boxes[i], categories[i], boxes[j], categories[j]


def pred(sbox, scat, predicate, obox, ocat, score, pair_index=0):
    return PredictedTriplet(sbox, scat, predicate, obox, ocat, score, pair_index)


def prediction_set(image_id, triplets):
    """The ``PredictionSet`` whose rows are ``triplets``, in order."""

    def column(name, dtype):
        return np.array([getattr(t, name) for t in triplets], dtype=dtype)

    return PredictionSet(
        image_id,
        _boxes(t.subject_box for t in triplets),
        column("subject_category", np.intp),
        column("predicate", np.intp),
        _boxes(t.object_box for t in triplets),
        column("object_category", np.intp),
        column("score", np.float64),
        column("pair_index", np.intp),
    )


def _hit_condition(pred, gt, task):
    """The scalar hit test: one prediction against one ground-truth triplet."""
    if (
        pred.predicate != gt.predicate
        or pred.subject_category != gt.subject_category
        or pred.object_category != gt.object_category
    ):
        return False
    if task == "predicate":
        # Boxes come from the ground truth itself; categories and predicate decide.
        return True
    if task == "phrase":
        pred_union = union_box(pred.subject_box, pred.object_box)
        gt_union = union_box(gt.subject_box, gt.object_box)
        return iou(pred_union, gt_union) >= 0.5
    return (
        iou(pred.subject_box, gt.subject_box) >= 0.5
        and iou(pred.object_box, gt.object_box) >= 0.5
    )


def reference_match(triplets, ground_truth, task):
    """Greedy matching with the scalar hit test, one (prediction, ground
    truth) pair at a time."""
    consumed = [False] * len(ground_truth)
    hits = []
    for p in triplets:
        g = next((g for g, truth in enumerate(ground_truth)
                  if not consumed[g] and _hit_condition(p, truth, task)), None)
        if g is not None:
            consumed[g] = True
        hits.append(g is not None)
    return hits


class PerSceneScorer:
    """A scorer of groups from ``score(pairs, scene)``: each scene's rows,
    stacked in group order."""

    def __call__(self, group):
        return np.concatenate([self.score(pairs, scene) for pairs, scene in group])


class FixedScorer(PerSceneScorer):
    """Returns a pre-built (pairs x M) score matrix."""

    def __init__(self, scores):
        self.scores = np.asarray(scores, dtype=float)

    def score(self, pairs, scene):
        return self.scores[: len(pairs)]


def test_eval_config_defaults():
    config = EvalConfig()
    assert config.task == "relation"
    assert config.n_values == (50, 100)
    assert config.k == 1
    assert EVAL_IOU_THRESHOLD == 0.5
    assert not config.zero_shot_only


def test_predict_scene_k1_counts():
    detections = [det(box(i * 20, 0, i * 20 + 10, 10), i % 2) for i in range(3)]
    scene = scene_with_detections(detections)
    scorer = FixedScorer(np.linspace(0.9, 0.1, 6 * M).reshape(6, M))
    result = predict_scene(scene, scorer, task="relation", k=1, predicate_count=M)
    assert len(result.triplets) == 6  # 3 detections -> 6 ordered pairs, k=1 each


def test_predict_scene_k2_doubles_output():
    detections = [det(box(i * 20, 0, i * 20 + 10, 10), 0) for i in range(3)]
    scene = scene_with_detections(detections)
    scorer = FixedScorer(np.random.default_rng(0).uniform(size=(6, M)))
    result = predict_scene(scene, scorer, task="relation", k=2, predicate_count=M)
    assert len(result.triplets) == 12


def test_predict_scene_rejects_unknown_task():
    from urelnet.errors import UsageError

    scene = scene_with_detections([det(box(0, 0, 10, 10), 0), det(box(20, 0, 30, 10), 1)])
    with pytest.raises(UsageError):
        predict_scene(scene, FixedScorer(np.zeros((2, M))), task="bogus", predicate_count=M)


def test_predict_scene_empty_detections():
    scene = scene_with_detections([])
    result = predict_scene(scene, FixedScorer(np.zeros((0, M))), predicate_count=M)
    assert result.triplets == []


def test_predict_scene_sorted_with_deterministic_ties():
    detections = [det(box(i * 20, 0, i * 20 + 10, 10), 0) for i in range(2)]
    scene = scene_with_detections(detections)
    scores = np.array([[0.5, 0.5, 0.2], [0.5, 0.1, 0.1]])
    result = predict_scene(scene, FixedScorer(scores), k=2, predicate_count=M)
    ranked = [(t.pair_index, t.predicate) for t in result.triplets]
    # Three 0.5-scored entries tie; order is (pair, predicate) lexicographic.
    assert ranked[:3] == [(0, 0), (0, 1), (1, 0)]


def test_predict_scene_k2_ties_across_pairs_and_predicates():
    detections = [det(box(i * 20, 0, i * 20 + 10, 10), 0) for i in range(3)]
    scene = scene_with_detections(detections)
    # All six pairs and every predicate tie: k=2 keeps predicates 0 and 1 of
    # each pair, ranked by pair index, then predicate.
    result = predict_scene(scene, FixedScorer(np.full((6, M), 0.5)), k=2, predicate_count=M)
    ranked = [(t.pair_index, t.predicate) for t in result.triplets]
    assert ranked == [(p, q) for p in range(6) for q in (0, 1)]
    # Ties inside a row keep the lower predicates; ties across rows keep
    # the lower pair first.
    scores = np.array([[0.2, 0.7, 0.7], [0.7, 0.7, 0.1], [0.7, 0.2, 0.7]] + [[0.0] * M] * 3)
    result = predict_scene(scene, FixedScorer(scores), k=2, predicate_count=M)
    ranked = [(t.pair_index, t.predicate, t.score) for t in result.triplets[:6]]
    assert ranked == [
        (0, 1, 0.7), (0, 2, 0.7), (1, 0, 0.7), (1, 1, 0.7), (2, 0, 0.7), (2, 2, 0.7)
    ]
    cut = rank_pairs(scene, generate_for_scene(scene, M), scores, 2, limit=5)
    assert cut.triplets == result.triplets[:5]
    # Rows wide enough for a non-stable sort to pick other tied predicates
    # at the k-th place.
    wide = np.zeros((6, 40))
    wide[:, ::3] = 0.5
    result = predict_scene(scene, FixedScorer(wide), k=7, predicate_count=M)
    ranked = [(t.pair_index, t.predicate) for t in result.triplets[:14]]
    assert ranked == [(p, q) for p in (0, 1) for q in range(0, 21, 3)]


def test_exact_prediction_hits_all_tasks():
    gt = Ann(box(0, 0, 10, 10), 1, 2, box(20, 0, 30, 10), 0)
    predictions = prediction_set(
        "img", [pred(gt.subject_box, 1, 2, gt.object_box, 0, 0.9)]
    )
    for task in ("predicate", "phrase", "relation"):
        assert match_predictions(predictions, ground_truth([gt]), task) == [True]


def test_one_gt_consumed_once():
    gt = Ann(box(0, 0, 10, 10), 1, 2, box(20, 0, 30, 10), 0)
    predictions = prediction_set(
        "img",
        [
            pred(gt.subject_box, 1, 2, gt.object_box, 0, 0.9, 0),
            pred(gt.subject_box, 1, 2, gt.object_box, 0, 0.8, 1),
        ],
    )
    assert match_predictions(predictions, ground_truth([gt]), "relation") == [True, False]


def test_relation_iou_boundary_inclusive():
    gt = Ann(box(0, 0, 10, 10), 1, 2, box(20, 0, 30, 10), 0)
    # [0,0,10,5] vs [0,0,10,10]: IoU exactly 0.5
    half_subject = box(0, 0, 10, 5)
    half_object = box(20, 0, 30, 5)
    predictions = prediction_set("img", [pred(half_subject, 1, 2, half_object, 0, 0.9)])
    assert match_predictions(predictions, ground_truth([gt]), "relation") == [True]
    # Just below 0.5 misses.
    below = box(0, 0, 10, 4.99)
    predictions = prediction_set("img", [pred(below, 1, 2, half_object, 0, 0.9)])
    assert match_predictions(predictions, ground_truth([gt]), "relation") == [False]


def test_phrase_uses_union_iou():
    gt = Ann(box(0, 0, 10, 10), 1, 2, box(20, 0, 30, 10), 0)
    # Individually shifted boxes whose union still overlaps the GT union >= 0.5.
    predictions = prediction_set(
        "img", [pred(box(0, 0, 4, 10), 1, 2, box(26, 0, 30, 10), 0, 0.9)]
    )
    assert match_predictions(predictions, ground_truth([gt]), "phrase") == [True]
    assert match_predictions(predictions, ground_truth([gt]), "relation") == [False]


def test_predicate_task_ignores_boxes():
    gt = Ann(box(0, 0, 10, 10), 1, 2, box(20, 0, 30, 10), 0)
    predictions = prediction_set(
        "img", [pred(box(100, 100, 110, 110), 1, 2, box(200, 200, 210, 210), 0, 0.9)]
    )
    assert match_predictions(predictions, ground_truth([gt]), "predicate") == [True]


def test_category_mismatch_never_hits():
    gt = Ann(box(0, 0, 10, 10), 1, 2, box(20, 0, 30, 10), 0)
    predictions = prediction_set("img", [pred(gt.subject_box, 0, 2, gt.object_box, 0, 0.9)])
    for task in ("predicate", "phrase", "relation"):
        assert match_predictions(predictions, ground_truth([gt]), task) == [False]


@pytest.mark.parametrize("task", ["bogus", ""])
def test_match_predictions_rejects_unknown_task(task):
    from urelnet.errors import UsageError

    # An exact match would hit under every known task.
    gt = Ann(box(0, 0, 10, 10), 1, 2, box(20, 0, 30, 10), 0)
    predictions = prediction_set("img", [pred(gt.subject_box, 1, 2, gt.object_box, 0, 0.9)])
    with pytest.raises(UsageError) as info:
        match_predictions(predictions, ground_truth([gt]), task)
    with pytest.raises(UsageError) as config_info:
        EvalConfig(task=task)
    assert info.value.category == "usage-error"
    assert str(info.value) == str(config_info.value)


def test_greedy_consumes_first_eligible_gt():
    # One prediction could match either GT; greedy takes annotation order,
    # which can cost a later prediction its only match.
    shared = box(0, 0, 10, 10)
    gt_a = Ann(shared, 1, 2, box(20, 0, 30, 10), 0)
    gt_b = Ann(shared, 1, 2, box(20.1, 0, 30.1, 10), 0)
    p_broad = pred(shared, 1, 2, box(20, 0, 30, 10), 0, 0.9, 0)   # matches both
    p_narrow = pred(shared, 1, 2, box(20, 0, 30, 10), 0, 0.8, 1)  # also matches both
    hits = match_predictions(prediction_set("img", [p_broad, p_narrow]), ground_truth([gt_a, gt_b]), "relation")
    assert hits == [True, True]  # a consumed first, then b


def test_matcher_equals_scalar_oracle_at_iou_exactly_half():
    # Halving a 10x10 box's height or width gives IoU exactly 0.5; halving
    # both boxes' heights halves their union too.
    s, o = box(0, 0, 10, 10), box(20, 0, 30, 10)
    subjects = [s, box(0, 0, 10, 5), box(0, 5, 10, 10), box(0, 0, 5, 10), box(0, 0, 10, 4.99)]
    objects = [o, box(20, 0, 30, 5), box(20, 5, 30, 10), box(25, 0, 30, 10), box(20, 0, 30, 4.99)]
    triplets = [
        pred(sbox, 1, predicate, obox, 0, 0.0, i)
        for i, (sbox, obox, predicate) in enumerate(itertools.product(subjects, objects, (2, 0)))
    ]
    triplets = [triplets[i] for i in np.random.default_rng(8).permutation(len(triplets))]
    gts = [
        Ann(s, 1, 2, o, 0),
        Ann(s, 1, 2, o, 0),
        Ann(box(0, 0, 10, 5), 1, 2, o, 0),
        Ann(s, 1, 0, box(20, 5, 30, 10), 0),
    ]
    relation_half = [t for t in triplets
                     if iou(t.subject_box, s) == 0.5 and iou(t.object_box, o) == 0.5]
    phrase_half = [t for t in triplets
                   if iou(union_box(t.subject_box, t.object_box), union_box(s, o)) == 0.5]
    assert relation_half and phrase_half
    predictions = prediction_set("img", triplets)
    for task in TASKS:
        hits = match_predictions(predictions, ground_truth(gts), task)
        assert hits == reference_match(triplets, gts, task), task
    # Ranked alone against one ground truth, the first prediction exactly at
    # the boundary takes it: the threshold is inclusive.
    for task, chosen in (("relation", relation_half), ("phrase", phrase_half)):
        ranked = [t for t in chosen if t.predicate == 2]
        hits = match_predictions(prediction_set("img", ranked), ground_truth(gts[:1]), task)
        expected = [True] + [False] * (len(ranked) - 1)
        assert hits == reference_match(ranked, gts[:1], task) == expected


def test_recall_hand_counts():
    assert recall_at_n([[True, False]], [2], 50) == 0.5
    assert recall_at_n([[True, True]], [2], 50) == 1.0
    assert recall_at_n([[True], [False]], [1, 1], 1) == 0.5


def test_recall_respects_rank_cutoff():
    hits = [[False] * 10 + [True]]
    assert recall_at_n(hits, [1], 10) == 0.0
    assert recall_at_n(hits, [1], 11) == 1.0


def test_recall_r50_equals_r100_when_few_predictions():
    # Fewer than 50 ranked outputs: the cutoff never bites.
    hits = [[True, False, True]]
    assert recall_at_n(hits, [3], 50) == recall_at_n(hits, [3], 100)


def test_recall_monotone_in_n():
    rng = np.random.default_rng(0)
    for _ in range(20):
        images = int(rng.integers(1, 5))
        hits = [list(rng.random(int(rng.integers(0, 30))) < 0.3) for _ in range(images)]
        counts = [max(sum(h), 1) for h in hits]
        values = [recall_at_n(hits, counts, n) for n in (1, 5, 10, 20, 50)]
        assert all(b >= a for a, b in zip(values, values[1:]))


def test_recall_no_ground_truth_errors():
    with pytest.raises(UndefinedMetricError):
        recall_at_n([[False]], [0], 50)
    with pytest.raises(UndefinedMetricError):
        recall_at_n([], [], 50)


def test_macro_average_recall():
    hits = [[True], [False, False]]
    counts = [1, 2]
    assert recall_at_n(hits, counts, 50, macro_average=True) == 0.5
    assert recall_at_n(hits, counts, 50) == pytest.approx(1 / 3)


def brute_force_max_matching(predictions, ground_truth, task):
    """Maximum bipartite matching by exhaustive permutation (tiny sizes)."""
    n_gt = len(ground_truth)
    best = 0
    for assignment in itertools.permutations(range(n_gt + len(predictions.triplets)), n_gt):
        count = 0
        used_preds = set()
        for g, slot in enumerate(assignment):
            if slot < len(predictions.triplets) and slot not in used_preds:
                if _hit_condition(predictions.triplets[slot], ground_truth[g], task):
                    used_preds.add(slot)
                    count += 1
        best = max(best, count)
    return best


def test_greedy_equals_max_matching_when_unambiguous():
    # Distinct scores and each prediction matching at most one GT.
    rng = np.random.default_rng(3)
    for trial in range(30):
        n_gt = int(rng.integers(1, 4))
        gts = []
        for g in range(n_gt):
            x = 50.0 * g
            gts.append(Ann(box(x, 0, x + 10, 10), g, g % M, box(x, 20, x + 10, 30), g))
        preds = []
        scores = rng.permutation(10)[: int(rng.integers(1, 6))]
        for i, s in enumerate(scores):
            g = int(rng.integers(n_gt))
            jitter = float(rng.uniform(-1, 1))
            target = gts[g]
            hit_box = box(
                target.subject_box.x_min + jitter, 0, target.subject_box.x_max + jitter, 10
            )
            preds.append(
                pred(hit_box, target.subject_category, target.predicate,
                     target.object_box, target.object_category, float(s), i)
            )
        preds.sort(key=lambda t: -t.score)
        pset = prediction_set("img", preds)
        greedy_hits = sum(match_predictions(pset, ground_truth(gts), "relation"))
        assert greedy_hits == brute_force_max_matching(pset, gts, "relation")


def test_tie_permutation_stable_after_canonical_sort():
    detections = [det(box(i * 20, 0, i * 20 + 10, 10), 0) for i in range(3)]
    annotations = (Ann(detections[0].box, 0, 0, detections[1].box, 0),)
    scene = scene_with_detections(detections, annotations)
    scores = np.full((6, M), 0.25)  # all tied; k=1 keeps predicate 0 per pair
    result = predict_scene(scene, FixedScorer(scores), k=1, predicate_count=M)
    hits_a = match_predictions(result, ground_truth(annotations), "relation")
    assert sum(hits_a) == 1
    # Shuffling tied entries and re-applying the canonical sort restores the
    # same ranking, so the hit count cannot depend on input order.
    rng = np.random.default_rng(4)
    for _ in range(10):
        shuffled = [result.triplets[i] for i in rng.permutation(len(result.triplets))]
        shuffled.sort(key=lambda t: (-t.score, t.pair_index, t.predicate))
        hits_b = match_predictions(
            prediction_set(scene.image_id, shuffled), ground_truth(annotations), "relation"
        )
        assert sum(hits_b) == sum(hits_a)
        assert shuffled == result.triplets


def test_zero_shot_filter(monkeypatch):
    # A zero-shot config is matched against the ground truth whose type
    # never occurs in training, in annotation order; the others against all.
    from urelnet import evaluation

    gt = (
        Ann(box(0, 0, 10, 10), 0, 0, box(20, 0, 30, 10), 1),
        Ann(box(0, 0, 10, 10), 0, 1, box(20, 0, 30, 10), 1),
        Ann(box(0, 0, 10, 10), 2, 0, box(20, 0, 30, 10), 1),
    )
    scene = make_scene("img", (), gt, "test")
    matched = []
    match = evaluation.match_predictions

    def recording(predictions, truth, task):
        columns = (truth.subject_categories, truth.predicates, truth.object_categories)
        matched.append(list(zip(*(column.tolist() for column in columns))))
        return match(predictions, truth, task)

    monkeypatch.setattr(evaluation, "match_predictions", recording)
    configs = [EvalConfig(task="predicate", zero_shot_only=True), EvalConfig(task="predicate")]
    every = [g.type_key() for g in gt]
    for training_types, kept in (({(0, 0, 1)}, [(0, 1, 1), (2, 0, 1)]), (set(), every)):
        del matched[:]
        tallies = evaluate_configs([scene], UniformRandomScorer(M), configs, M, training_types)
        assert matched == [kept, every]
        assert [tally.gt_counts for tally in tallies] == [[len(kept)], [len(every)]]


def test_perfect_oracle_predicate_recall_is_one():
    # Oracle: score 1 for annotated (pair, predicate), epsilon otherwise.
    class OracleScorer(PerSceneScorer):
        def score(self, pairs, scene):
            scores = np.full((len(pairs), M), 1e-6)
            for idx, sbox, scat, obox, ocat in pair_rows(pairs):
                for ann in annotations_of(scene):
                    if (
                        ann.subject_box == sbox
                        and ann.subject_category == scat
                        and ann.object_box == obox
                        and ann.object_category == ocat
                    ):
                        scores[idx, ann.predicate] = 1.0
            return scores

    rng = np.random.default_rng(1)
    scenes = []
    for s in range(5):
        boxes = [box(60.0 * i, 0, 60.0 * i + 10, 10) for i in range(3)]
        annotations = [
            Ann(boxes[0], 0, int(rng.integers(M)), boxes[1], 1),
            Ann(boxes[1], 1, int(rng.integers(M)), boxes[2], 0),
        ]
        scenes.append(scene_with_detections([], annotations, image_id=f"s{s}"))
    hits, counts = [], []
    oracle = OracleScorer()
    for scene in scenes:
        result = predict_scene(scene, oracle, task="predicate", k=1, predicate_count=M)
        hits.append(match_predictions(result, GroundTruth.of(scene), "predicate"))
        counts.append(len(scene.predicates))
    assert recall_at_n(hits, counts, 50) == 1.0


def test_non_finite_scores_rejected():
    from urelnet.errors import DivergenceError

    detections = [det(box(i * 20, 0, i * 20 + 10, 10), 0) for i in range(2)]
    scene = scene_with_detections(detections)
    bad = np.full((2, M), np.nan)
    with pytest.raises(DivergenceError):
        predict_scene(scene, FixedScorer(bad), predicate_count=M)


def test_uniform_random_scorer_deterministic():
    detections = [det(box(i * 20, 0, i * 20 + 10, 10), 0) for i in range(3)]
    scene = scene_with_detections(detections)
    pairs = generate_for_scene(scene, M)
    scorer = UniformRandomScorer(M, seed=3)
    np.testing.assert_array_equal(scorer([(pairs, scene)]), scorer([(pairs, scene)]))
    # In a group, each image keeps its own draws.
    other = scene_with_detections(detections[:2], image_id="other")
    other_pairs = generate_for_scene(other, M)
    group = scorer([(other_pairs, other), (pairs, scene)])
    alone = [scorer([(other_pairs, other)]), scorer([(pairs, scene)])]
    assert group.tobytes() == np.concatenate(alone).tobytes()
    assert not np.array_equal(alone[0], alone[1][: len(other_pairs)])


# ----------------------------------------------------------------------
# The multi-config evaluator against the ranking and matching it replaced.
# ----------------------------------------------------------------------


def random_eval_scene(rng, index):
    """Ground-truth objects, jittered detections of most of them (some
    relabelled) plus spurious ones, and a few annotations among the objects."""
    objects = []
    for _ in range(int(rng.integers(2, 5))):
        x, y = rng.uniform(0, 300, size=2)
        w, h = rng.uniform(20, 90, size=2)
        objects.append((box(x, y, x + w, y + h), int(rng.integers(3))))
    annotations = []
    for _ in range(int(rng.integers(1, 5))):
        i, j = rng.choice(len(objects), size=2, replace=False)
        (sbox, scat), (obox, ocat) = objects[i], objects[j]
        annotations.append(Ann(sbox, scat, int(rng.integers(M)), obox, ocat))
    detections = []
    for b, category in objects:
        if rng.random() < 0.15:
            continue
        dx, dy = rng.uniform(-4, 4, size=2)
        if rng.random() < 0.15:
            category = (category + 1) % 3
        detections.append(det(box(b.x_min + dx, b.y_min + dy, b.x_max + dx, b.y_max + dy),
                              category, float(rng.uniform(0.3, 1.0))))
    for _ in range(int(rng.integers(0, 3))):
        x, y = rng.uniform(0, 300, size=2)
        detections.append(det(box(x, y, x + 30, y + 30), int(rng.integers(3))))
    return scene_with_detections(detections, annotations, image_id=f"rand-{index}")


class TiedScorer(PerSceneScorer):
    """Scores from {0, 0.5, 1}, so ties are everywhere; fixed per image and pair count."""

    def score(self, pairs, scene):
        seed = zlib.crc32(scene.image_id.encode("utf-8"))
        rng = np.random.default_rng((seed, len(pairs)))
        return rng.integers(0, 3, size=(len(pairs), M)) / 2.0


def reference_ranking(scene, scorer, task, k):
    """Per-pair stable argsort, one triplet object each, then a full sort."""
    pairs = candidate_pairs(scene, task, M)
    if not pairs:
        return []
    scores = np.asarray(scorer([(pairs, scene)]), dtype=float)
    triplets = []
    for idx, sbox, scat, obox, ocat in pair_rows(pairs):
        row = scores[idx]
        for predicate in np.argsort(-row, kind="stable")[:k]:
            triplets.append(pred(sbox, scat, int(predicate), obox, ocat, float(row[predicate]), idx))
    triplets.sort(key=lambda t: (-t.score, t.pair_index, t.predicate))
    return triplets


def reference_recalls(scenes, scorer, config, training_types):
    """One full ranking and greedy match per scene for this config alone."""
    image_hits, gt_counts = [], []
    for scene in scenes:
        gt = [g for g in annotations_of(scene)
              if not config.zero_shot_only or g.type_key() not in training_types]
        ranking = reference_ranking(scene, scorer, config.task, config.k)
        image_hits.append(reference_match(ranking, gt, config.task))
        gt_counts.append(len(gt))
    out = {}
    for n in config.n_values:
        if config.macro_average:
            out[str(n)] = float(np.mean(
                [sum(h[:n]) / c for h, c in zip(image_hits, gt_counts) if c > 0]
            ))
        else:
            out[str(n)] = sum(sum(h[:n]) for h in image_hits) / sum(gt_counts)
    return out


EVAL_TRAINING_TYPES = {
    (s, p, o) for s in range(3) for p in range(M) for o in range(3) if (s + p + o) % 2 == 0
}


def test_evaluator_matches_reference_on_random_scenes():
    rng = np.random.default_rng(12)
    scenes = [random_eval_scene(rng, i) for i in range(40)]
    scorer = TiedScorer()
    configs = [
        EvalConfig(task=task, n_values=(1, 3, 10, 1000), k=k,
                   zero_shot_only=zero_shot, macro_average=macro)
        for task in TASKS
        for k in (1, 2)
        for zero_shot in (False, True)
        for macro in (False, True)
    ]
    tallies = evaluate_configs(scenes, scorer, configs, M, EVAL_TRAINING_TYPES)
    hits = 0
    for config, tally in zip(configs, tallies):
        expected = reference_recalls(scenes, scorer, config, EVAL_TRAINING_TYPES)
        assert tally.recalls() == expected, config
        assert evaluate_scenes(scenes, scorer, config, M, EVAL_TRAINING_TYPES) == expected
        hits += sum(map(sum, tally.image_hits))
    assert hits > 0
    # The full ranking itself, ties included, is the reference's.
    for scene in scenes:
        for task, k in itertools.product(("predicate", "relation"), (1, 2)):
            result = predict_scene(scene, scorer, task=task, k=k, predicate_count=M)
            assert result.triplets == reference_ranking(scene, scorer, task, k)


def test_evaluator_scores_each_scene_once_per_source():
    rng = np.random.default_rng(5)
    scenes = [random_eval_scene(rng, i) for i in range(6)]
    scenes = [s for s in scenes if len(s.boxes) >= 2]
    calls = []

    def counting_scorer(group):
        calls.extend(scene.image_id for _, scene in group)
        return np.zeros((sum(len(pairs) for pairs, _ in group), M))

    configs = [
        EvalConfig(task=task, zero_shot_only=zero_shot)
        for task in ("predicate", "phrase", "relation")
        for zero_shot in (False, True)
    ]
    evaluate_configs(scenes, counting_scorer, configs, M, EVAL_TRAINING_TYPES)
    assert len(calls) == 2 * len(scenes)
    assert sorted(calls) == sorted(2 * [s.image_id for s in scenes])


def test_evaluator_requires_training_types_for_zero_shot():
    with pytest.raises(ValueError):
        evaluate_configs([], TiedScorer(), [EvalConfig(zero_shot_only=True)], M)


@pytest.mark.parametrize(
    "kwargs", [dict(task="bogus"), dict(k=0), dict(n_values=(0,)), dict(n_values=())]
)
def test_eval_config_rejects_bad_values_as_usage_error(kwargs):
    from urelnet.errors import UsageError

    with pytest.raises(UsageError) as info:
        EvalConfig(**kwargs)
    assert info.value.category == "usage-error"


# ----------------------------------------------------------------------
# Model scoring: one-box streams are transformed once per detection.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("im_mode", [False, True], ids=["union", "im"])
def test_model_scorer_transforms_each_detection_once(im_mode, monkeypatch):
    from urelnet.evaluation import ModelScorer
    from urelnet.features import FeatureMatrix
    from urelnet.model import ModelConfig, build_model
    from urelnet.nn import DenseLayer
    from urelnet.synthetic import SyntheticConfig, generate_synthetic
    from urelnet.training import build_extractor

    dataset = generate_synthetic(SyntheticConfig(train_scenes=4, test_scenes=3, seed=5))
    config = ModelConfig(
        predicate_count=dataset.vocabulary.predicate_count,
        object_count=dataset.vocabulary.object_count,
        visual_dim=dataset.features.dim, embedding_dim=dataset.embeddings.dim,
        transform_dim=10, dc_hidden_dim=6, rel_hidden_dim=10, im_mode=im_mode,
    )
    model = build_model(config, np.random.default_rng(0))
    extractor = build_extractor(dataset)
    scorer = ModelScorer(model, extractor)
    networks = model.networks if im_mode else {"union": model}
    names = {layer: f"{role}.{name}" for role, net in networks.items()
             for name, layer in net.layers.items()}
    seen = []
    forward, forward_blocks = DenseLayer.forward, DenseLayer.forward_blocks

    def recording(layer, x):
        seen.append((names[layer], x.shape[0]))
        return forward(layer, x)

    def recording_blocks(layer, blocks):
        seen.append((names[layer], tuple(x.shape[0] for x, _ in blocks)))
        return forward_blocks(layer, blocks)

    scene = max(dataset.split("test"), key=lambda s: len(s.boxes))
    pairs = candidate_pairs(scene, "relation", config.predicate_count)
    d, p = len(scene.boxes), len(pairs)
    assert p == d * (d - 1) > d
    monkeypatch.setattr(DenseLayer, "forward", recording)
    monkeypatch.setattr(DenseLayer, "forward_blocks", recording_blocks)
    scores = scorer([(pairs, scene)])
    monkeypatch.setattr(DenseLayer, "forward", forward)
    monkeypatch.setattr(DenseLayer, "forward_blocks", forward_blocks)
    rows = dict(seen)
    assert len(rows) == len(seen)  # every layer ran once
    once = ("visual_subject", "visual_object", "external_subject", "external_object")
    for role, net in networks.items():
        for stream in net.streams:
            assert rows[f"{role}.transform.{stream}"] == (d if stream in once else p), (role, stream)
        # A fuse layer with a per-detection stream multiplies that stream's
        # block on the D detection rows, the others on the P pair rows.
        for modality, streams in net.spec:
            blocks = tuple(d if stream in once else p for stream in streams)
            expected = blocks if d in blocks else p
            assert rows[f"{role}.fuse.{modality}"] == expected, (role, modality)
        blockwise = [m for m, _ in net.spec if isinstance(rows[f"{role}.fuse.{m}"], tuple)]
        assert blockwise == ["visual", "linguistic"], role
        assert all(rows[f"{role}.{name}"] == p for name in net.layers
                   if not name.startswith(("transform.", "fuse.")))
    # The per-pair path gives the same scores to a relative 1e-12.
    matrix = extractor.matrix(pairs, scene, streams=scorer.streams)
    per_pair = FeatureMatrix({name: matrix[name] for name in matrix.streams})
    assert matrix.index and not per_pair.index
    confs = pairs.confidences
    expected = model.relation_scores(
        per_pair, confs[pairs.subject_indices], confs[pairs.object_indices]
    )
    np.testing.assert_allclose(scores, expected, rtol=1e-12, atol=0)


@pytest.mark.parametrize("im_mode", [False, True], ids=["union", "im"])
def test_grouped_scores_match_the_per_pair_path(im_mode):
    # Consecutive scenes scored as one matrix, in groups of several sizes,
    # give each scene the scores of its own per-pair forward to 1e-12.
    from urelnet.evaluation import ModelScorer
    from urelnet.features import FeatureMatrix
    from urelnet.model import ModelConfig, build_model
    from urelnet.synthetic import SyntheticConfig, generate_synthetic
    from urelnet.training import build_extractor

    dataset = generate_synthetic(SyntheticConfig(train_scenes=4, test_scenes=6, seed=9))
    config = ModelConfig(
        predicate_count=dataset.vocabulary.predicate_count,
        object_count=dataset.vocabulary.object_count,
        visual_dim=dataset.features.dim, embedding_dim=dataset.embeddings.dim,
        transform_dim=10, dc_hidden_dim=6, rel_hidden_dim=10, im_mode=im_mode,
    )
    model = build_model(config, np.random.default_rng(1))
    extractor = build_extractor(dataset)
    scorer = ModelScorer(model, extractor)
    items = []
    for scene in dataset.split("test"):
        pairs = candidate_pairs(scene, "relation", config.predicate_count)
        matrix = extractor.matrix(pairs, scene, streams=scorer.streams)
        confs = pairs.confidences
        expected = model.relation_scores(
            FeatureMatrix({name: matrix[name] for name in matrix.streams}),
            confs[pairs.subject_indices], confs[pairs.object_indices],
        )
        items.append(((pairs, scene), expected))
    for size in (1, 2, 4, len(items)):
        for start in range(0, len(items), size):
            chunk = items[start : start + size]
            scores = scorer([item for item, _ in chunk])
            expected = np.concatenate([rows for _, rows in chunk])
            assert scores.shape == expected.shape
            np.testing.assert_allclose(scores, expected, rtol=1e-12, atol=0)


@pytest.mark.parametrize("failure", ["nan", "overflow"])
def test_divergence_in_a_group_names_the_first_diverging_image(failure):
    from urelnet import evaluation
    from urelnet.errors import DivergenceError

    detections = [det(box(i * 20, 0, i * 20 + 10, 10), 0) for i in range(3)]
    scenes = [scene_with_detections(detections, image_id=f"img{i}") for i in range(4)]

    class Diverging(PerSceneScorer):
        def score(self, pairs, scene):
            rows = np.full((len(pairs), M), 0.5)
            if scene.image_id in ("img2", "img3"):
                if failure == "nan":
                    rows[-1, 0] = np.nan
                else:
                    rows[-1, 0] = np.float64(1e308) * 10
            return rows

    group = [(candidate_pairs(scene, "relation", M), scene) for scene in scenes]
    with pytest.raises(DivergenceError, match="for image 'img2'"):
        evaluation.score_group(group, Diverging(), M)
    assert len(evaluation.score_group(group[:2], Diverging(), M)) == 2


def test_ground_truth_table_and_row_mask_match_the_oracle(monkeypatch):
    # The evaluator builds a scene's ground-truth arrays once and takes the
    # zero-shot rows by mask; hits equal the scalar oracle's, and IoU is
    # computed only for (prediction, ground truth) entries whose types agree.
    from urelnet import evaluation

    ious = []
    iou_pairs = evaluation.iou_pairs

    def counting(a, b):
        ious.append(len(a))
        return iou_pairs(a, b)

    monkeypatch.setattr(evaluation, "iou_pairs", counting)
    rng = np.random.default_rng(12)
    scorer = TiedScorer()
    type_matches = hits = 0
    for index in range(40):
        scene = random_eval_scene(rng, index)
        truth, annotations = GroundTruth.of(scene), annotations_of(scene)
        unseen = np.array([g.type_key() not in EVAL_TRAINING_TYPES for g in annotations])
        subsets = ((annotations, truth),
                   ([g for g in annotations if g.type_key() not in EVAL_TRAINING_TYPES],
                    truth.take(unseen)))
        for task in TASKS:
            ranking = predict_scene(scene, scorer, task=task, k=2, predicate_count=M)
            for listed, table in subsets:
                expected = reference_match(ranking.triplets, listed, task)
                del ious[:]
                assert match_predictions(ranking, table, task) == expected
                assert match_predictions(ranking, ground_truth(listed), task) == expected
                agree = sum(
                    (t.subject_category, t.predicate, t.object_category) == g.type_key()
                    for t in ranking.triplets for g in listed
                )
                # Per call: no IoU for predicate, union IoU for phrase, two for relation.
                calls = {"predicate": 0, "phrase": 1, "relation": 2}[task] if agree else 0
                assert ious == [agree] * (2 * calls), task
                type_matches += agree
                hits += sum(expected)
    assert type_matches > hits > 0
