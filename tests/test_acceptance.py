"""Acceptance suite: every release criterion with its stated tolerance.

Each test prints one PASS line on success (FAIL surfaces as the pytest
failure itself). Oracles here are re-implemented from scratch so they stay
independent of the code paths they verify.
"""

import json
import math
import time

import numpy as np
import pytest

from urelnet.evaluation import (
    PredictedTriplet,
    PredictionSet,
    match_predictions,
    recall_at_n,
)
from urelnet.experiment import relation_gap_experiment
from urelnet.features import TripletStatistics, spatial_rows
from urelnet.model import (
    ALL_MODALS,
    ModelConfig,
    joint_loss,
    make_gradient_check_problem,
    sliced_loss,
)
from urelnet.nn import gradient_check
from urelnet.pairs import generate_for_scene
from urelnet.scene import BoundingBox, SceneRecord
from urelnet.synthetic import SyntheticConfig, generate_synthetic
from urelnet.training import RunConfig, Schedule, run_evaluation, run_training, write_log

from scene_rows import Ann, ground_truth

TOY_DIMS = dict(
    predicate_count=4, object_count=5, visual_dim=12, embedding_dim=6,
    transform_dim=7, dc_hidden_dim=5, rel_hidden_dim=9,
)


def _report(number: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: PASS{suffix}")


# ----------------------------------------------------------------------
# 1. Gradient correctness: full graph and IM graph vs finite differences.
# ----------------------------------------------------------------------


def test_acceptance_1_gradient_correctness():
    started = time.monotonic()
    worst = 0.0
    instances = 0
    for im_mode, count, seed0 in ((False, 14, 3000), (True, 6, 4000)):
        config = ModelConfig(**TOY_DIMS, im_mode=im_mode)
        for i in range(count):
            rng = np.random.default_rng(seed0 + i)
            model, features, labels, mask = make_gradient_check_problem(config, rng)
            _, _, grads = model.loss_and_gradients(features, labels, mask)
            report = gradient_check(
                sliced_loss(model, features, labels, mask),
                model.parameters(), grads, tolerance=1e-4, step=1e-6,
            )
            assert report.passed, (im_mode, i, report.lines())
            worst = max(worst, report.max_error)
            instances += 1
    elapsed = time.monotonic() - started
    assert instances >= 20
    assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"
    _report(1, "gradient correctness",
            f"{instances} instances, worst {worst:.2e}, {elapsed:.1f}s")


# ----------------------------------------------------------------------
# 2. Generator oracle equivalence on 1,000 random scenes.
# ----------------------------------------------------------------------


def _oracle_iou(a, b):
    # Fresh arithmetic, no shared helpers.
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    area_a = (ax2 - ax1) * (ay2 - ay1)
    area_b = (bx2 - bx1) * (by2 - by1)
    return inter / (area_a + area_b - inter)


def _oracle_classification(subject, obj, annotations, m):
    """Determinacy criterion restated from scratch: some annotation with the
    same category labels and both IoUs strictly above one half."""
    labels = [0.0] * m
    matched = []
    for k, (sbox, scat, pred, obox, ocat) in enumerate(annotations):
        if scat != subject[1] or ocat != obj[1]:
            continue
        if _oracle_iou(subject[0], sbox) > 0.5 and _oracle_iou(obj[0], obox) > 0.5:
            labels[pred] = 1.0
            matched.append(k)
    return bool(matched), labels, tuple(matched)


def test_acceptance_2_generator_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(777)
    m = 5
    mismatches = pairs_checked = determinate = 0
    for index in range(1000):
        n_det = int(rng.integers(1, 7))
        n_ann = int(rng.integers(0, 7))

        def rand_box():
            x1 = float(rng.uniform(0, 60))
            y1 = float(rng.uniform(0, 60))
            return (x1, y1, x1 + float(rng.uniform(2, 40)), y1 + float(rng.uniform(2, 40)))

        detections = [(rand_box(), int(rng.integers(4))) for _ in range(n_det)]
        annotations = []
        for _ in range(n_ann):
            if detections and rng.random() < 0.6:
                # Perturb a detection box so borderline IoUs occur.
                base, cat = detections[int(rng.integers(n_det))]
                shift = float(rng.uniform(0, 25))
                sbox = (base[0] + shift, base[1], base[2] + shift, base[3])
            else:
                sbox, cat = rand_box(), int(rng.integers(4))
            obox, ocat = rand_box(), int(rng.integers(4))
            if detections and rng.random() < 0.6:
                obox, ocat = detections[int(rng.integers(n_det))]
            annotations.append((sbox, cat, int(rng.integers(m)), obox, ocat))

        scene = SceneRecord(
            f"scene{index}", 200.0, 200.0, "test",
            [b for b, _ in detections], [c for _, c in detections], [0.9] * len(detections),
            None, *(list(column) for column in zip(*annotations)) if annotations else (),
        )
        pairs = generate_for_scene(scene, m)
        want = [
            ((i, j), *_oracle_classification(detections[i], detections[j], annotations, m))
            for i in range(n_det)
            for j in range(n_det)
            if i != j
        ]
        got = [
            ((i, j), status, labels, tuple(np.flatnonzero(hits).tolist()))
            for i, j, status, labels, hits in zip(
                pairs.subject_indices.tolist(), pairs.object_indices.tolist(),
                pairs.determinate.tolist(), pairs.labels.tolist(), pairs.hits,
            )
        ]
        assert len(got) == len(want)
        mismatches += sum(g != w for g, w in zip(got, want))
        pairs_checked += len(want)
        determinate += sum(w[1] for w in want)
    elapsed = time.monotonic() - started
    assert mismatches == 0
    assert 0 < determinate < pairs_checked
    assert elapsed < 10.0, f"generator oracle sweep took {elapsed:.1f}s"
    _report(2, "generator oracle equivalence",
            f"1000 scenes, {pairs_checked} pairs ({determinate} determinate), "
            f"0 mismatches, {elapsed:.1f}s")


# ----------------------------------------------------------------------
# 3. Loss algebra.
# ----------------------------------------------------------------------


def test_acceptance_3_loss_algebra():
    rng = np.random.default_rng(5)
    config = ModelConfig(**TOY_DIMS, rel_undetermined_weight=0.5, dc_loss_weight=1.0)
    # Hand-computed weighted sum on crafted batches.
    for _ in range(50):
        batch = int(rng.integers(2, 10))
        m = config.predicate_count
        dc = rng.uniform(0.02, 0.98, size=batch)
        rel = rng.uniform(0.02, 0.98, size=(batch, m))
        labels = (rng.random((batch, m)) < 0.4).astype(float)
        mask = rng.random(batch) < 0.5
        total, _ = joint_loss(dc, rel, labels, mask, config)

        def ce(p, y):
            return -math.log(p) if y else -math.log(1.0 - p)

        det_rows = [b for b in range(batch) if mask[b]]
        und_rows = [b for b in range(batch) if not mask[b]]
        rel_d = (
            sum(ce(rel[b, k], labels[b, k]) for b in det_rows for k in range(m)) / len(det_rows)
            if det_rows else 0.0
        )
        rel_i = (
            sum(ce(rel[b, k], 0) for b in und_rows for k in range(m)) / len(und_rows)
            if und_rows else 0.0
        )
        det_d = sum(ce(dc[b], 1) for b in det_rows) / len(det_rows) if det_rows else 0.0
        det_i = sum(ce(dc[b], 0) for b in und_rows) / len(und_rows) if und_rows else 0.0
        expected = rel_d + 0.5 * rel_i + 1.0 * det_d + 1.0 * 1.0 * det_i
        assert abs(total - expected) < 1e-12

    # Zero undetermined weights collapse the loss to the determinate relation term.
    collapsed = ModelConfig(**TOY_DIMS, rel_undetermined_weight=0.0, dc_loss_weight=0.0)
    dc = rng.uniform(0.1, 0.9, size=6)
    rel = rng.uniform(0.1, 0.9, size=(6, 4))
    labels = (rng.random((6, 4)) < 0.4).astype(float)
    mask = np.array([True] * 3 + [False] * 3)
    total, terms = joint_loss(dc, rel, labels, mask, collapsed)
    assert total == terms["rel_determinate"]

    # Unit undetermined weight: mirrored batches give equal confidence terms.
    for q in (0.1, 0.37, 0.5, 0.73, 0.95):
        rel_half = np.full((1, 4), 0.5)
        zeros = np.zeros((1, 4))
        _, a = joint_loss(np.array([q]), rel_half, zeros, np.array([True]), config)
        _, b = joint_loss(np.array([1.0 - q]), rel_half, zeros, np.array([False]), config)
        assert abs(a["dc_determinate"] - b["dc_undetermined"]) < 1e-12
    _report(3, "loss algebra", "50 crafted batches at 1e-12; collapse and symmetry hold")


# ----------------------------------------------------------------------
# 4. Closed-form features: spatial vector and smoothed predicate prior.
# ----------------------------------------------------------------------


def _spatial(subject, obj):
    """``spatial_rows`` of one (subject, object) pair of boxes."""
    return spatial_rows(np.array([subject.as_tuple()]), np.array([obj.as_tuple()]))[0]


def test_acceptance_4_closed_form_features():
    got = _spatial(BoundingBox(2, 2, 6, 6), BoundingBox(4, 4, 10, 8))
    expected = np.array([0.0, 0.0, -0.5, -1.0 / 3.0, 0.25, 1.0 / 3.0, 0.0, 0.0])
    assert np.max(np.abs(got - expected)) < 1e-12

    rng = np.random.default_rng(99)
    for _ in range(1000):
        def rand_box():
            x1 = float(rng.uniform(-50, 50))
            y1 = float(rng.uniform(-50, 50))
            return BoundingBox(x1, y1, x1 + float(rng.uniform(1, 60)), y1 + float(rng.uniform(1, 60)))

        a, b = rand_box(), rand_box()
        fwd = _spatial(a, b)
        rev = _spatial(b, a)
        assert np.allclose(fwd[:4], rev[4:], atol=1e-12)
        assert np.allclose(fwd[4:], rev[:4], atol=1e-12)
        dx, dy = float(rng.uniform(-100, 100)), float(rng.uniform(-100, 100))
        s = float(rng.uniform(0.2, 5.0))

        def transform(box):
            return BoundingBox(
                (box.x_min + dx) * s, (box.y_min + dy) * s,
                (box.x_max + dx) * s, (box.y_max + dy) * s,
            )

        assert np.allclose(fwd, _spatial(transform(a), transform(b)), atol=1e-9)

    # Smoothed predicate prior vs a from-scratch evaluation of the factorization.
    for _ in range(100):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        counts = rng.integers(0, 5, size=(n, m, n))
        stats = TripletStatistics(counts)
        ls, lo = int(rng.integers(n)), int(rng.integers(n))
        got = stats.internal_table[ls, lo]
        total = counts.sum()
        raw = []
        for p in range(m):
            cp = counts[:, p, :].sum()
            raw.append(
                ((cp + 1) / (total + m))
                * ((counts[ls, p, :].sum() + 1) / (cp + n))
                * ((counts[:, p, lo].sum() + 1) / (cp + n))
            )
        raw = np.array(raw)
        want = raw / raw.sum()
        assert np.max(np.abs(got - want)) < 1e-12
        assert abs(got.sum() - 1.0) < 1e-12
    _report(4, "closed-form features",
            "spatial example at 1e-12; 1000 invariance pairs; 100 prior oracles at 1e-12")


# ----------------------------------------------------------------------
# 5. Metric correctness on hand-counted fixtures.
# ----------------------------------------------------------------------


def _b(x1, y1, x2, y2):
    return BoundingBox(x1, y1, x2, y2)


def _gt(sbox, sc, p, obox, oc):
    return Ann(sbox, sc, p, obox, oc)


def _p(sbox, sc, p, obox, oc, score, idx=0):
    return PredictedTriplet(sbox, sc, p, obox, oc, score, idx)


def _ranking(triplets):
    """The ``PredictionSet`` whose rows are ``triplets``, in order."""
    return PredictionSet(
        "img",
        np.array([t.subject_box.as_tuple() for t in triplets]).reshape(-1, 4),
        np.array([t.subject_category for t in triplets], dtype=np.intp),
        np.array([t.predicate for t in triplets], dtype=np.intp),
        np.array([t.object_box.as_tuple() for t in triplets]).reshape(-1, 4),
        np.array([t.object_category for t in triplets], dtype=np.intp),
        np.array([t.score for t in triplets]),
        np.array([t.pair_index for t in triplets], dtype=np.intp),
    )


def test_acceptance_5_metric_correctness():
    s1, o1 = _b(0, 0, 10, 10), _b(20, 0, 30, 10)
    s2, o2 = _b(50, 0, 60, 10), _b(70, 0, 80, 10)
    half_s = _b(0, 0, 10, 5)        # IoU(s1) = 0.5 exactly
    half_o = _b(20, 0, 30, 5)
    off_s = _b(0, 0, 10, 4.9)       # IoU(s1) < 0.5
    # (task, predictions, ground truth, N, expected recall)
    fixtures = [
        # relation: exact hit on one of two GTs -> 1/2
        ("relation", [_p(s1, 1, 0, o1, 2, 0.9)], [_gt(s1, 1, 0, o1, 2), _gt(s2, 1, 1, o2, 2)], 50, 0.5),
        # relation: both GTs hit -> 1.0
        ("relation", [_p(s1, 1, 0, o1, 2, 0.9), _p(s2, 1, 1, o2, 2, 0.8, 1)],
         [_gt(s1, 1, 0, o1, 2), _gt(s2, 1, 1, o2, 2)], 50, 1.0),
        # relation: inclusive boundary, both IoUs exactly 0.5 -> hit
        ("relation", [_p(half_s, 1, 0, half_o, 2, 0.9)], [_gt(s1, 1, 0, o1, 2)], 50, 1.0),
        # relation: just below the boundary -> miss
        ("relation", [_p(off_s, 1, 0, half_o, 2, 0.9)], [_gt(s1, 1, 0, o1, 2)], 50, 0.0),
        # relation: right triplet outside top-1 -> 0 at N=1
        ("relation", [_p(s2, 9, 3, o2, 9, 0.95), _p(s1, 1, 0, o1, 2, 0.9, 1)],
         [_gt(s1, 1, 0, o1, 2)], 1, 0.0),
        # relation: same at N=2 -> 1
        ("relation", [_p(s2, 9, 3, o2, 9, 0.95), _p(s1, 1, 0, o1, 2, 0.9, 1)],
         [_gt(s1, 1, 0, o1, 2)], 2, 1.0),
        # relation: two predictions, one GT -> single hit, recall 1
        ("relation", [_p(s1, 1, 0, o1, 2, 0.9), _p(s1, 1, 0, o1, 2, 0.8, 1)],
         [_gt(s1, 1, 0, o1, 2)], 50, 1.0),
        # phrase: union boxes overlap >= 0.5 despite individual misses
        ("phrase", [_p(_b(0, 0, 4, 10), 1, 0, _b(26, 0, 30, 10), 2, 0.9)],
         [_gt(s1, 1, 0, o1, 2)], 50, 1.0),
        # phrase: shrunken union at exactly half the area -> hit (inclusive)
        ("phrase", [_p(_b(0, 0, 10, 5), 1, 0, _b(20, 0, 30, 5), 2, 0.9)],
         [_gt(s1, 1, 0, o1, 2)], 50, 1.0),
        # phrase: union shifted away -> miss
        ("phrase", [_p(_b(0, 30, 10, 40), 1, 0, _b(20, 30, 30, 40), 2, 0.9)],
         [_gt(s1, 1, 0, o1, 2)], 50, 0.0),
        # predicate: boxes ignored, categories+predicate match -> hit
        ("predicate", [_p(_b(500, 0, 510, 10), 1, 0, _b(520, 0, 530, 10), 2, 0.9)],
         [_gt(s1, 1, 0, o1, 2)], 50, 1.0),
        # predicate: wrong predicate -> miss
        ("predicate", [_p(s1, 1, 3, o1, 2, 0.9)], [_gt(s1, 1, 0, o1, 2)], 50, 0.0),
        # predicate: duplicate GT types need two predictions
        ("predicate", [_p(s1, 1, 0, o1, 2, 0.9)],
         [_gt(s1, 1, 0, o1, 2), _gt(s2, 1, 0, o2, 2)], 50, 0.5),
    ]
    assert len(fixtures) >= 10
    for i, (task, preds, gts, n, expected) in enumerate(fixtures):
        hits = match_predictions(_ranking(preds), ground_truth(gts), task)
        got = recall_at_n([hits], [len(gts)], n)
        assert got == pytest.approx(expected, abs=1e-12), f"fixture {i} ({task})"

    # Few ground-truth objects -> fewer than 50 outputs -> R50 equals R100.
    hits = match_predictions(
        _ranking([_p(s1, 1, 0, o1, 2, 0.9), _p(o1, 2, 1, s1, 1, 0.8, 1)]),
        ground_truth([_gt(s1, 1, 0, o1, 2), _gt(o1, 2, 1, s1, 1)]),
        "relation",
    )
    assert recall_at_n([hits], [2], 50) == recall_at_n([hits], [2], 100) == 1.0

    # Monotonicity in N on random fixtures.
    rng = np.random.default_rng(17)
    for _ in range(50):
        n_img = int(rng.integers(1, 5))
        all_hits = [list(rng.random(int(rng.integers(0, 40))) < 0.25) for _ in range(n_img)]
        counts = [max(sum(h), 1) for h in all_hits]
        values = [recall_at_n(all_hits, counts, n) for n in (1, 2, 5, 10, 20, 50, 100)]
        assert all(b >= a for a, b in zip(values, values[1:]))
    _report(5, "metric correctness", f"{len(fixtures)} hand-counted fixtures plus boundary cases")


# ----------------------------------------------------------------------
# 6. Synthetic end-to-end: undetermined relationships must help.
# ----------------------------------------------------------------------


def test_acceptance_6_synthetic_end_to_end():
    started = time.monotonic()
    result = relation_gap_experiment(seeds=(0, 1, 2), epochs=6)
    elapsed = time.monotonic() - started
    for line in result.summary_lines():
        print(line)
    improvement = 100.0 * result.mean_improvement
    assert all(o.full_recall > o.ablation_recall for o in result.outcomes)
    assert improvement >= 3.0, f"mean improvement only {improvement:.2f} points"
    assert 100.0 * (result.mean_full - result.mean_random) >= 10.0
    assert 100.0 * (result.mean_ablation - result.mean_random) >= 10.0
    assert elapsed < 600.0, f"experiment took {elapsed:.0f}s"
    _report(6, "synthetic end-to-end",
            f"improvement +{improvement:.1f} points over 3 seeds, {elapsed:.0f}s")


# ----------------------------------------------------------------------
# 7. Ablation plumbing: every feature-subset / fusion-mode variant.
# ----------------------------------------------------------------------

MODAL_SUBSETS = [
    ("visual",),
    ("spatial",),
    ("linguistic_external", "linguistic_internal"),
    ("visual", "spatial"),
    ("visual", "linguistic_external", "linguistic_internal"),
    ("linguistic_external", "linguistic_internal", "spatial"),
    ("visual", "spatial", "linguistic_internal"),
    ("visual", "spatial", "linguistic_external"),
    ALL_MODALS,
]


def test_acceptance_7_ablation_plumbing():
    dataset = generate_synthetic(
        SyntheticConfig(train_scenes=12, test_scenes=3, min_relations=2, max_relations=3, seed=31)
    )
    trained = 0
    for subset_index, modals in enumerate(MODAL_SUBSETS):
        for fusion in ("transforming", "concatenating"):
            model_config = ModelConfig(
                predicate_count=dataset.vocabulary.predicate_count,
                object_count=dataset.vocabulary.object_count,
                visual_dim=dataset.features.dim,
                embedding_dim=dataset.embeddings.dim,
                transform_dim=12,
                dc_hidden_dim=6,
                rel_hidden_dim=12,
                enabled_modals=tuple(modals),
                fusion_mode=fusion,
            )
            run_config = RunConfig(
                model=model_config, epochs=1, seed=subset_index,
                schedule=Schedule(1e-3, 1.0, 1),
            )
            result = run_training(dataset, run_config)
            assert all(math.isfinite(r["loss"]) for r in result.log_records if "loss" in r)

            check_config = ModelConfig(
                **TOY_DIMS, enabled_modals=tuple(modals), fusion_mode=fusion
            )
            rng = np.random.default_rng(6000 + 2 * subset_index + (fusion == "concatenating"))
            model, features, labels, mask = make_gradient_check_problem(check_config, rng)
            _, _, grads = model.loss_and_gradients(features, labels, mask)
            report = gradient_check(sliced_loss(model, features, labels, mask),
                                    model.parameters(), grads, tolerance=1e-4, step=1e-6)
            assert report.passed, (modals, fusion, report.lines())
            trained += 1
    assert trained == len(MODAL_SUBSETS) * 2
    _report(7, "ablation plumbing", f"{trained} variants trained and gradient-checked")


# ----------------------------------------------------------------------
# 8. Reproducibility: identical seeds, identical bytes.
# ----------------------------------------------------------------------


def test_acceptance_8_reproducibility(tmp_path):
    from urelnet.checkpoint import save_checkpoint

    dataset = generate_synthetic(
        SyntheticConfig(train_scenes=12, validation_scenes=3, test_scenes=4,
                        min_relations=2, max_relations=3, seed=41)
    )
    model_config = ModelConfig(
        predicate_count=dataset.vocabulary.predicate_count,
        object_count=dataset.vocabulary.object_count,
        visual_dim=dataset.features.dim,
        embedding_dim=dataset.embeddings.dim,
        transform_dim=12,
        dc_hidden_dim=6,
        rel_hidden_dim=12,
    )
    artifacts = {}
    for tag in ("a", "b"):
        run_config = RunConfig(model=model_config, steps=40, seed=9,
                               schedule=Schedule(1e-3, 0.5, 1000))
        result = run_training(dataset, run_config)
        out = tmp_path / tag
        out.mkdir()
        write_log(result.log_records, out / "log.jsonl")
        save_checkpoint(out / "checkpoint.bin", result.model.config, result.model.parameters())
        report = run_evaluation(dataset, result.model, tasks=("relation", "predicate"),
                                zero_shot=True)
        (out / "report.json").write_text(json.dumps(report, sort_keys=True), encoding="utf-8")
        artifacts[tag] = out
    for name in ("log.jsonl", "checkpoint.bin", "report.json"):
        a = (artifacts["a"] / name).read_bytes()
        b = (artifacts["b"] / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    _report(8, "reproducibility", "logs, checkpoints, and reports bit-identical")
