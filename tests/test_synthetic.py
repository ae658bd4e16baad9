import hashlib
import json

import numpy as np
import pytest

from urelnet import synthetic
from urelnet.dataset import save_dataset
from urelnet.features import build_triplet_statistics
from urelnet.pairs import PairStatus, generate_for_scene, gt_feature_key, union_keys
from urelnet.scene import BoundingBox, union_box
from urelnet.synthetic import SyntheticConfig, generate_synthetic, held_out_types

QUICK = dict(train_scenes=15, validation_scenes=3, test_scenes=6)


def test_scenes_validate_and_counts():
    ds = generate_synthetic(SyntheticConfig(**QUICK, seed=1))
    assert len(ds.split("train")) == 15
    assert len(ds.split("validation")) == 3
    assert len(ds.split("test")) == 6
    for scene in ds.scenes:
        assert len(scene.boxes) and len(scene.predicates)
        for boxes in (scene.boxes, scene.subject_boxes, scene.object_boxes):
            assert (boxes[:, :2] >= 0).all() and (boxes[:, 2:] > boxes[:, :2]).all()
            assert (boxes[:, 2:] <= [scene.width, scene.height]).all()
        assert ((scene.confidences > 0) & (scene.confidences <= 1)).all()


def test_zero_noise_recovers_every_annotated_pair():
    config = SyntheticConfig(
        **QUICK,
        box_jitter=0.0,
        label_flip_rate=0.0,
        miss_rate=0.0,
        spurious_rate=0.0,
        seed=2,
    )
    ds = generate_synthetic(config)
    m = ds.vocabulary.predicate_count
    for scene in ds.scenes:
        pairs = generate_for_scene(scene, m)
        matched = {k for p in pairs for k in p.matched_annotations}
        assert matched == set(range(len(scene.predicates)))


def test_noise_produces_undetermined_pool():
    ds = generate_synthetic(SyntheticConfig(**QUICK, seed=3))
    m = ds.vocabulary.predicate_count
    statuses = [
        p.status for scene in ds.split("train") for p in generate_for_scene(scene, m)
    ]
    assert PairStatus.UNDETERMINED in statuses
    assert PairStatus.DETERMINATE in statuses


def test_same_seed_is_byte_identical(tmp_path):
    config = SyntheticConfig(**QUICK, seed=4)
    save_dataset(generate_synthetic(config), tmp_path / "a")
    save_dataset(generate_synthetic(config), tmp_path / "b")
    for name in ("dataset.json", "features.bin", "features.idx.json", "embeddings.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def test_different_seeds_differ():
    a = generate_synthetic(SyntheticConfig(**QUICK, seed=5))
    b = generate_synthetic(SyntheticConfig(**QUICK, seed=6))
    assert a.scenes[0].subject_boxes.tobytes() != b.scenes[0].subject_boxes.tobytes()


def test_held_out_types_absent_from_train_present_in_test():
    config = SyntheticConfig(train_scenes=60, test_scenes=40, zero_shot_types=4, seed=7)
    ds = generate_synthetic(config)
    held = set(held_out_types(config))
    assert len(held) == 4
    train_types = {
        key for s in ds.split("train") for key in _types(s)
    }
    test_types = {key for s in ds.split("test") for key in _types(s)}
    assert not (held & train_types)
    assert held & test_types


def _types(scene):
    columns = (scene.subject_categories, scene.predicates, scene.object_categories)
    return set(zip(*(column.tolist() for column in columns)))


def test_features_cover_all_references():
    ds = generate_synthetic(SyntheticConfig(**QUICK, seed=8))
    for scene in ds.scenes:
        for key in scene.feature_keys:
            assert key in ds.features
        n = len(scene.boxes)
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert f"{scene.image_id}|union|det|{i}|{j}" in ds.features
        g = len(scene.gt_objects()[0])
        for i in range(g):
            assert f"{scene.image_id}|gt|{i}" in ds.features


def test_embeddings_cover_vocabulary():
    ds = generate_synthetic(SyntheticConfig(**QUICK, seed=9))
    for name in ds.vocabulary.object_names:
        assert name in ds.embeddings.vectors


def test_statistics_buildable_from_train_split():
    ds = generate_synthetic(SyntheticConfig(**QUICK, seed=10))
    stats = build_triplet_statistics(ds.split("train"), ds.vocabulary)
    assert stats.total == sum(len(s.predicates) for s in ds.split("train"))


def _per_key_noise(seed, tag, dim, scale):
    """The documented definition of one key's visual noise."""
    digest = hashlib.sha256(f"{seed}|{tag}".encode("utf-8")).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little")).standard_normal(dim) * scale


def _features_the_old_way(config):
    """Reference ``features.bin`` and ``features.idx.json`` bytes, built one
    vector per key: prototype plus ``_per_key_noise`` for objects, the noise
    of ``union_box`` tags for pairs, then stacked in sorted-key order."""
    rng = np.random.default_rng(config.seed)
    blueprint = synthetic._Blueprint(config, rng)
    vectors = {}
    for split, count in (
        ("train", config.train_scenes),
        ("validation", config.validation_scenes),
        ("test", config.test_scenes),
    ):
        for n in range(count):
            scene, true_categories = synthetic._build_scene(
                f"synth-{split}-{n:04d}", split, config, blueprint, rng
            )
            image_id = scene.image_id

            def noise(kind, box):
                tag = f"{image_id}|{kind}" + "{:.4f},{:.4f},{:.4f},{:.4f}".format(*box.as_tuple())
                return _per_key_noise(config.seed, tag, config.visual_dim, config.visual_noise)

            det_boxes = [BoundingBox(*box) for box in scene.boxes.tolist()]
            for d, (key, box) in enumerate(zip(scene.feature_keys, det_boxes)):
                vectors[key] = blueprint.prototypes[true_categories[d]] + noise("", box)
            gt_boxes, gt_categories = (column.tolist() for column in scene.gt_objects())
            gt_boxes = [BoundingBox(*box) for box in gt_boxes]
            for g, (box, cat) in enumerate(zip(gt_boxes, gt_categories)):
                vectors[gt_feature_key(image_id, g)] = blueprint.prototypes[cat] + noise("", box)
            for boxes, kind in ((det_boxes, "det"), (gt_boxes, "gt")):
                for i in range(len(boxes)):
                    for j in range(len(boxes)):
                        if i != j:
                            u = union_box(boxes[i], boxes[j])
                            (key,) = union_keys(image_id, kind, [i], [j])
                            vectors[key] = noise("union|", u)
    keys = sorted(vectors)
    data = np.stack([vectors[k] for k in keys]).astype("<f8").tobytes()
    index = {
        "schema_version": 1,
        "dim": config.visual_dim,
        "count": len(keys),
        "keys": {k: i for i, k in enumerate(keys)},
    }
    return data, json.dumps(index, sort_keys=True, indent=1).encode("utf-8")


@pytest.mark.parametrize("visual_noise", [0.35, 0.0], ids=["noisy", "noise-free"])
def test_feature_files_equal_per_key_reference(tmp_path, visual_noise):
    # Label flips make a detection's prototype differ from its label; a zero
    # noise scale gives -0.0 union entries, which must survive as they are.
    config = SyntheticConfig(
        train_scenes=4, validation_scenes=2, test_scenes=3, label_flip_rate=0.5,
        visual_dim=5, visual_noise=visual_noise, seed=11,
    )
    save_dataset(generate_synthetic(config), tmp_path)
    data, index = _features_the_old_way(config)
    assert (tmp_path / "features.idx.json").read_bytes() == index
    assert (tmp_path / "features.bin").read_bytes() == data


@pytest.mark.parametrize("dim", [1, 24, 4096])
def test_batched_seeding_equals_default_rng(dim):
    # Synthesis seeds PCG64 itself; a numpy change to SeedSequence or to
    # PCG64's seeding would make its rows differ from default_rng's here.
    rng = np.random.default_rng(0)
    seeds = np.concatenate([
        np.array([0, 1, 2**32 - 1, 2**32, 2**64 - 1], dtype=np.uint64),
        rng.integers(0, 2**32, 1_000, dtype=np.uint64),
        rng.integers(0, 2**64 - 1, 10_000, dtype=np.uint64, endpoint=True),
    ])
    for start in range(0, len(seeds), 512):
        chunk = seeds[start:start + 512]
        rows = synthetic._standard_normal_rows(chunk, np.empty((len(chunk), dim)))
        for seed, row in zip(chunk.tolist(), rows):
            expected = np.random.default_rng(seed).standard_normal(dim)
            assert row.tobytes() == expected.tobytes(), seed
