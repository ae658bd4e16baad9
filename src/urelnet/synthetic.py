"""Seeded synthetic scenes with planted relational structure.

Each predicate gets a characteristic geometric layout (object placed
below/above/beside/inside/... the subject) and a directional category
affinity (preferred subject-group -> object-group), so spatial, internal
linguistic, and external linguistic features all carry learnable signal.
Detections are noisy copies of the ground-truth objects (box jitter, label
flips, misses) plus spurious boxes, which populates the undetermined pool.
A configurable number of triplet types is held out of the training split
and injected only into test scenes for zero-shot evaluation.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Set, Tuple

import numpy as np

from .dataset import Dataset
from .errors import UsageError
from .features import EmbeddingTable, FeatureStore
from .nn import MAX_ARRAY_VALUES
from .pairs import gt_feature_key, union_keys
from .scene import SceneRecord, Vocabulary, pair_indices, union_rows, unique_objects

CATEGORY_GROUPS = 4
LAYOUT_COUNT = 8

IMAGE_WIDTH, IMAGE_HEIGHT = 640.0, 480.0
# The chances that a triplet's categories follow its predicate's group
# affinity, that an annotated pair gets a second predicate, and that a test
# triplet is a held-out type; the scale of a category's embedding noise.
AFFINITY_STRENGTH = 0.8
MULTI_LABEL_RATE = 0.08
ZERO_SHOT_RATE = 0.15
EMBEDDING_NOISE = 0.3

Box = Tuple[float, float, float, float]  # (x_min, y_min, x_max, y_max)

# The detection-noise fields, all zero for noise-free detections.
NOISE_FIELDS = ("box_jitter", "label_flip_rate", "miss_rate", "spurious_rate")

# The largest mean numpy's Poisson sampler accepts, computed as numpy does.
_POISSON_MAX = np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10

# A scene of n relations holds up to 2n annotated objects, whose ordered
# pairs must fit in one array.
_MAX_RELATIONS = math.isqrt(MAX_ARRAY_VALUES) // 2

# SyntheticConfig fields by the values they admit: (names, test, rule).
_CONFIG_RULES = (
    (("train_scenes", "validation_scenes", "test_scenes", "zero_shot_types", "seed"),
     lambda v: v >= 0, ">= 0"),
    (("predicate_count", "visual_dim", "embedding_dim"), lambda v: v >= 1, ">= 1"),
    (("object_count", "predicate_count", "visual_dim", "embedding_dim",
      "train_scenes", "validation_scenes", "test_scenes"),
     lambda v: v <= MAX_ARRAY_VALUES, f"<= {MAX_ARRAY_VALUES}"),
    (("max_relations",), lambda v: v <= _MAX_RELATIONS, f"<= {_MAX_RELATIONS}"),
    (("box_jitter", "visual_noise"), lambda v: 0 <= v < math.inf, "finite and >= 0"),
    # Each scene draws its spurious-box count from a Poisson of this mean.
    (("spurious_rate",), lambda v: 0 <= v <= _POISSON_MAX, f"in [0, {_POISSON_MAX:.6g}]"),
    (("label_flip_rate", "miss_rate"), lambda v: 0 <= v <= 1, "in [0, 1]"),
)


@dataclass(frozen=True)
class SyntheticConfig:
    object_count: int = 20
    predicate_count: int = 8
    train_scenes: int = 400
    validation_scenes: int = 0
    test_scenes: int = 100
    min_relations: int = 4
    max_relations: int = 6
    visual_dim: int = 24
    embedding_dim: int = 16
    box_jitter: float = 0.08
    label_flip_rate: float = 0.05
    miss_rate: float = 0.03
    spurious_rate: float = 2.0
    zero_shot_types: int = 5
    visual_noise: float = 0.35
    seed: int = 7

    def __post_init__(self):
        if self.object_count < CATEGORY_GROUPS:
            raise UsageError(f"object_count must be >= {CATEGORY_GROUPS}, got {self.object_count}")
        if self.min_relations < 1 or self.max_relations < self.min_relations:
            raise UsageError(
                "relations per scene must satisfy 1 <= min <= max, got "
                f"[{self.min_relations}, {self.max_relations}]"
            )
        for names, admits, rule in _CONFIG_RULES:
            for name in names:
                value = getattr(self, name)
                if not admits(value):
                    raise UsageError(f"{name} must be {rule}, got {value!r}")


# numpy's SeedSequence hash and mix constants (pool of 4 uint32 words) and
# PCG64's 128-bit LCG multiplier, as ``np.random.default_rng`` uses them.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1
# Keys seeded per batch; bounds the memory the batch's Python ints take.
_SEED_CHUNK = 512


def _hash_constants(init: int, mult: int) -> Iterator[Tuple[np.uint32, np.uint32]]:
    """SeedSequence's running hash constant: (xor word, multiplier) per hash."""
    const = init
    while True:
        xor = const
        const = const * mult & _MASK32
        yield np.uint32(xor), np.uint32(const)


def _hashed(values: np.ndarray, constants: Iterator) -> np.ndarray:
    xor, mult = next(constants)
    values = (values ^ xor) * mult
    return values ^ (values >> 16)


def _mixed(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> 16)


def _seed_states(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` of every uint64 seed
    ``s``, as one (n, 4) uint64 array computed in uint32 arithmetic.

    Each seed is two little-endian entropy words. A seed below 2**32 is one
    word to SeedSequence, but its pool hashes missing words as 0, so the
    zero high word gives the same pool.
    """
    words = np.ascontiguousarray(seeds, dtype="<u8").view("<u4").reshape(-1, 2)
    constants = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hashed(words[:, i], constants) for i in range(2)]
    pool += [_hashed(np.zeros(len(words), np.uint32), constants) for _ in range(_POOL_SIZE - 2)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mixed(pool[dst], _hashed(pool[src], constants))
    constants = _hash_constants(_INIT_B, _MULT_B)
    state = np.stack([_hashed(pool[i % _POOL_SIZE], constants) for i in range(8)], axis=1)
    return state.astype("<u4").view("<u8")


def _standard_normal_rows(seeds: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill row r of the (n, dim) ``out`` with exactly
    ``np.random.default_rng(int(seeds[r])).standard_normal(dim)``.

    One PCG64 is re-seeded per row with the state ``PCG64(seed)`` derives
    from ``_seed_states`` (``pcg_setseq_128_srandom_r``: inc is the odd
    stream id; the state is stepped, offset by the seed word, stepped
    again), and each draw lands in its row. Every seed's state words become
    Python ints at once, so callers pass bounded batches.
    """
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    pcg = {"state": 0, "inc": 0}
    snapshot = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for row, (seed_hi, seed_lo, inc_hi, inc_lo) in zip(out, _seed_states(seeds).tolist()):
        inc = ((inc_hi << 65) | (inc_lo << 1) | 1) & _MASK128
        pcg["inc"] = inc
        pcg["state"] = ((inc + (seed_hi << 64 | seed_lo)) * _PCG64_MULT + inc) & _MASK128
        bit_generator.state = snapshot
        generator.standard_normal(out=row)
    return out


def _box_tag(coords: Sequence[float]) -> str:
    return "{:.4f},{:.4f},{:.4f},{:.4f}".format(*coords)


def _unit_rows(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    rows = rng.standard_normal((count, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _clamp_box(x1: float, y1: float, x2: float, y2: float, w: float, h: float) -> Box:
    """Shift a box into [0, w] x [0, h], preserving its extent where possible."""
    if x1 < 0:
        x2 -= x1
        x1 = 0.0
    if x2 > w:
        x1 -= x2 - w
        x2 = w
    if y1 < 0:
        y2 -= y1
        y1 = 0.0
    if y2 > h:
        y1 -= y2 - h
        y2 = h
    x1, y1 = max(x1, 0.0), max(y1, 0.0)
    if x2 - x1 < 2.0:
        x2 = min(w, x1 + 2.0)
        x1 = x2 - 2.0
    if y2 - y1 < 2.0:
        y2 = min(h, y1 + 2.0)
        y1 = y2 - 2.0
    return (float(x1), float(y1), float(x2), float(y2))


def _layout_object_box(layout: int, subject: Box, rng: np.random.Generator) -> Box:
    """Object box in the layout's characteristic position relative to the subject."""
    x1, y1, x2, y2 = subject
    w, h = x2 - x1, y2 - y1
    ow = w * rng.uniform(0.7, 1.3)
    oh = h * rng.uniform(0.7, 1.3)
    gx = rng.uniform(4.0, 0.3 * w)
    gy = rng.uniform(4.0, 0.3 * h)
    dx = rng.uniform(-0.2, 0.2) * w
    if layout == 0:    # object directly below
        return (x1 + dx, y2 + gy, x1 + dx + ow, y2 + gy + oh)
    if layout == 1:    # object directly above
        return (x1 + dx, y1 - gy - oh, x1 + dx + ow, y1 - gy)
    if layout == 2:    # object to the right
        return (x2 + gx, y1 + dx, x2 + gx + ow, y1 + dx + oh)
    if layout == 3:    # object to the left
        return (x1 - gx - ow, y1 + dx, x1 - gx, y1 + dx + oh)
    if layout == 4:    # object surrounds the subject
        mx = w * rng.uniform(0.15, 0.35)
        my = h * rng.uniform(0.15, 0.35)
        return (x1 - mx, y1 - my, x2 + mx, y2 + my)
    if layout == 5:    # object inside the subject
        mx = w * rng.uniform(0.15, 0.3)
        my = h * rng.uniform(0.15, 0.3)
        return (x1 + mx, y1 + my, x2 - mx, y2 - my)
    if layout == 6:    # diagonal overlap
        sx = 0.5 * w * (1 if rng.random() < 0.5 else -1)
        sy = 0.5 * h * (1 if rng.random() < 0.5 else -1)
        return (x1 + sx, y1 + sy, x2 + sx, y2 + sy)
    # layout 7: close beside, similar size
    ow = w * rng.uniform(0.9, 1.1)
    oh = h * rng.uniform(0.9, 1.1)
    return (x2 + 3.0, y1, x2 + 3.0 + ow, y1 + oh)


class _Blueprint:
    """Deterministic dataset-level structure drawn once from the seed."""

    def __init__(self, config: SyntheticConfig, rng: np.random.Generator):
        n, m = config.object_count, config.predicate_count
        self.groups = np.arange(n) % CATEGORY_GROUPS
        self.layouts = np.arange(m) % LAYOUT_COUNT
        self.affinity = [
            (int(rng.integers(CATEGORY_GROUPS)), int(rng.integers(CATEGORY_GROUPS)))
            for _ in range(m)
        ]
        self.prototypes = _unit_rows(rng, n, config.visual_dim)
        group_dirs = _unit_rows(rng, CATEGORY_GROUPS, config.embedding_dim)
        self.embeddings = group_dirs[self.groups] + rng.standard_normal(
            (n, config.embedding_dim)
        ) * EMBEDDING_NOISE
        self.held_out = self._sample_held_out(config, rng)

    def categories_in_group(self, group: int) -> np.ndarray:
        return np.flatnonzero(self.groups == group)

    def sample_type(
        self, config: SyntheticConfig, rng: np.random.Generator
    ) -> Tuple[int, int, int]:
        predicate = int(rng.integers(config.predicate_count))
        gs, go = self.affinity[predicate]
        if rng.random() < AFFINITY_STRENGTH:
            s_cat = int(rng.choice(self.categories_in_group(gs)))
            o_cat = int(rng.choice(self.categories_in_group(go)))
        else:
            s_cat = int(rng.integers(config.object_count))
            o_cat = int(rng.integers(config.object_count))
        return s_cat, predicate, o_cat

    def _sample_held_out(
        self, config: SyntheticConfig, rng: np.random.Generator
    ) -> List[Tuple[int, int, int]]:
        held: Set[Tuple[int, int, int]] = set()
        attempts = 0
        while len(held) < config.zero_shot_types and attempts < 1000:
            held.add(self.sample_type(config, rng))
            attempts += 1
        return sorted(held)


def _build_scene(
    image_id: str,
    split: str,
    config: SyntheticConfig,
    blueprint: _Blueprint,
    rng: np.random.Generator,
) -> Tuple[SceneRecord, List[int]]:
    w, h = IMAGE_WIDTH, IMAGE_HEIGHT
    held_out = set(blueprint.held_out)
    annotations: List[tuple] = []  # (subject box, category, predicate, object box, category)
    n_rel = int(rng.integers(config.min_relations, config.max_relations + 1))
    for _ in range(n_rel):
        if split == "test" and held_out and rng.random() < ZERO_SHOT_RATE:
            s_cat, predicate, o_cat = blueprint.held_out[
                int(rng.integers(len(blueprint.held_out)))
            ]
        else:
            s_cat, predicate, o_cat = blueprint.sample_type(config, rng)
            tries = 0
            while split != "test" and (s_cat, predicate, o_cat) in held_out and tries < 50:
                s_cat, predicate, o_cat = blueprint.sample_type(config, rng)
                tries += 1
        subject = (0.0, 0.0, rng.uniform(40.0, 120.0), rng.uniform(40.0, 120.0))
        obj = _layout_object_box(int(blueprint.layouts[predicate]), subject, rng)
        lo_x, lo_y = min(subject[0], obj[0]), min(subject[1], obj[1])
        hi_x, hi_y = max(subject[2], obj[2]), max(subject[3], obj[3])
        dx = rng.uniform(-lo_x, w - hi_x) if w - hi_x > -lo_x else -lo_x
        dy = rng.uniform(-lo_y, h - hi_y) if h - hi_y > -lo_y else -lo_y
        subject = _clamp_box(subject[0] + dx, subject[1] + dy, subject[2] + dx, subject[3] + dy, w, h)
        obj = _clamp_box(obj[0] + dx, obj[1] + dy, obj[2] + dx, obj[3] + dy, w, h)
        annotations.append((subject, s_cat, predicate, obj, o_cat))
        if rng.random() < MULTI_LABEL_RATE and config.predicate_count > 1:
            other = int(rng.integers(config.predicate_count - 1))
            if other >= predicate:
                other += 1
            annotations.append((subject, s_cat, other, obj, o_cat))
    columns = [np.array(column) for column in zip(*annotations)]

    # Noisy detections: jittered ground-truth objects plus spurious boxes.
    detections: List[tuple] = []  # (box, category, confidence, true category)
    gt_boxes, gt_categories = unique_objects(columns[0], columns[1], columns[3], columns[4])
    for (x1, y1, x2, y2), cat in zip(gt_boxes.tolist(), gt_categories.tolist()):
        if rng.random() < config.miss_rate:
            continue
        j = config.box_jitter
        bw, bh = x2 - x1, y2 - y1
        noisy = _clamp_box(
            x1 + rng.uniform(-j, j) * bw,
            y1 + rng.uniform(-j, j) * bh,
            x2 + rng.uniform(-j, j) * bw,
            y2 + rng.uniform(-j, j) * bh,
            w,
            h,
        )
        label = cat
        if rng.random() < config.label_flip_rate and config.object_count > 1:
            label = int(rng.integers(config.object_count - 1))
            if label >= cat:
                label += 1
        detections.append((noisy, label, float(rng.uniform(0.55, 0.98)), cat))
    for _ in range(int(rng.poisson(config.spurious_rate))):
        bw = rng.uniform(30.0, 100.0)
        bh = rng.uniform(30.0, 100.0)
        bx = rng.uniform(0.0, w - bw)
        by = rng.uniform(0.0, h - bh)
        cat = int(rng.integers(config.object_count))
        box = (float(bx), float(by), float(bx + bw), float(by + bh))
        detections.append((box, cat, float(rng.uniform(0.25, 0.8)), cat))
    boxes, categories, confidences, true_categories = [*zip(*detections)] or [()] * 4
    keys = [f"{image_id}|det|{i}" for i in range(len(detections))]
    scene = SceneRecord(image_id, w, h, split, boxes, categories, confidences, keys, *columns)
    return scene, list(true_categories)


def _scene_features(scene: SceneRecord, true_categories: Sequence[int]) -> Iterator[tuple]:
    """(key, hash tag, prototype category) of each of the scene's visual
    vectors. Objects take their true category's prototype (label flips keep
    it); union boxes have none, their vectors are content-free noise."""
    image_id = scene.image_id
    for key, box, category in zip(scene.feature_keys, scene.boxes.tolist(), true_categories):
        yield key, f"{image_id}|{_box_tag(box)}", category
    gt_boxes, gt_categories = scene.gt_objects()
    for i, (box, cat) in enumerate(zip(gt_boxes.tolist(), gt_categories.tolist())):
        yield gt_feature_key(image_id, i), f"{image_id}|{_box_tag(box)}", cat
    for boxes, kind in ((scene.boxes, "det"), (gt_boxes, "gt")):
        subjects, objects = pair_indices(len(boxes))
        unions = union_rows(boxes[subjects], boxes[objects])
        for key, u in zip(union_keys(image_id, kind, subjects.tolist(), objects.tolist()), unions.tolist()):
            yield key, f"{image_id}|union|{_box_tag(u)}", None


def _feature_store(built: list, config: SyntheticConfig, blueprint: _Blueprint) -> FeatureStore:
    """The visual vectors of every built (scene, true categories), one table
    row per key in key order: prototype plus box-hash noise, or the noise alone.

    A key's noise is ``default_rng(s).standard_normal(dim) * visual_noise``,
    with ``s`` the first 8 bytes, little-endian, of ``sha256(f"{seed}|{tag}")``.
    """
    specs = {
        key: (tag, category)
        for scene, true_categories in built
        for key, tag, category in _scene_features(scene, true_categories)
    }
    keys = sorted(specs)
    table = np.empty((len(keys), config.visual_dim), dtype="<f8")
    for start in range(0, len(keys), _SEED_CHUNK):
        chunk = keys[start:start + _SEED_CHUNK]
        digests = b"".join(
            hashlib.sha256(f"{config.seed}|{specs[key][0]}".encode("utf-8")).digest()[:8]
            for key in chunk
        )
        rows = table[start:start + len(chunk)]
        _standard_normal_rows(np.frombuffer(digests, dtype="<u8"), rows)
        rows *= config.visual_noise
        for row, key in zip(rows, chunk):
            category = specs[key][1]
            if category is not None:
                row += blueprint.prototypes[category]
    return FeatureStore(table, {key: row for row, key in enumerate(keys)})


def generate_synthetic(config: SyntheticConfig) -> Dataset:
    """Seeded, reproducible dataset with ground truth, noisy detections,
    visual features, and an embedding table."""
    rng = np.random.default_rng(config.seed)
    blueprint = _Blueprint(config, rng)
    vocab = Vocabulary(
        tuple(f"obj{i:02d}" for i in range(config.object_count)),
        tuple(f"rel{j}" for j in range(config.predicate_count)),
    )
    # Features draw nothing from ``rng``, so every scene is built first. The
    # scene list exists before the first scene, so a count that no memory
    # can hold fails at once instead of after building scenes for hours.
    splits = (("train", config.train_scenes), ("validation", config.validation_scenes),
              ("test", config.test_scenes))
    built: list = [None] * sum(count for _, count in splits)
    scenes = ((split, i) for split, count in splits for i in range(count))
    for at, (split, i) in enumerate(scenes):
        built[at] = _build_scene(f"synth-{split}-{i:04d}", split, config, blueprint, rng)
    embeddings = EmbeddingTable(
        {vocab.object_names[i]: blueprint.embeddings[i].copy() for i in range(config.object_count)},
        config.embedding_dim,
    )
    features = _feature_store(built, config, blueprint)
    return Dataset(vocab, [scene for scene, _ in built], features, embeddings)


def held_out_types(config: SyntheticConfig) -> List[Tuple[int, int, int]]:
    """The triplet types excluded from this configuration's training split."""
    rng = np.random.default_rng(config.seed)
    return _Blueprint(config, rng).held_out
