import dataclasses
import json
import re
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urelnet import training
from urelnet.checkpoint import FORMAT_VERSION, MAGIC, load_checkpoint, load_model, save_checkpoint
from urelnet.errors import CheckpointError, IngestionError, UndefinedMetricError, UsageError
from urelnet.features import FeatureMatrix, FeatureStore
from urelnet.model import LOSS_TERMS, ModelConfig, build_model, model_shapes, required_streams
from urelnet.pairs import (
    BatchSpec,
    PairSampler,
    generate_for_scene,
    gt_pairs_for_scene,
    union_keys,
)
from urelnet.synthetic import SyntheticConfig, generate_synthetic
from urelnet.training import (
    SCHEDULE_PRESETS,
    RunConfig,
    Schedule,
    build_extractor,
    build_training_pool,
    make_run_config,
    run_evaluation,
    run_training,
    write_log,
)

QUICK_DATA = SyntheticConfig(
    train_scenes=15, validation_scenes=4, test_scenes=5, min_relations=2, max_relations=3,
    seed=11,
)


@pytest.fixture(scope="module")
def dataset():
    return generate_synthetic(QUICK_DATA)


def small_model(dataset, **overrides):
    return ModelConfig(
        predicate_count=dataset.vocabulary.predicate_count,
        object_count=dataset.vocabulary.object_count,
        visual_dim=dataset.features.dim,
        embedding_dim=dataset.embeddings.dim,
        transform_dim=12,
        dc_hidden_dim=6,
        rel_hidden_dim=12,
        **overrides,
    )


def quick_run(dataset, **overrides):
    defaults = dict(
        model=small_model(dataset),
        steps=30,
        seed=0,
        schedule=Schedule(1e-3, 0.5, 1000),
        batch_size=16,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def test_schedule_presets_encode_expected_constants():
    assert SCHEDULE_PRESETS["vrd"] == Schedule(base_lr=3e-4, decay_rate=0.5, decay_interval=4000)
    assert SCHEDULE_PRESETS["vg"] == Schedule(base_lr=3e-4, decay_rate=0.7, decay_interval=35000)


def test_predicate_preset_zeroes_undetermined_terms(dataset):
    rc = make_run_config(small_model(dataset), task="predicate", steps=5, seed=0)
    assert rc.model.rel_undetermined_weight == 0.0
    assert rc.model.dc_loss_weight == 0.0
    assert rc.undetermined_ratio == 0.0


def test_relation_preset_keeps_defaults(dataset):
    rc = make_run_config(small_model(dataset), task="relation", steps=5, seed=0)
    assert rc.model.rel_undetermined_weight == 0.5
    assert rc.model.dc_loss_weight == 1.0
    assert rc.undetermined_ratio == 3.0


def test_predicate_pool_is_all_determinate(dataset):
    rc = make_run_config(small_model(dataset), task="predicate", steps=5, seed=0)
    pool = build_training_pool(dataset, build_extractor(dataset), rc)
    assert pool.determinate.all()
    assert pool.labels.sum() >= len(pool.labels)


def test_undetermined_cap_limits_pool(dataset):
    rc_uncapped = quick_run(dataset)
    rc_capped = quick_run(dataset, per_scene_undetermined_cap=5)
    extractor = build_extractor(dataset)
    uncapped = build_training_pool(dataset, extractor, rc_uncapped)
    capped = build_training_pool(dataset, extractor, rc_capped)
    n_train = len(dataset.split("train"))
    assert len(capped.undetermined_indices) <= 5 * n_train
    assert len(capped.undetermined_indices) < len(uncapped.undetermined_indices)
    assert len(capped.determinate_indices) == len(uncapped.determinate_indices)


def _list_capped_pool(dataset, extractor, run_config):
    """The undetermined cap over lists of pairs, one feature row at a time:
    a scene's determinate pairs, then the kept undetermined ones in scene
    order, drawing from the same generator as the pool."""
    cap = run_config.per_scene_undetermined_cap
    cap_rng = np.random.default_rng(run_config.seed)
    streams = required_streams(run_config.model)
    rows, labels, mask = [], [], []
    for scene in dataset.split("train"):
        pairs = generate_for_scene(scene, dataset.vocabulary.predicate_count)
        determinate = [p for p in range(len(pairs)) if pairs[p].determinate]
        undetermined = [p for p in range(len(pairs)) if not pairs[p].determinate]
        if len(undetermined) > cap:
            keep = cap_rng.choice(len(undetermined), size=cap, replace=False)
            undetermined = [undetermined[i] for i in sorted(keep)]
        for p in determinate + undetermined:
            rows.append(extractor.matrix(pairs.take([p]), scene, streams=streams))
            labels.append(pairs[p].predicate_labels)
            mask.append(pairs[p].determinate)
    stacked = FeatureMatrix({name: np.concatenate([m[name] for m in rows]) for name in streams})
    return stacked, np.stack(labels), np.array(mask)


@pytest.mark.parametrize("cap", [0, 2, 5])
def test_capped_pool_matches_list_reference(dataset, cap):
    run_config = quick_run(dataset, per_scene_undetermined_cap=cap, seed=3)
    extractor = build_extractor(dataset)
    pool = build_training_pool(dataset, extractor, run_config)
    features, labels, mask = _list_capped_pool(dataset, extractor, run_config)
    assert sorted(pool.features.streams) == sorted(features.streams)
    for name, rows in features.streams.items():
        assert pool.features[name].tobytes() == rows.tobytes(), name
    assert pool.labels.tobytes() == labels.tobytes()
    assert pool.determinate.tolist() == mask.tolist()


def test_pool_holds_per_pair_rows_equal_to_direct_lookups(dataset):
    # The pool holds row numbers into the shared tables; reading a stream
    # gives one row per pair, the bytes of a lookup per pair and stream.
    from urelnet.features import external_linguistic, spatial_rows

    run_config = quick_run(dataset, model=small_model(dataset, im_mode=True))
    extractor = build_extractor(dataset)
    pool = build_training_pool(dataset, extractor, run_config)
    assert sorted(pool.features.streams) == sorted(required_streams(run_config.model))
    # Every stream but spatial is one row number per pair into a shared table.
    tables = {
        "visual": dataset.features.table,
        "external": extractor._external_table,
        "internal": extractor.stats.internal_table,
    }
    pairs_in_pool = len(pool.labels)
    for name, table in pool.features.streams.items():
        if name == "spatial":
            assert name not in pool.features.index
            assert table.shape == (pairs_in_pool, 8)
            continue
        assert np.shares_memory(table, tables[name.split("_")[0]]), name
        assert pool.features.index[name].shape == (pairs_in_pool,), name
    store, vocab = dataset.features, dataset.vocabulary
    expected = {name: [] for name in pool.features.streams}
    for scene in dataset.split("train"):
        pairs = generate_for_scene(scene, vocab.predicate_count)
        for pair in pairs:
            i, j = pair.subject_index, pair.object_index
            for role, obj in (("subject", i), ("object", j)):
                expected[f"visual_{role}"].append(store.table[store.index[scene.feature_keys[obj]]])
                name = vocab.object_names[scene.categories[obj]]
                expected[f"external_{role}"].append(external_linguistic(dataset.embeddings, name))
            expected["visual_union"].append(store.table[store.index[pair.union_feature_key]])
            expected["spatial"].append(spatial_rows(scene.boxes[[i]], scene.boxes[[j]])[0])
            expected["internal"].append(
                extractor.stats.internal_table[scene.categories[i], scene.categories[j]]
            )
    for name, rows in expected.items():
        assert pool.features[name].tobytes() == np.stack(rows).tobytes(), name
    batch = pool.features.rows(np.array([5, 0, 5]))
    assert batch.index == {}
    for name in expected:
        assert batch[name].tobytes() == np.stack([expected[name][r] for r in (5, 0, 5)]).tobytes()


def _stacked_pool(dataset, extractor, run_config):
    """The pool's features as they were stacked before the pool indexed the
    shared tables: each scene's ``matrix`` gathered to one row per pair."""
    m = dataset.vocabulary.predicate_count
    streams = required_streams(run_config.model)
    cap_rng = np.random.default_rng(run_config.seed)
    matrices = []
    for scene in dataset.split("train"):
        if run_config.task == "predicate":
            pairs = gt_pairs_for_scene(scene, m, annotated_only=True)
        else:
            pairs = generate_for_scene(scene, m)
            cap = run_config.per_scene_undetermined_cap
            if cap is not None:
                determinate = pairs.determinate
                undetermined = np.flatnonzero(~determinate)
                if len(undetermined) > cap:
                    keep = cap_rng.choice(len(undetermined), size=cap, replace=False)
                    undetermined = undetermined[np.sort(keep)]
                pairs = pairs.take(np.concatenate([np.flatnonzero(determinate), undetermined]))
        if pairs:
            matrices.append(extractor.matrix(pairs, scene, streams=streams))
    return FeatureMatrix({name: np.concatenate([x[name] for x in matrices]) for name in streams})


@pytest.mark.parametrize("case", ["predicate", "cap", "im"])
def test_pool_batches_equal_the_stacked_per_pair_pool(dataset, case):
    task = "predicate" if case == "predicate" else "relation"
    run_config = make_run_config(
        small_model(dataset, im_mode=case == "im"), task=task, steps=40, seed=3, batch_size=16,
        per_scene_undetermined_cap=2 if case == "cap" else None,
    )
    extractor = build_extractor(dataset)
    pool = build_training_pool(dataset, extractor, run_config)
    stacked = _stacked_pool(dataset, extractor, run_config)
    assert sorted(pool.features.streams) == sorted(stacked.streams)
    for name in stacked.streams:
        assert pool.features[name].tobytes() == stacked[name].tobytes(), name
    # The batches ``run_training`` draws, each gathered from both layouts.
    spec = BatchSpec(run_config.batch_size, run_config.undetermined_ratio, run_config.seed)
    sampler = PairSampler(pool.determinate_indices, pool.undetermined_indices, spec)
    for _ in range(run_config.steps):
        idx = sampler.sample_batch()
        batch, expected = pool.features.rows(idx), stacked.rows(idx)
        for name in stacked.streams:
            assert batch[name].tobytes() == expected[name].tobytes(), name


PARITY_DATA = SyntheticConfig(train_scenes=4, test_scenes=1, min_relations=2, max_relations=3, seed=14)


def _faulty_dataset(fault):
    """A small dataset with one fault in its second train scene, a run
    config made before the fault, and the message the pool reports for it."""
    ds = generate_synthetic(PARITY_DATA)
    run_config = quick_run(ds)
    scene = ds.split("train")[1]
    at = ds.scenes.index(scene)
    n = ds.vocabulary.object_count
    if fault == "union key":
        (key,) = union_keys(scene.image_id, "det", [0], [1])
        index = {k: row for k, row in ds.features.index.items() if k != key}
        ds.features = FeatureStore(ds.features.table, index)
        return ds, run_config, f"missing visual feature vector for key {key!r}"
    if fault == "embeddings":
        ds.embeddings = None
        return ds, run_config, "external linguistic features requested but no embedding table loaded"
    if fault == "feature key":
        change = dict(feature_keys=scene.feature_keys[:1] + (None,) + scene.feature_keys[2:])
    else:
        change = dict(categories=np.where(np.arange(len(scene.categories)) == 1, n, scene.categories))
    ds.scenes[at] = replace(scene, **change)
    if fault == "feature key":
        return ds, run_config, f"scene {scene.image_id!r}: object 1 has no feature key"
    return ds, run_config, f"subject category {n} out of range [0, {n})"


@pytest.mark.parametrize("fault", ["union key", "feature key", "category", "embeddings"])
def test_pool_reports_missing_or_bad_inputs_before_any_step(fault, monkeypatch):
    import urelnet.training as training

    ds, run_config, message = _faulty_dataset(fault)
    with pytest.raises(IngestionError, match=re.escape(message)) as raised:
        build_training_pool(ds, build_extractor(ds), run_config)
    assert str(raised.value) == message

    def no_model(*args, **kwargs):
        raise AssertionError("the run built a model")

    monkeypatch.setattr(training, "build_model", no_model)
    with pytest.raises(IngestionError, match=re.escape(message)):
        run_training(ds, run_config)


def test_training_loss_decreases(dataset):
    result = run_training(dataset, quick_run(dataset, steps=150))
    losses = [r["loss"] for r in result.log_records if "loss" in r]
    assert losses[-1] < losses[0]


@pytest.mark.parametrize("im_mode", [False, True], ids=["union", "im"])
def test_training_logs_all_terms(dataset, im_mode):
    # The union model logs its terms bare; the IM model logs each network's
    # loss and terms under its role, and their sum in role order.
    rc = quick_run(dataset, model=small_model(dataset, im_mode=im_mode), steps=3)
    record = run_training(dataset, rc).log_records[0]
    roles = ("union", "subject", "object")
    if im_mode:
        terms = {f"{role}.{term}" for role in roles for term in ("loss",) + LOSS_TERMS}
        assert record["loss"] == 0.0 + sum(record[f"{role}.loss"] for role in roles)
    else:
        terms = set(LOSS_TERMS)
    assert len(LOSS_TERMS) == 4
    assert set(record) == {"step", "learning_rate", "loss"} | terms


def test_training_is_reproducible(dataset, tmp_path):
    a = run_training(dataset, quick_run(dataset, steps=25))
    b = run_training(dataset, quick_run(dataset, steps=25))
    write_log(a.log_records, tmp_path / "a.jsonl")
    write_log(b.log_records, tmp_path / "b.jsonl")
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
    for name, param in a.model.parameters().items():
        np.testing.assert_array_equal(param, b.model.parameters()[name])


def test_validation_tracking(dataset):
    result = run_training(dataset, quick_run(dataset, steps=20, validation_interval=10))
    assert result.best_validation_recall is not None
    val_records = [r for r in result.log_records if "validation_recall" in r]
    assert len(val_records) == 2


def test_best_validation_parameters_are_a_snapshot(dataset):
    # The best validation comes first (later ones only tie), so the run must
    # end on the parameters after step 4, not on the live buffer after step 39.
    result = run_training(dataset, quick_run(dataset, steps=40, validation_interval=5))
    recalls = [(r["step"], r["validation_recall"]) for r in result.log_records
               if "validation_recall" in r]
    best_step = next(step for step, recall in recalls if recall == result.best_validation_recall)
    assert best_step == 4
    no_validation = 10**6
    replay = run_training(dataset, quick_run(dataset, steps=5, validation_interval=no_validation))
    last = run_training(dataset, quick_run(dataset, steps=40, validation_interval=no_validation))
    final = result.model.parameters()
    assert np.array_equal(final.flat, replay.model.parameters().flat)
    assert not np.array_equal(final.flat, last.model.parameters().flat)


@pytest.mark.parametrize("im_mode, validation", [(False, {}), (False, {"validation_interval": 5}),
                                                 (True, {})])
def test_trained_model_holds_no_written_gradients(dataset, monkeypatch, tmp_path, im_mode,
                                                  validation):
    built = []

    def keep_built(config, rng):
        built.append(build_model(config, rng))
        return built[-1]

    monkeypatch.setattr(training, "build_model", keep_built)
    run = quick_run(dataset, model=small_model(dataset, im_mode=im_mode), steps=10, **validation)
    result = run_training(dataset, run)
    (trained,) = built
    assert type(result.model) is type(trained)
    assert np.any(trained.gradients().flat)
    assert not np.any(result.model.gradients().flat)
    # The same parameter buffer, so the checkpoint is the trained model's.
    assert result.model.parameters().flat is trained.parameters().flat
    save_checkpoint(tmp_path / "returned.bin", result.model.config, result.model.parameters())
    save_checkpoint(tmp_path / "trained.bin", trained.config, trained.parameters())
    assert (tmp_path / "returned.bin").read_bytes() == (tmp_path / "trained.bin").read_bytes()


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_divergent_features_raise():
    # Non-finite visual features blow up the loss; the run must abort.
    from urelnet.errors import DivergenceError

    ds = generate_synthetic(
        SyntheticConfig(train_scenes=6, test_scenes=1, min_relations=2, max_relations=3, seed=14)
    )
    ds.features = FeatureStore(np.full_like(ds.features.table, np.inf), ds.features.index)
    rc = RunConfig(
        model=ModelConfig(
            predicate_count=ds.vocabulary.predicate_count,
            object_count=ds.vocabulary.object_count,
            visual_dim=ds.features.dim,
            embedding_dim=ds.embeddings.dim,
            transform_dim=12,
            dc_hidden_dim=6,
            rel_hidden_dim=12,
        ),
        steps=5,
        seed=0,
    )
    with pytest.raises(DivergenceError):
        run_training(ds, rc)


def test_checkpoint_roundtrip_bit_exact(dataset, tmp_path):
    result = run_training(dataset, quick_run(dataset, steps=5))
    path_a = tmp_path / "a.bin"
    path_b = tmp_path / "b.bin"
    save_checkpoint(path_a, result.model.config, result.model.parameters())
    config, params = load_checkpoint(path_a)
    assert config == result.model.config
    save_checkpoint(path_b, config, params)
    assert path_a.read_bytes() == path_b.read_bytes()
    for name, param in result.model.parameters().items():
        np.testing.assert_array_equal(params[name], param)


def test_checkpoint_loads_runnable_model(dataset, tmp_path):
    result = run_training(dataset, quick_run(dataset, steps=5))
    path = tmp_path / "model.bin"
    save_checkpoint(path, result.model.config, result.model.parameters())
    model = load_model(path)
    report = run_evaluation(dataset, model, tasks=("relation",), n_values=(10,))
    assert "relation" in report["tasks"]


def test_checkpoint_im_mode_roundtrip(dataset, tmp_path):
    rc = quick_run(dataset, model=small_model(dataset, im_mode=True), steps=4)
    result = run_training(dataset, rc)
    path = tmp_path / "im.bin"
    save_checkpoint(path, result.model.config, result.model.parameters())
    model = load_model(path)
    for name, param in result.model.parameters().items():
        np.testing.assert_array_equal(param, model.parameters()[name])
    # The three-network model must run the whole evaluation path too.
    report = run_evaluation(model=model, dataset=dataset,
                            tasks=("relation", "predicate"), n_values=(20,))
    assert set(report["tasks"]) == {"relation", "predicate"}


@pytest.mark.parametrize("im_mode", [False, True], ids=["union", "im"])
def test_numpy_scalar_config_survives_a_checkpoint_round_trip(tmp_path, im_mode):
    config = ModelConfig(
        predicate_count=np.int64(4), object_count=np.int32(5), visual_dim=np.int64(12),
        embedding_dim=np.int16(6), transform_dim=np.uint8(7), dc_hidden_dim=np.int64(5),
        rel_hidden_dim=np.int64(9), dc_undetermined_weight=np.float32(0.3),
        rel_undetermined_weight=np.float64(0.5), dc_loss_weight=np.float32(0.5),
        im_mode=np.bool_(im_mode),
    )
    path = tmp_path / "model.bin"
    save_checkpoint(path, config, build_model(config, np.random.default_rng(0)).parameters())
    loaded, _ = load_checkpoint(path)
    assert loaded == config
    for field in dataclasses.fields(ModelConfig):
        value = getattr(config, field.name)
        assert type(value) in (int, float, bool, str, tuple), field.name
        assert type(getattr(loaded, field.name)) is type(value), field.name


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_path_with_nul_byte_is_not_found(tmp_path):
    with pytest.raises(CheckpointError, match="not found or unreadable"):
        load_checkpoint(str(tmp_path / "ck\x00x"))


def test_unknown_task_is_rejected_before_training(dataset):
    with pytest.raises(UsageError, match="task must be one of .* got 'relaton'"):
        RunConfig(small_model(dataset), task="relaton", steps=3)
    with pytest.raises(UsageError, match="relaton"):
        make_run_config(small_model(dataset), task="relaton")


def test_checkpoint_truncated(dataset, tmp_path):
    result = run_training(dataset, quick_run(dataset, steps=2))
    path = tmp_path / "t.bin"
    save_checkpoint(path, result.model.config, result.model.parameters())
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


TOY_CONFIG = ModelConfig(
    predicate_count=4, object_count=5, visual_dim=12, embedding_dim=6,
    transform_dim=7, dc_hidden_dim=5, rel_hidden_dim=9,
)


def test_checkpoint_every_truncation_is_checkpoint_error(tmp_path):
    path = tmp_path / "toy.bin"
    save_checkpoint(path, TOY_CONFIG, build_model(TOY_CONFIG, np.random.default_rng(0)).parameters())
    data = path.read_bytes()
    cut = tmp_path / "cut.bin"
    escaped = []
    for offset in range(len(data)):
        cut.write_bytes(data[:offset])
        try:
            load_checkpoint(cut)
        except CheckpointError:
            continue
        except Exception as exc:  # any other type breaks the error contract
            escaped.append((offset, repr(exc)))
        else:
            escaped.append((offset, "loaded"))
    assert not escaped, escaped[:5]


def _checkpoint_with_header(path, header):
    raw = json.dumps(header).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<II", FORMAT_VERSION, len(raw)) + raw)
    return path


GOOD_CONFIG = TOY_CONFIG.to_json_dict()


def _layout_blocks(config_json):
    shapes = model_shapes(ModelConfig.from_json_dict(config_json))
    return [{"name": name, "shape": list(shapes[name])} for name in sorted(shapes)]


def _with_first_shape(shape):
    blocks = _layout_blocks(GOOD_CONFIG)
    blocks[0] = {**blocks[0], "shape": shape}
    return {"config": GOOD_CONFIG, "blocks": blocks}


# A self-consistent layout of 2**40-wide visual weights; the file has no payload.
HUGE_CONFIG = {**GOOD_CONFIG, "visual_dim": 2**40}
HUGE_LAYOUT = {"config": HUGE_CONFIG, "blocks": _layout_blocks(HUGE_CONFIG)}


@pytest.mark.parametrize("header", [
    {"blocks": []},
    {"config": GOOD_CONFIG},
    [],
    {"config": {**GOOD_CONFIG, "predicate_count": 0}, "blocks": []},
    {"config": {**GOOD_CONFIG, "bogus": 1}, "blocks": []},
    {"config": {**GOOD_CONFIG, "visual_dim": "wide"}, "blocks": []},
    {"config": GOOD_CONFIG, "blocks": [{"name": "w"}]},
    {"config": GOOD_CONFIG, "blocks": [{"name": "w", "shape": [-1, 2]}]},
    {"config": GOOD_CONFIG, "blocks": [{"name": ["w"], "shape": [1]}]},
    _with_first_shape([3, 2**61]),
    _with_first_shape([2**40, 2**40]),
    _with_first_shape([2**28, 2**28]),
    {"config": GOOD_CONFIG, "blocks": _layout_blocks(GOOD_CONFIG)[1:]},
    {"config": GOOD_CONFIG, "blocks": _layout_blocks(GOOD_CONFIG)[::-1]},
    {"config": {**GOOD_CONFIG, "visual_dim": 12.5}, "blocks": []},
    HUGE_LAYOUT,
    {"config": {**GOOD_CONFIG, "im_mode": "no"},
     "blocks": _layout_blocks({**GOOD_CONFIG, "im_mode": True})},
    {"config": {**GOOD_CONFIG, "dc_loss_weight": float("nan")}, "blocks": _layout_blocks(GOOD_CONFIG)},
    {"config": {**GOOD_CONFIG, "rel_undetermined_weight": float("inf")},
     "blocks": _layout_blocks(GOOD_CONFIG)},
])
def test_checkpoint_bad_header_is_checkpoint_error(tmp_path, header):
    path = _checkpoint_with_header(tmp_path / "h.bin", header)
    # Oversized dims fail before any allocation: a block list that is not
    # the configuration's layout is a corrupt header, and a layout larger
    # than the file is a truncated payload.
    expected = "truncated payload" if header is HUGE_LAYOUT else "corrupt header"
    with pytest.raises(CheckpointError, match=expected):
        load_checkpoint(path)


@pytest.fixture(scope="module")
def toy_checkpoints(tmp_path_factory):
    """Saved TOY union and IM checkpoints: kind -> (path, file bytes)."""
    root = tmp_path_factory.mktemp("toy")
    saved = {}
    for kind, config in (("union", TOY_CONFIG), ("im", replace(TOY_CONFIG, im_mode=True))):
        path = root / f"{kind}.bin"
        save_checkpoint(path, config, build_model(config, np.random.default_rng(0)).parameters())
        saved[kind] = (path, path.read_bytes())
    return saved


@pytest.mark.parametrize("kind", ["union", "im"])
def test_load_model_makes_no_random_draw(toy_checkpoints, monkeypatch, kind):
    from urelnet import model as model_module

    def no_draw(*args, **kwargs):
        raise AssertionError("load_model drew random values")

    monkeypatch.setattr(model_module, "glorot_uniform", no_draw)
    monkeypatch.setattr(np.random, "default_rng", no_draw)
    path, raw = toy_checkpoints[kind]
    model = load_model(path)
    assert raw.endswith(model.parameters().flat.astype("<f8").tobytes())
    assert not model.gradients().flat.any()


@pytest.mark.parametrize("kind", ["union", "im"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_checkpoint_non_finite_parameter_is_checkpoint_error(toy_checkpoints, tmp_path, kind, value):
    config, params = load_checkpoint(toy_checkpoints[kind][0])
    name = sorted(params)[len(params) // 2]
    params[name].flat[-1] = value
    path = tmp_path / "bad.bin"
    save_checkpoint(path, config, params)
    with pytest.raises(CheckpointError, match=f"non-finite value in parameter block '{name}'"):
        load_model(path)


@pytest.mark.parametrize("kind", ["union", "im"])
def test_checkpoint_large_finite_parameters_load(toy_checkpoints, tmp_path, kind):
    # Their sum of squares overflows; the per-block scan still admits them.
    config, params = load_checkpoint(toy_checkpoints[kind][0])
    name = sorted(params)[0]
    params[name][...] = 1e300
    path = tmp_path / "large.bin"
    save_checkpoint(path, config, params)
    model = load_model(path)
    assert np.array_equal(model.parameters()[name], params[name])


@pytest.mark.parametrize("kind", ["union", "im"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_checkpoint_bit_flip_fuzz(toy_checkpoints, kind, data):
    # One flipped bit anywhere: a CheckpointError, or a model whose
    # parameters are all finite. Half the draws land in the prefix and
    # header, which are a sixth of the file.
    path, raw = toy_checkpoints[kind]
    (header_len,) = struct.unpack("<I", raw[12:16])
    bit = data.draw(
        st.integers(0, 8 * (16 + header_len) - 1) | st.integers(0, 8 * len(raw) - 1),
        label="bit",
    )
    flipped = bytearray(raw)
    flipped[bit // 8] ^= 1 << (bit % 8)
    target = path.with_name(f"{kind}-flipped.bin")
    target.write_bytes(bytes(flipped))
    try:
        model = load_model(target)
    except CheckpointError:
        return
    assert np.isfinite(model.parameters().flat).all()


def test_evaluation_mismatched_model_errors(dataset):
    config = small_model(dataset)
    wrong = ModelConfig(**{**config.to_json_dict(), "visual_dim": config.visual_dim + 3,
                           "enabled_modals": config.enabled_modals})
    model = build_model(wrong, np.random.default_rng(0))
    with pytest.raises(CheckpointError, match="visual_dim"):
        run_evaluation(dataset, model, tasks=("relation",))


def test_evaluation_empty_split_errors(dataset):
    result = run_training(dataset, quick_run(dataset, steps=2))
    ds_no_test = generate_synthetic(
        SyntheticConfig(train_scenes=5, test_scenes=0, min_relations=2, max_relations=3, seed=12)
    )
    with pytest.raises(UndefinedMetricError):
        run_evaluation(ds_no_test, result.model, tasks=("relation",))


def test_zero_shot_block_degrades_gracefully(dataset):
    # A dataset whose test types all appear in training: zero-shot block
    # reports the undefined-metric error, the plain block is unaffected.
    config = SyntheticConfig(
        train_scenes=40, test_scenes=5, zero_shot_types=0, min_relations=2, max_relations=3,
        seed=13,
    )
    ds = generate_synthetic(config)
    rc = quick_run(ds, model=small_model(ds), steps=5)
    result = run_training(ds, rc)
    report = run_evaluation(ds, result.model, tasks=("relation",), zero_shot=True)
    block = report["tasks"]["relation"]
    assert "recall" in block and "50" in block["recall"]
    zs = block["zero_shot"]
    assert isinstance(zs["50"], float) or zs.get("error") == "undefined-metric"


def test_run_evaluation_scores_once_per_source_and_matches_per_task_loop(dataset, monkeypatch):
    from urelnet import evaluation
    from urelnet.evaluation import EvalConfig, ModelScorer, evaluate_scenes
    from urelnet.training import build_extractor

    model = run_training(dataset, quick_run(dataset, steps=10)).model
    calls = []
    original = ModelScorer.__call__

    def counting(self, group):
        calls.extend(scene.image_id for _, scene in group)
        return original(self, group)

    monkeypatch.setattr(evaluation.ModelScorer, "__call__", counting)
    tasks = ("predicate", "phrase", "relation")
    report = run_evaluation(dataset, model, tasks=tasks, n_values=(5, 50), k=2, zero_shot=True)
    scenes = dataset.split("test")
    assert len(calls) == 2 * len(scenes)
    # The same numbers as scoring every (task, zero-shot) block on its own.
    extractor = build_extractor(dataset)
    scorer = ModelScorer(model, extractor)
    m = dataset.vocabulary.predicate_count
    for task in tasks:
        config = EvalConfig(task=task, n_values=(5, 50), k=2)
        assert report["tasks"][task]["recall"] == evaluate_scenes(scenes, scorer, config, m)
        zero_shot = evaluate_scenes(
            scenes, scorer, replace(config, zero_shot_only=True), m,
            training_types=extractor.stats.triplet_types(),
        )
        assert report["tasks"][task]["zero_shot"] == zero_shot


@pytest.mark.parametrize("im_mode", [False, True], ids=["union", "im"])
def test_run_evaluation_report_is_the_same_in_groups_of_one_scene(dataset, monkeypatch, im_mode):
    # The default pair budget scores several scenes in one forward pass; a
    # budget of one pair scores every scene alone. The reports are equal.
    from urelnet import evaluation

    model = run_training(
        dataset, quick_run(dataset, model=small_model(dataset, im_mode=im_mode), steps=10)
    ).model
    group_sizes = []
    original = evaluation.ModelScorer.__call__

    def recording(self, group):
        group_sizes.append(len(group))
        return original(self, group)

    monkeypatch.setattr(evaluation.ModelScorer, "__call__", recording)
    options = dict(tasks=("predicate", "phrase", "relation"), n_values=(5, 50), zero_shot=True)
    grouped = run_evaluation(dataset, model, **options)
    assert max(group_sizes) == len(dataset.split("test")) > 1
    del group_sizes[:]
    monkeypatch.setattr(evaluation, "PAIR_BUDGET", 1)
    alone = run_evaluation(dataset, model, **options)
    assert set(group_sizes) == {1}
    assert json.dumps(alone, sort_keys=True) == json.dumps(grouped, sort_keys=True)
