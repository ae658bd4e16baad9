import math

import numpy as np
import pytest

import urelnet.model
from urelnet.errors import DimensionError, StateError
from urelnet.features import ONE_BOX_STREAMS, FeatureMatrix
from urelnet.model import (
    ALL_MODALS,
    NETWORK_ROLES,
    BatchStatus,
    Model,
    ModelConfig,
    RelationNetwork,
    build_model,
    joint_loss,
    joint_loss_gradients,
    layer_plan,
    make_gradient_check_problem,
    model_shapes,
    score_relations,
    sliced_loss,
    stream_spec,
    wire_model,
)
from urelnet.nn import Arena, DenseLayer, gradient_check, sigmoid_ce
from urelnet.scene import pair_indices

TOY = dict(
    predicate_count=4,
    object_count=5,
    visual_dim=12,
    embedding_dim=6,
    transform_dim=7,
    dc_hidden_dim=5,
    rel_hidden_dim=9,
)

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


def toy_config(**overrides):
    return ModelConfig(**{**TOY, **overrides})


def random_features(config, batch, rng):
    internal = rng.uniform(0.1, 1.0, size=(batch, config.predicate_count))
    internal /= internal.sum(axis=1, keepdims=True)
    return FeatureMatrix(
        {
            "visual_subject": rng.standard_normal((batch, config.visual_dim)),
            "visual_object": rng.standard_normal((batch, config.visual_dim)),
            "visual_union": rng.standard_normal((batch, config.visual_dim)),
            "spatial": rng.uniform(-1, 1, size=(batch, 8)),
            "external_subject": rng.standard_normal((batch, config.embedding_dim)),
            "external_object": rng.standard_normal((batch, config.embedding_dim)),
            "internal": internal,
        }
    )


def random_batch(config, rng, batch=6):
    features = random_features(config, batch, rng)
    labels = np.zeros((batch, config.predicate_count))
    mask = np.zeros(batch, dtype=bool)
    mask[: batch // 2] = True
    for b in range(batch // 2):
        labels[b, rng.integers(config.predicate_count)] = 1.0
    return features, labels, mask


def check_model_gradients(model, features, labels, mask, tolerance=1e-4):
    _, _, grads = model.loss_and_gradients(features, labels, mask)
    params = model.parameters()

    def loss_fn(block):
        return model.loss(features, labels, mask)

    # step 1e-6: small enough that relu kink crossings are vanishingly rare,
    # large enough that float64 roundoff stays orders below the tolerance.
    return gradient_check(loss_fn, params, grads, tolerance=tolerance, step=1e-6)


def test_config_defaults():
    config = ModelConfig(predicate_count=70, object_count=100)
    assert config.visual_dim == 4096
    assert config.embedding_dim == 300
    assert config.transform_dim == 500
    assert config.dc_hidden_dim == 100
    assert config.rel_hidden_dim == 500
    assert config.dc_undetermined_weight == 1.0
    assert config.rel_undetermined_weight == 0.5
    assert config.dc_loss_weight == 1.0
    assert config.enabled_modals == ALL_MODALS
    assert config.fusion_mode == "transforming"
    assert not config.im_mode


def test_fused_dim_three_modals_transforming():
    config = ModelConfig(
        predicate_count=70, object_count=100, visual_dim=16, embedding_dim=8,
        transform_dim=500,
    )
    net = build_model(config, np.random.default_rng(0)).networks["union"]
    features = random_features(config, 2, np.random.default_rng(1))
    assert net.fuse_features(features).shape == (2, 1500)
    _, rel = net.forward(features)
    assert rel.shape == (2, 70)


def test_fused_dim_single_modal():
    config = toy_config(enabled_modals=("spatial",), transform_dim=500)
    net = build_model(config, np.random.default_rng(0)).networks["union"]
    features = random_features(config, 3, np.random.default_rng(1))
    assert net.fuse_features(features).shape == (3, 500)


def test_dc_forward_range_and_zero_weights():
    config = toy_config()
    net = build_model(config, np.random.default_rng(0)).networks["union"]
    features = random_features(config, 4, np.random.default_rng(1))
    fused = net.fuse_features(features)
    dc = net.dc_forward(fused)
    assert np.all((dc > 0) & (dc < 1))
    net.layers["dc.hidden"].weight[...] = 0.0
    net.layers["dc.hidden"].bias[...] = 0.0
    net.layers["dc.out"].weight[...] = 0.0
    net.layers["dc.out"].bias[...] = 0.0
    np.testing.assert_allclose(net.dc_forward(fused), 0.5)


def test_rel_forward_shape_and_zero_head():
    config = toy_config()
    net = build_model(config, np.random.default_rng(0)).networks["union"]
    features = random_features(config, 4, np.random.default_rng(1))
    dc, rel = net.forward(features)
    assert rel.shape == (4, config.predicate_count)
    assert np.all((rel > 0) & (rel < 1))
    net.layers["rel.out"].weight[...] = 0.0
    net.layers["rel.out"].bias[...] = 0.0
    _, rel = net.forward(features)
    np.testing.assert_allclose(rel, 0.5)


def test_rel_forward_sensitive_to_dc_signal():
    config = toy_config()
    net = build_model(config, np.random.default_rng(0)).networks["union"]
    features = random_features(config, 2, np.random.default_rng(1))
    fused = net.fuse_features(features)
    low = net.rel_forward(fused, np.full((2, 1), 0.1))
    high = net.rel_forward(fused, np.full((2, 1), 0.9))
    assert np.abs(low - high).max() > 1e-6


def test_joint_loss_hand_example():
    # One determinate pair, every prediction 0.5, M=2, one positive label.
    config = ModelConfig(predicate_count=2, object_count=2, visual_dim=2, embedding_dim=2)
    dc = np.array([0.5])
    rel = np.full((1, 2), 0.5)
    labels = np.array([[1.0, 0.0]])
    mask = np.array([True])
    total, terms = joint_loss(dc, rel, labels, mask, config)
    assert terms["rel_determinate"] == pytest.approx(2 * math.log(2), abs=1e-12)
    assert terms["dc_determinate"] == pytest.approx(math.log(2), abs=1e-12)
    assert terms["rel_undetermined"] == 0.0
    assert terms["dc_undetermined"] == 0.0


def test_joint_loss_collapses_when_weights_zero():
    config = toy_config(rel_undetermined_weight=0.0, dc_loss_weight=0.0)
    rng = np.random.default_rng(0)
    dc = rng.uniform(0.1, 0.9, size=6)
    rel = rng.uniform(0.1, 0.9, size=(6, config.predicate_count))
    labels = (rng.random((6, config.predicate_count)) < 0.3).astype(float)
    mask = np.array([True, True, True, False, False, False])
    total, terms = joint_loss(dc, rel, labels, mask, config)
    assert total == pytest.approx(terms["rel_determinate"], abs=1e-15)


def test_joint_loss_breakdown_recombines():
    config = toy_config(rel_undetermined_weight=0.37, dc_loss_weight=2.25,
                        dc_undetermined_weight=0.6)
    rng = np.random.default_rng(1)
    dc = rng.uniform(0.05, 0.95, size=8)
    rel = rng.uniform(0.05, 0.95, size=(8, config.predicate_count))
    labels = (rng.random((8, config.predicate_count)) < 0.4).astype(float)
    mask = rng.random(8) < 0.5
    total, terms = joint_loss(dc, rel, labels, mask, config)
    expected = (
        terms["rel_determinate"]
        + 0.37 * terms["rel_undetermined"]
        + 2.25 * terms["dc_determinate"]
        + 2.25 * 0.6 * terms["dc_undetermined"]
    )
    assert total == pytest.approx(expected, abs=1e-15)


def test_dc_loss_symmetry_on_mirrored_batches():
    # CE(q, 1) on a determinate pair equals CE(1-q, 0) on an undetermined one,
    # and with unit undetermined weight both terms enter the loss equally.
    config = toy_config()
    q = 0.73
    rel = np.full((1, config.predicate_count), 0.5)
    zeros = np.zeros((1, config.predicate_count))
    _, det_terms = joint_loss(np.array([q]), rel, zeros, np.array([True]), config)
    _, und_terms = joint_loss(np.array([1 - q]), rel, zeros, np.array([False]), config)
    assert det_terms["dc_determinate"] == pytest.approx(und_terms["dc_undetermined"], abs=1e-12)


def test_score_relation_identity_and_scaling():
    rel = np.array([[0.2, 0.7, 0.1], [0.2, 0.7, 0.1]])
    ones = np.ones(2)
    scores = score_relations(rel, np.array([1.0, 0.5]), ones, ones)
    np.testing.assert_allclose(scores, [[0.2, 0.7, 0.1], [0.1, 0.35, 0.05]])


def test_score_relation_argmax_invariant():
    # Per-pair scaling never changes which predicate a pair ranks first.
    rng = np.random.default_rng(5)
    probs = rng.uniform(0.01, 0.99, size=(20, 6))
    for _ in range(2):
        dc, subj, obj = rng.uniform(0.01, 1, size=(3, 20))
        scores = score_relations(probs, dc, subj, obj)
        np.testing.assert_array_equal(scores.argmax(axis=1), probs.argmax(axis=1))


def test_full_graph_gradient_check_transforming():
    config = toy_config()
    rng = np.random.default_rng(0)
    net = build_model(config, rng)
    features, labels, mask = random_batch(config, rng)
    report = check_model_gradients(net, features, labels, mask)
    assert report.passed, report.lines()


def test_full_graph_gradient_check_concatenating():
    config = toy_config(fusion_mode="concatenating")
    rng = np.random.default_rng(1)
    net = build_model(config, rng)
    features, labels, mask = random_batch(config, rng)
    report = check_model_gradients(net, features, labels, mask)
    assert report.passed, report.lines()


def test_gradient_check_dc_hidden_feed():
    config = toy_config(dc_feed="hidden")
    rng = np.random.default_rng(2)
    net = build_model(config, rng)
    features, labels, mask = random_batch(config, rng)
    report = check_model_gradients(net, features, labels, mask)
    assert report.passed, report.lines()


@pytest.mark.parametrize("subset_index", range(len(MODAL_SUBSETS)))
@pytest.mark.parametrize("fusion", ["transforming", "concatenating"])
def test_gradient_check_modal_subsets(subset_index, fusion):
    modals = MODAL_SUBSETS[subset_index]
    config = toy_config(enabled_modals=tuple(modals), fusion_mode=fusion)
    rng = np.random.default_rng(1000 + 2 * subset_index + (fusion == "concatenating"))
    net = build_model(config, rng)
    features, labels, mask = random_batch(config, rng, batch=4)
    report = check_model_gradients(net, features, labels, mask)
    assert report.passed, report.lines()


def test_gradient_check_im_mode():
    config = toy_config(im_mode=True)
    rng = np.random.default_rng(3)
    model = build_model(config, rng)
    features, labels, mask = random_batch(config, rng, batch=4)
    report = check_model_gradients(model, features, labels, mask)
    assert report.passed, report.lines()


# ----------------------------------------------------------------------
# Finite differences from a reference: only the perturbed layer and the
# layers downstream of it run.
# ----------------------------------------------------------------------

SLICED_CASES = {
    "union": dict(),
    "im": dict(im_mode=True),
    "concatenating": dict(fusion_mode="concatenating"),
    "hidden-feed": dict(dc_feed="hidden"),
    "im-concatenating": dict(im_mode=True, fusion_mode="concatenating"),
    "im-hidden-feed": dict(im_mode=True, dc_feed="hidden"),
}


@pytest.mark.parametrize("variant", list(SLICED_CASES))
def test_sliced_loss_equals_the_in_place_loss_at_every_coordinate(variant):
    config = toy_config(**SLICED_CASES[variant])
    model, features, labels, mask = make_gradient_check_problem(
        config, np.random.default_rng(31)
    )
    loss = sliced_loss(model, features, labels, mask)
    step = 1e-6
    for name, block in model.parameters().items():
        flat = block.reshape(-1)  # a view: arena blocks are contiguous
        for i in range(flat.size):
            orig = flat[i]
            for value in (orig + step, orig - step):
                flat[i] = value
                assert loss(name) == model.loss(features, labels, mask), (name, i, value)
            flat[i] = orig


@pytest.mark.parametrize("variant", list(SLICED_CASES))
def test_sliced_and_in_place_gradient_checks_report_the_same_errors(variant):
    config = toy_config(**SLICED_CASES[variant])
    model, features, labels, mask = make_gradient_check_problem(
        config, np.random.default_rng(32)
    )
    _, _, grads = model.loss_and_gradients(features, labels, mask)
    sliced = gradient_check(
        sliced_loss(model, features, labels, mask), model.parameters(), grads, step=1e-6
    )
    in_place = gradient_check(
        lambda block: model.loss(features, labels, mask), model.parameters(), grads, step=1e-6
    )
    assert sliced.passed
    assert sliced.block_errors == in_place.block_errors


@pytest.mark.parametrize("im_mode", [False, True], ids=["union", "im"])
def test_reference_outputs_are_read_only(im_mode):
    config = toy_config(im_mode=im_mode)
    model, features, _, _ = make_gradient_check_problem(config, np.random.default_rng(33))
    reference = model.reference(features)
    assert list(reference) == list(model.networks)
    for outputs in reference.values():
        assert {"fused", "dc_probs", "rel_probs"} <= set(outputs)
        for output in outputs.values():
            with pytest.raises(ValueError, match="read-only"):
                output[...] = 0.0


def test_a_forward_from_a_reference_keeps_nothing_for_backward():
    model, features, labels, mask = make_gradient_check_problem(
        toy_config(), np.random.default_rng(34)
    )
    net = model.networks["union"]
    reference = net.reference(features)
    dc, rel = net.forward(features, reference, None)
    assert dc is reference["dc_probs"] and rel is reference["rel_probs"]
    net.forward(features, reference, "fuse.visual")
    with pytest.raises(StateError):
        net.backward(rel, dc)


def test_sliced_gradient_check_runs_few_layers_per_loss(monkeypatch):
    # Weighted by each block's parameters, the layers a perturbation reruns
    # average 4.64 on the union TOY network, of its 14.
    model, features, labels, mask = make_gradient_check_problem(
        toy_config(), np.random.default_rng(35)
    )
    _, _, grads = model.loss_and_gradients(features, labels, mask)
    loss = sliced_loss(model, features, labels, mask)
    counts = {"forward": 0, "loss": 0}
    forward = DenseLayer.forward

    def counted_forward(layer, x):
        counts["forward"] += 1
        return forward(layer, x)

    def counted_loss(block):
        counts["loss"] += 1
        return loss(block)

    monkeypatch.setattr(DenseLayer, "forward", counted_forward)
    report = gradient_check(counted_loss, model.parameters(), grads, step=1e-6)
    assert report.passed, report.lines()
    assert counts["loss"] == 2 * model.parameters().flat.size
    assert counts["forward"] / counts["loss"] <= 5.0, counts


@pytest.mark.parametrize(
    "im_mode, block",
    [
        (False, "rel.out.weight"),
        (True, "union.fuse.visual.weight"),
        (True, "subject.dc.out.bias"),
        (True, "object.transform.spatial.weight"),
    ],
    ids=["union", "im-union", "im-subject", "im-object"],
)
def test_a_sliced_loss_value_runs_one_joint_loss_and_each_forward_once(
    monkeypatch, im_mode, block
):
    # The networks that hold no perturbed block add their reference losses,
    # but each network still runs forward once per value.
    model, features, labels, mask = make_gradient_check_problem(
        toy_config(im_mode=im_mode), np.random.default_rng(36)
    )
    loss = sliced_loss(model, features, labels, mask)
    model.parameters()[block].reshape(-1)[0] += 1e-3
    calls = {"joint_loss": 0, "forward": []}
    joint, forward = urelnet.model.joint_loss, RelationNetwork.forward

    def counted_joint(*args):
        calls["joint_loss"] += 1
        return joint(*args)

    def counted_forward(net, *args):
        calls["forward"].append(net.role)
        return forward(net, *args)

    monkeypatch.setattr(urelnet.model, "joint_loss", counted_joint)
    monkeypatch.setattr(RelationNetwork, "forward", counted_forward)
    value = loss(block)
    assert calls == {"joint_loss": 1, "forward": list(model.networks)}
    assert value == model.loss(features, labels, mask)


def test_gradient_flows_into_fusion_from_dc():
    config = toy_config()
    rng = np.random.default_rng(4)
    net = build_model(config, rng).networks["union"]
    features, labels, mask = random_batch(config, rng)
    # Only the confidence loss: relation gradients switched off.
    dc, rel = net.forward(features)
    d_rel = np.zeros_like(rel)
    d_dc = (dc - mask.astype(float)) / len(dc)
    grads = net.backward(d_rel, d_dc)
    assert np.abs(grads["transform.visual_subject.weight"]).max() > 0


def test_backward_checks_its_inputs():
    config = toy_config()
    net = build_model(config, np.random.default_rng(11)).networks["union"]
    with pytest.raises(StateError):
        net.backward(np.zeros((2, config.predicate_count)), np.zeros(2))
    features, _, _ = random_batch(config, np.random.default_rng(12), batch=2)
    dc, rel = net.forward(features)
    with pytest.raises(DimensionError, match="head gradients"):
        net.backward(rel, dc[:, None])


def _stage_widths(config):
    """Total output width of each layer stage: the two fusion stages, then
    the four head layers."""
    plan = layer_plan(config)
    stage1 = sum(out for name, _, out, _ in plan if name.startswith(("transform.", "concat.stage1")))
    stage2 = sum(out for name, _, out, _ in plan if name.startswith(("fuse.", "concat.stage2")))
    return [stage1, stage2] + [out for name, _, out, _ in plan if name.startswith(("dc.", "rel."))]


def test_modes_have_identical_stage_widths():
    for modals in MODAL_SUBSETS:
        a = _stage_widths(toy_config(enabled_modals=tuple(modals)))
        b = _stage_widths(toy_config(enabled_modals=tuple(modals), fusion_mode="concatenating"))
        assert len(a) == 6
        assert a == b


def test_disabling_modal_removes_exactly_its_parameters():
    full = build_model(toy_config(), np.random.default_rng(0))
    no_spatial = build_model(
        toy_config(enabled_modals=("visual", "linguistic_external", "linguistic_internal")),
        np.random.default_rng(0),
    )
    removed = set(full.parameters()) - set(no_spatial.parameters())
    assert removed == {
        "transform.spatial.weight",
        "transform.spatial.bias",
        "fuse.spatial.weight",
        "fuse.spatial.bias",
    }


@pytest.mark.parametrize("kind", ["union", "im"])
def test_wiring_draws_nothing_and_checks_the_layout(kind):
    config = toy_config(im_mode=kind == "im")
    shapes = model_shapes(config)
    model = wire_model(config, Arena(shapes))
    assert not model.parameters().flat.any()
    if kind == "union":
        net = RelationNetwork(config, Arena(shapes), Arena(shapes))
        assert not any(layer.weight.any() for layer in net.layers.values())
    wrong = {**shapes, "extra.bias": (1,)}
    with pytest.raises(DimensionError, match="layout"):
        wire_model(config, Arena(wrong))


def test_im_mode_requires_flag(tmp_path):
    # One model class: the flag alone decides its networks, whichever of
    # build_model, wire_model and load_model makes it.
    from urelnet.checkpoint import load_model, save_checkpoint

    for im_mode, roles in ((False, ["union"]), (True, list(NETWORK_ROLES))):
        config = toy_config(im_mode=im_mode)
        built = build_model(config, np.random.default_rng(0))
        save_checkpoint(tmp_path / "model.bin", config, built.parameters())
        wired = wire_model(config, Arena(model_shapes(config)))
        for model in (built, wired, load_model(tmp_path / "model.bin")):
            assert isinstance(model, Model)
            assert list(model.networks) == roles


def test_im_auxiliary_networks_use_reduced_streams():
    config = toy_config(im_mode=True)
    spec = dict(stream_spec(config, "subject"))
    assert spec["visual"] == ["visual_subject"]
    assert spec["linguistic"] == ["external_subject"]
    spec_o = dict(stream_spec(config, "object"))
    assert spec_o["visual"] == ["visual_object"]
    assert "internal" not in [s for streams in spec_o.values() for s in streams]


def test_im_combine_identity():
    # IM score = union score x (rel x dc) of each auxiliary network.
    rng = np.random.default_rng(10)
    config = toy_config(im_mode=True)
    model = build_model(config, rng)
    features, _, _ = random_batch(config, rng, batch=5)
    subj, obj = rng.uniform(0.1, 1.0, size=(2, 5))
    combined = model.relation_scores(features, subj, obj)
    outputs = model.forward(features)
    dc_u, rel_u = outputs["union"]
    expected = score_relations(rel_u, dc_u, subj, obj)
    for role in ("subject", "object"):
        dc, rel = outputs[role]
        expected = expected * (rel * dc[:, None])
    np.testing.assert_allclose(combined, expected, rtol=1e-12, atol=0)


def test_im_combined_bounded_by_factors():
    rng = np.random.default_rng(6)
    config = toy_config(im_mode=True)
    model = build_model(config, rng)
    features, _, _ = random_batch(config, rng, batch=5)
    confs = np.ones(5)
    combined = model.relation_scores(features, confs, confs)
    dc_u, rel_u = model.networks["union"].forward(features)
    union_only = score_relations(rel_u, dc_u, confs, confs)
    assert np.all(combined <= union_only + 1e-15)


def test_im_loss_is_sum_of_network_losses():
    rng = np.random.default_rng(7)
    config = toy_config(im_mode=True)
    model = build_model(config, rng)
    features, labels, mask = random_batch(config, rng, batch=4)
    total, terms, _ = model.loss_and_gradients(features, labels, mask)
    assert total == pytest.approx(
        terms["union.loss"] + terms["subject.loss"] + terms["object.loss"], abs=1e-12
    )


def test_im_union_loss_equals_non_im_loss():
    rng = np.random.default_rng(8)
    config = toy_config(im_mode=True)
    model = build_model(config, rng)
    features, labels, mask = random_batch(config, rng, batch=4)
    _, terms, _ = model.loss_and_gradients(features, labels, mask)
    # A plain network adopts the union section of the IM arena as it stands.
    plain = wire_model(toy_config(), model.networks["union"].params)
    plain_loss, _, _ = plain.loss_and_gradients(features, labels, mask)
    assert terms["union.loss"] == pytest.approx(plain_loss, abs=1e-12)


@pytest.mark.parametrize("im_mode", [False, True])
def test_forward_only_loss_equals_loss_and_gradients(im_mode):
    rng = np.random.default_rng(10)
    config = toy_config(im_mode=im_mode)
    model = build_model(config, rng)
    features, labels, mask = random_batch(config, rng, batch=5)
    expected, _, _ = model.loss_and_gradients(features, labels, mask)
    assert model.loss(features, labels, mask) == expected


def test_loss_gradients_vanish_for_missing_status():
    # All-determinate batch: undetermined terms contribute nothing.
    config = toy_config()
    rng = np.random.default_rng(9)
    net = build_model(config, rng)
    features, labels, _ = random_batch(config, rng, batch=4)
    mask = np.ones(4, dtype=bool)
    report = check_model_gradients(net, features, labels, mask)
    assert report.passed, report.lines()


ARENA_CONFIGS = {
    "union": toy_config(),
    "im": toy_config(im_mode=True),
    "concatenating": toy_config(fusion_mode="concatenating"),
}


@pytest.mark.parametrize("kind", sorted(ARENA_CONFIGS))
def test_parameters_and_gradients_are_views_into_one_arena(kind):
    model = build_model(ARENA_CONFIGS[kind], np.random.default_rng(0))
    for arena in (model.parameters(), model.gradients()):
        assert list(arena) == sorted(arena)
        offset = 0
        for name, block in arena.items():
            # Each block is the next span of the flat buffer, in sorted-name order.
            assert np.shares_memory(block, arena.flat), name
            start = (block.__array_interface__["data"][0]
                     - arena.flat.__array_interface__["data"][0]) // 8
            assert start == offset, name
            offset += block.size
        assert offset == arena.flat.size
    params, grads = model.parameters(), model.gradients()
    assert not np.shares_memory(params.flat, grads.flat)
    for role, net in model.networks.items():
        prefix = f"{role}." if model.config.im_mode else ""
        for name, layer in net.layers.items():
            assert model.layers[f"{prefix}{name}"] is layer
            assert layer.weight is net.params[f"{name}.weight"]
            assert layer.grad_bias is net.grads[f"{name}.bias"]
            assert np.shares_memory(layer.weight, params[f"{prefix}{name}.weight"])
            assert np.shares_memory(layer.grad_weight, grads[f"{prefix}{name}.weight"])
            assert np.shares_memory(layer.bias, params.flat)
            assert np.shares_memory(layer.grad_bias, grads.flat)


@pytest.mark.parametrize("kind", sorted(ARENA_CONFIGS))
def test_backward_writes_into_the_gradient_arena(kind):
    config = ARENA_CONFIGS[kind]
    rng = np.random.default_rng(3)
    model = build_model(config, rng)
    features, labels, mask = random_batch(config, rng)
    _, _, grads = model.loss_and_gradients(features, labels, mask)
    assert grads is model.gradients()
    before = grads.flat.copy()
    for net in model.networks.values():
        for layer in net.layers.values():
            assert layer.grad_weight.any()
    features2, labels2, mask2 = random_batch(config, np.random.default_rng(4))
    _, _, again = model.loss_and_gradients(features2, labels2, mask2)
    assert again is grads
    assert not np.array_equal(before, grads.flat)


@pytest.mark.parametrize("kind", sorted(ARENA_CONFIGS))
def test_initial_weights_are_the_per_layer_glorot_draws(kind):
    # Reference: one rng.uniform draw per layer, in layer creation order
    # (union, subject, object networks), biases zero.
    config = ARENA_CONFIGS[kind]
    model = build_model(config, np.random.default_rng(5))
    rng = np.random.default_rng(5)
    for net in model.networks.values():
        for layer in net.layers.values():
            out_dim, in_dim = layer.weight.shape
            bound = math.sqrt(6.0 / (in_dim + out_dim))
            expected = rng.uniform(-bound, bound, size=(out_dim, in_dim))
            assert np.array_equal(layer.weight, expected)
            assert not layer.bias.any()


@pytest.mark.parametrize("kind", sorted(ARENA_CONFIGS))
def test_arena_flat_is_the_checkpoint_payload(kind, tmp_path):
    from urelnet.checkpoint import save_checkpoint

    model = build_model(ARENA_CONFIGS[kind], np.random.default_rng(6))
    path = tmp_path / "model.bin"
    save_checkpoint(path, model.config, model.parameters())
    payload = model.parameters().flat.astype("<f8").tobytes()
    assert path.read_bytes().endswith(payload)


def _reference_joint_loss(dc_probs, rel_probs, labels, mask, config):
    """The loss and head gradients computed on every row, then masked."""
    det = np.asarray(mask, dtype=bool)
    und = ~det
    n_det, n_und = int(det.sum()), int(und.sum())
    pos = sigmoid_ce(rel_probs, labels).sum(axis=1)
    neg = sigmoid_ce(rel_probs, np.zeros_like(rel_probs)).sum(axis=1)
    terms = {
        "rel_determinate": float(pos[det].mean()) if n_det else 0.0,
        "rel_undetermined": float(neg[und].mean()) if n_und else 0.0,
        "dc_determinate": float(sigmoid_ce(dc_probs[det], 1.0).mean()) if n_det else 0.0,
        "dc_undetermined": float(sigmoid_ce(dc_probs[und], 0.0).mean()) if n_und else 0.0,
    }
    d_rel = np.where(
        det[:, None],
        (rel_probs - labels) / max(n_det, 1),
        config.rel_undetermined_weight * rel_probs / max(n_und, 1),
    )
    d_dc = np.where(
        det,
        config.dc_loss_weight * (dc_probs - 1.0) / max(n_det, 1),
        config.dc_loss_weight * config.dc_undetermined_weight * dc_probs / max(n_und, 1),
    )
    return terms, d_rel, d_dc


@pytest.mark.parametrize("batch", [1, 7, 32])
def test_status_row_loss_equals_full_batch_reference(batch):
    config = toy_config(rel_undetermined_weight=0.37, dc_loss_weight=1.5)
    rng = np.random.default_rng(batch)
    for trial in range(20):
        dc = rng.uniform(0.0, 1.0, size=batch)
        rel = rng.uniform(0.0, 1.0, size=(batch, config.predicate_count))
        rel[rng.random(rel.shape) < 0.05] = rng.choice([0.0, 1.0])
        labels = (rng.random(rel.shape) < 0.3).astype(float)
        mask = rng.random(batch) < [0.0, 1.0, 0.3][trial % 3]
        terms_ref, d_rel_ref, d_dc_ref = _reference_joint_loss(dc, rel, labels, mask, config)
        for status in (mask, BatchStatus.of(mask)):
            _, terms = joint_loss(dc, rel, labels, status, config)
            d_rel, d_dc = joint_loss_gradients(dc, rel, labels, status, config)
            assert terms == terms_ref
            assert np.array_equal(d_rel, d_rel_ref)
            assert np.array_equal(d_dc, d_dc_ref)


# ----------------------------------------------------------------------
# One-box streams held per object: transformed once, gathered to the pairs.
# ----------------------------------------------------------------------

MID = dict(visual_dim=96, embedding_dim=20, transform_dim=40, dc_hidden_dim=16, rel_hidden_dim=40)

PER_OBJECT_CASES = [
    dict(),
    dict(dc_feed="hidden"),
    dict(im_mode=True),
    dict(im_mode=True, dc_feed="hidden"),
    dict(enabled_modals=("spatial", "linguistic_external", "linguistic_internal")),
    dict(im_mode=True, enabled_modals=("spatial", "linguistic_external")),
]
PER_OBJECT_IDS = ["union", "union-hidden", "im", "im-hidden", "union-no-visual", "im-no-visual"]


def per_object_features(config, objects, rng):
    """Features of every ordered pair of ``objects`` objects, once with the
    one-box streams held per object (``FeatureMatrix.objects``: each
    object's row of a larger shared table) and indexed by the pairs' roles,
    once with every stream gathered to one row per pair."""
    subjects, objs = pair_indices(objects)
    per_pair = random_features(config, len(subjects), rng)
    tables = random_features(config, objects + 3, rng)
    rows = rng.permutation(objects + 3)[:objects]
    streams, index, per_object = dict(per_pair.streams), {}, {}
    for name, role in ONE_BOX_STREAMS.items():
        streams[name] = tables[name]
        per_object[name] = rows
        index[name] = subjects if role == "subject" else objs
    factored = FeatureMatrix(streams, index, per_object)
    return factored, FeatureMatrix({name: factored[name] for name in streams})


@pytest.mark.parametrize("overrides", PER_OBJECT_CASES, ids=PER_OBJECT_IDS)
def test_per_object_streams_score_as_per_pair_rows(overrides):
    # GEMMs over D object rows round like those over P pair rows only up to
    # the last bits, so the scores agree to a relative 1e-12.
    rng = np.random.default_rng(21)
    config = toy_config(**MID, **overrides)
    model = build_model(config, rng)
    for objects in (2, 9):
        factored, per_pair = per_object_features(config, objects, rng)
        assert factored.count == per_pair.count == objects * (objects - 1)
        subj, obj = rng.uniform(0.1, 1.0, size=(2, factored.count))
        got = model.relation_scores(factored, subj, obj)
        expected = model.relation_scores(per_pair, subj, obj)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)


@pytest.mark.parametrize("im_mode", [False, True], ids=["union", "im"])
def test_concatenating_mode_reads_per_object_streams_bit_for_bit(im_mode):
    rng = np.random.default_rng(22)
    config = toy_config(**MID, fusion_mode="concatenating", im_mode=im_mode)
    model = build_model(config, rng)
    factored, per_pair = per_object_features(config, 7, rng)
    subj, obj = rng.uniform(0.1, 1.0, size=(2, factored.count))
    got = model.relation_scores(factored, subj, obj)
    assert got.tobytes() == model.relation_scores(per_pair, subj, obj).tobytes()


@pytest.mark.parametrize("im_mode", [False, True], ids=["union", "im"])
def test_backward_after_a_per_object_forward_raises(im_mode):
    rng = np.random.default_rng(23)
    config = toy_config(**MID, im_mode=im_mode)
    model = build_model(config, rng)
    factored, per_pair = per_object_features(config, 4, rng)
    labels = np.zeros((factored.count, config.predicate_count))
    labels[0, 1] = 1.0
    mask = labels.any(axis=1)
    with pytest.raises(StateError, match="once per object"):
        model.loss_and_gradients(factored, labels, mask)
    net = model.networks["union"]
    dc, rel = net.forward(factored)
    with pytest.raises(StateError, match="once per object"):
        net.backward(rel, dc)
    # A per-pair forward backpropagates again.
    model.loss_and_gradients(per_pair, labels, mask)
