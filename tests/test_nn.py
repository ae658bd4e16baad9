import math

import numpy as np
import pytest

from urelnet.errors import DimensionError, DivergenceError, StateError
from urelnet.features import FeatureMatrix
from urelnet.model import ModelConfig, make_gradient_check_problem
from urelnet.nn import (
    ADAM_CHUNK,
    AdamState,
    Arena,
    DenseLayer,
    GradientCheckReport,
    adam_step,
    finite_difference_gradients,
    gradient_check,
    sigmoid,
    sigmoid_ce,
)


def test_identity_layer_passthrough():
    layer = DenseLayer(np.eye(3), np.zeros(3), "identity")
    x = np.array([[1.0, -2.0, 3.0]])
    np.testing.assert_array_equal(layer.forward(x), x)


def test_relu_clips_negative_preactivation():
    layer = DenseLayer(np.eye(2), np.zeros(2), "relu")
    np.testing.assert_array_equal(layer.forward(np.array([[-1.0, 2.0]])), [[0.0, 2.0]])


def test_forward_shape_mismatch():
    # Stream widths are checked at the model boundary, not by each layer.
    model, features, _, _ = _toy_problem(0)
    spatial = features["spatial"]
    for bad in (spatial[:, :7], spatial[:3], spatial[0]):
        wrong = FeatureMatrix({**features.streams, "spatial": bad})
        with pytest.raises(DimensionError, match="spatial"):
            model.forward(wrong)


def test_backward_before_forward_is_state_error():
    layer = DenseLayer(np.eye(2), np.zeros(2))
    with pytest.raises(StateError):
        layer.backward(np.zeros((1, 2)))


def _masked_sigmoid(x):
    """The two-branch formula with a boolean-mask scatter, as sigmoid once was."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_equals_the_masked_formula_byte_for_byte():
    edges = [0.0, -0.0, math.inf, -math.inf, 745.0, -745.0, 1e308, -1e308, 5e-324, -5e-324,
             2.2250738585072014e-308, -2.2250738585072014e-308, 709.8, -709.8, 36.7, -36.7]
    rng = np.random.default_rng(0)
    x = np.concatenate([edges, rng.standard_normal(50_000) * 40, rng.standard_normal(50_000)])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        assert sigmoid(x).tobytes() == _masked_sigmoid(x).tobytes()
        matrix = x[: 300 * 26].reshape(300, 26)
        assert sigmoid(matrix).tobytes() == _masked_sigmoid(matrix).tobytes()
    assert sigmoid(2.0).shape == ()


def test_forward_blocks_equals_forward_on_the_gathered_concatenation():
    rng = np.random.default_rng(3)
    layer = DenseLayer(rng.standard_normal((5, 7)), rng.standard_normal(5), "relu")
    objects, pairs = rng.standard_normal((3, 4)), rng.standard_normal((6, 3))
    at = np.array([2, 0, 1, 1, 2, 0])
    whole = layer.forward(np.concatenate([objects[at], pairs], axis=1))
    blocked = layer.forward_blocks([(objects, at), (pairs, None)])
    np.testing.assert_allclose(blocked, whole, rtol=1e-12, atol=1e-15)
    with pytest.raises(StateError):  # nothing was kept for backward
        layer.backward(np.ones((6, 5)))


def test_sigmoid_ce_values():
    assert sigmoid_ce(0.5, 1) == pytest.approx(math.log(2), abs=1e-12)
    assert sigmoid_ce(0.5, 0) == pytest.approx(math.log(2), abs=1e-12)
    assert sigmoid_ce(1.0 - 1e-12, 1) == pytest.approx(0.0, abs=1e-6)
    # Clamp keeps the loss finite at the boundary.
    assert np.isfinite(sigmoid_ce(0.0, 1))
    assert np.isfinite(sigmoid_ce(1.0, 0))


def test_fused_sigmoid_ce_gradient_identity():
    # d(CE(sigmoid(z), y))/dz == p - y for a single sigmoid output.
    rng = np.random.default_rng(0)
    layer = DenseLayer(rng.standard_normal((1, 3)), rng.standard_normal(1), "identity")
    x = rng.standard_normal((1, 3))
    z = layer.forward(x)
    p = sigmoid(z)
    y = 1.0
    layer.backward(p - y)  # fused gradient applied to the logits

    def loss(block):
        return float(sigmoid_ce(sigmoid(layer.forward(x)), y)[0, 0])

    numeric = finite_difference_gradients(loss, {"w": layer.weight, "b": layer.bias})
    np.testing.assert_allclose(layer.grad_weight, numeric["w"], atol=1e-8)
    np.testing.assert_allclose(layer.grad_bias, numeric["b"], atol=1e-8)


def test_zero_upstream_gradient_gives_zero_grads():
    rng = np.random.default_rng(1)
    layer = DenseLayer(rng.standard_normal((4, 3)), rng.standard_normal(4), "relu")
    layer.forward(rng.standard_normal((5, 3)))
    grad_in = layer.backward(np.zeros((5, 4)))
    assert not layer.grad_weight.any()
    assert not layer.grad_bias.any()
    assert not grad_in.any()


def _toy_problem(seed):
    """Small relation network with a batch clear of relu kinks."""
    config = ModelConfig(
        predicate_count=3, object_count=3, visual_dim=4, embedding_dim=3,
        transform_dim=3, dc_hidden_dim=3, rel_hidden_dim=4,
    )
    return make_gradient_check_problem(config, np.random.default_rng(seed))


def test_network_gradients_match_finite_differences():
    model, features, labels, mask = _toy_problem(2)
    _, _, grads = model.loss_and_gradients(features, labels, mask)
    report = gradient_check(
        lambda block: model.loss(features, labels, mask),
        model.parameters(), grads, tolerance=1e-4,
    )
    assert report.passed, report.lines()


def test_gradient_check_trivially_passes_on_constant_loss():
    # Identity network with a loss that never moves: all gradients zero.
    layer = DenseLayer(np.eye(3), np.zeros(3), "identity")
    layer.forward(np.ones((1, 3)))
    report = gradient_check(
        lambda block: 0.0,
        {"w": layer.weight, "b": layer.bias},
        {"w": np.zeros((3, 3)), "b": np.zeros(3)},
        tolerance=1e-4,
    )
    assert report.passed
    assert report.max_error == 0.0


def test_gradient_check_detects_corruption():
    model, features, labels, mask = _toy_problem(3)
    _, _, grads = model.loss_and_gradients(features, labels, mask)
    grads["rel.hidden.weight"][...] *= 2.0
    report = gradient_check(
        lambda block: model.loss(features, labels, mask),
        model.parameters(), grads, tolerance=1e-4,
    )
    assert not report.passed
    assert report.worst_block == "rel.hidden.weight"


@pytest.mark.parametrize(
    "errors, worst",
    [
        ({"a": math.nan, "b": 0.0, "c": 2.0}, "a"),
        ({"a": 0.0, "b": math.nan, "c": 2.0, "d": math.nan}, "b"),
        ({"a": 3.0, "b": math.inf, "c": math.nan}, "c"),
    ],
    ids=["nan-first", "nan-later", "nan-after-inf"],
)
def test_a_nan_block_error_fails_the_report_and_is_its_worst_block(errors, worst):
    report = GradientCheckReport(errors, tolerance=1e-4)
    assert not report.passed
    assert report.worst_block == worst
    assert math.isnan(report.max_error)
    assert report.lines()[-1] == (
        f"FAIL: max nan over {len(errors)} blocks (tolerance 1.0e-04, worst {worst!r})"
    )


def test_gradient_check_fails_on_a_nan_loss_in_a_later_block():
    zeros = {"a": np.zeros(2), "b": np.zeros(2)}
    report = gradient_check(
        lambda name: math.nan if name == "b" else 0.0, zeros, zeros, tolerance=1e-4
    )
    assert report.block_errors["a"] == 0.0
    assert not report.passed
    assert report.worst_block == "b"
    assert report.lines()[-1] == "FAIL: max nan over 2 blocks (tolerance 1.0e-04, worst 'b')"


def test_finite_reports_take_the_first_largest_error():
    errors = {"a": 1e-7, "b": 3e-5, "c": 3e-5, "d": 0.0}
    report = GradientCheckReport(errors, tolerance=1e-4)
    assert report.passed
    assert (report.worst_block, report.max_error) == ("b", 3e-5)
    assert report.lines()[-1] == "PASS: max 3.000e-05 over 4 blocks (tolerance 1.0e-04, worst 'b')"
    failing = GradientCheckReport({**errors, "e": math.inf}, tolerance=1e-4)
    assert (failing.passed, failing.worst_block, failing.max_error) == (False, "e", math.inf)
    empty = GradientCheckReport({}, tolerance=1e-4)
    assert (empty.passed, empty.worst_block, empty.max_error) == (True, "", 0.0)


def _arena(**blocks):
    """An arena holding copies of the given arrays."""
    arena = Arena({name: np.shape(value) for name, value in blocks.items()})
    for name, value in blocks.items():
        arena[name][...] = value
    return arena


def test_adam_schedule_vrd_preset_values():
    params = _arena(w=np.zeros(2))
    state = AdamState.create(params, base_lr=3e-4, decay_rate=0.5, decay_interval=4000)
    assert state.learning_rate() == pytest.approx(3e-4)
    state.step = 3999
    assert state.learning_rate() == pytest.approx(3e-4)
    state.step = 4000
    assert state.learning_rate() == pytest.approx(1.5e-4)
    state.step = 8000
    assert state.learning_rate() == pytest.approx(7.5e-5)


def test_adam_schedule_non_increasing():
    state = AdamState.create(_arena(w=np.zeros(1)), base_lr=1e-3, decay_rate=0.7, decay_interval=10)
    rates = []
    for step in range(100):
        state.step = step
        rates.append(state.learning_rate())
    assert all(b <= a for a, b in zip(rates, rates[1:]))


def test_adam_zero_gradients_leave_params_unchanged():
    params = _arena(w=np.array([1.0, -2.0]))
    state = AdamState.create(params, base_lr=0.1)
    adam_step(params, _arena(w=np.zeros(2)), state)
    np.testing.assert_array_equal(params["w"], [1.0, -2.0])
    assert state.step == 1


def test_adam_rejects_non_finite_gradients():
    params = _arena(w=np.zeros(2))
    state = AdamState.create(params, base_lr=0.1)
    with pytest.raises(DivergenceError):
        adam_step(params, _arena(w=np.array([1.0, np.nan])), state)


def test_adam_matches_reference_update():
    # One step from zero moments: update = -lr * g/|g| elementwise (up to eps).
    params = _arena(w=np.array([0.5]))
    state = AdamState.create(params, base_lr=0.01)
    adam_step(params, _arena(w=np.array([2.0])), state)
    expected = 0.5 - 0.01 * 2.0 / (2.0 + 1e-8)
    assert params["w"][0] == pytest.approx(expected, rel=1e-9)


def test_loss_decreases_under_adam():
    model, features, labels, mask = _toy_problem(4)
    params = model.parameters()
    state = AdamState.create(params, base_lr=5e-3)
    losses = []
    for _ in range(100):
        loss, _, grads = model.loss_and_gradients(features, labels, mask)
        losses.append(loss)
        adam_step(params, grads, state)
    assert losses[-1] < losses[0]
    for prev, cur in zip(losses, losses[1:]):
        assert cur <= prev * 1.05  # small transient upticks allowed


def _reference_adam_step(params, grads, m, v, lr, t, b1=0.9, b2=0.999, eps=1e-8):
    """The per-block update the chunked step must reproduce bit for bit."""
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    for name, p in params.items():
        g = grads[name]
        m[name] *= b1
        m[name] += (1.0 - b1) * g
        v[name] *= b2
        v[name] += (1.0 - b2) * g * g
        p -= lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)


def _three_blocks(total):
    """Shapes of a 2-D, a 1-D and a 5-element block holding ``total`` values."""
    rows = total // 12
    return {"a.weight": (rows, 4), "b.bias": (total - 4 * rows - 5,), "c.weight": (5,)}


@pytest.mark.parametrize("total", [ADAM_CHUNK - 7, ADAM_CHUNK, ADAM_CHUNK + 1],
                         ids=["below-chunk", "one-chunk", "chunk-plus-one"])
def test_chunked_adam_equals_block_loop(total):
    shapes = _three_blocks(total)
    assert sum(math.prod(s) for s in shapes.values()) == total
    rng = np.random.default_rng(total)
    params, grads = Arena(shapes), Arena(shapes)
    params.flat[...] = rng.standard_normal(total)
    ref_p = {name: block.copy() for name, block in params.items()}
    ref_m = {name: np.zeros(s) for name, s in shapes.items()}
    ref_v = {name: np.zeros(s) for name, s in shapes.items()}
    state = AdamState.create(params, base_lr=0.01, decay_rate=0.5, decay_interval=6)
    for step in range(20):
        grads.flat[...] = rng.standard_normal(total) * 10.0 ** rng.integers(-6, 3)
        lr = state.learning_rate()
        assert lr == 0.01 * 0.5 ** (step // 6)
        _reference_adam_step(ref_p, grads, ref_m, ref_v, lr, step + 1)
        adam_step(params, grads, state)
        for name in shapes:
            assert np.array_equal(params[name], ref_p[name]), (step, name)
        assert np.array_equal(state.m, np.concatenate([ref_m[n].ravel() for n in sorted(shapes)]))
        assert np.array_equal(state.v, np.concatenate([ref_v[n].ravel() for n in sorted(shapes)]))
    assert state.step == 20


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("block", ["a.weight", "b.bias", "c.weight"])
def test_non_finite_gradient_names_its_block_and_changes_nothing(block, bad):
    shapes = _three_blocks(ADAM_CHUNK + 1)
    rng = np.random.default_rng(0)
    params, grads = Arena(shapes), Arena(shapes)
    params.flat[...] = rng.standard_normal(params.flat.size)
    state = AdamState.create(params, base_lr=0.01)
    for _ in range(3):
        grads.flat[...] = rng.standard_normal(grads.flat.size)
        adam_step(params, grads, state)
    saved = (params.flat.copy(), state.m.copy(), state.v.copy(), state.step)
    grads[block].flat[-1] = bad
    with pytest.raises(DivergenceError, match=f"'{block}'"):
        adam_step(params, grads, state)
    assert np.array_equal(params.flat, saved[0])
    assert np.array_equal(state.m, saved[1])
    assert np.array_equal(state.v, saved[2])
    assert state.step == saved[3]


def test_adam_accepts_finite_gradients_whose_sum_overflows():
    params, grads = _arena(w=np.zeros(3)), _arena(w=np.array([1e308, 1e308, -1.0]))
    state = AdamState.create(params, base_lr=0.1)
    with np.errstate(over="ignore"):  # g * g overflows in v, as in any Adam
        adam_step(params, grads, state)
    assert np.isfinite(params.flat).all()
    assert state.step == 1


def test_arena_views_follow_sorted_names():
    arena = Arena({"z": (2,), "a": (2, 3), "m": ()})
    assert list(arena) == ["a", "m", "z"]
    arena.flat[...] = np.arange(9.0)
    np.testing.assert_array_equal(arena["a"], [[0, 1, 2], [3, 4, 5]])
    assert arena["m"] == 6.0
    np.testing.assert_array_equal(arena["z"], [7, 8])
    arena["z"][...] = -1.0
    np.testing.assert_array_equal(arena.flat[7:], [-1, -1])


def test_arena_section_is_a_view_of_its_span():
    arena = Arena({"union.b": (2,), "object.a": (3,), "subject.a": (1,), "object.b": (1,)})
    section = arena.section("object.")
    assert list(section) == ["a", "b"]
    assert section.flat.size == 4
    assert np.shares_memory(section.flat, arena.flat)
    section["b"][...] = 5.0
    assert arena["object.b"] == 5.0
    with pytest.raises(KeyError):
        arena.section("relation.")


def test_arena_rejects_a_buffer_of_the_wrong_size():
    with pytest.raises(DimensionError):
        Arena({"w": (2, 2)}, np.zeros(3))
