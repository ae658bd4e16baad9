import math

import numpy as np
import pytest

from urelnet.errors import DimensionError, DivergenceError, StateError
from urelnet.features import FeatureMatrix
from urelnet.model import ModelConfig, make_gradient_check_problem
from urelnet.nn import (
    AdamState,
    DenseLayer,
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

    def loss():
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
        lambda: model.loss(features, labels, mask),
        model.parameters(), grads, tolerance=1e-4,
    )
    assert report.passed, report.lines()


def test_gradient_check_trivially_passes_on_constant_loss():
    # Identity network with a loss that never moves: all gradients zero.
    layer = DenseLayer(np.eye(3), np.zeros(3), "identity")
    layer.forward(np.ones((1, 3)))
    report = gradient_check(
        lambda: 0.0,
        {"w": layer.weight, "b": layer.bias},
        {"w": np.zeros((3, 3)), "b": np.zeros(3)},
        tolerance=1e-4,
    )
    assert report.passed
    assert report.max_error == 0.0


def test_gradient_check_detects_corruption():
    model, features, labels, mask = _toy_problem(3)
    _, _, grads = model.loss_and_gradients(features, labels, mask)
    grads["rel.hidden.weight"] = grads["rel.hidden.weight"] * 2.0
    report = gradient_check(
        lambda: model.loss(features, labels, mask),
        model.parameters(), grads, tolerance=1e-4,
    )
    assert not report.passed
    assert report.worst_block == "rel.hidden.weight"


def test_adam_schedule_vrd_preset_values():
    params = {"w": np.zeros(2)}
    state = AdamState.create(params, base_lr=3e-4, decay_rate=0.5, decay_interval=4000)
    assert state.learning_rate() == pytest.approx(3e-4)
    state.step = 3999
    assert state.learning_rate() == pytest.approx(3e-4)
    state.step = 4000
    assert state.learning_rate() == pytest.approx(1.5e-4)
    state.step = 8000
    assert state.learning_rate() == pytest.approx(7.5e-5)


def test_adam_schedule_non_increasing():
    state = AdamState.create({"w": np.zeros(1)}, base_lr=1e-3, decay_rate=0.7, decay_interval=10)
    rates = []
    for step in range(100):
        state.step = step
        rates.append(state.learning_rate())
    assert all(b <= a for a, b in zip(rates, rates[1:]))


def test_adam_zero_gradients_leave_params_unchanged():
    params = {"w": np.array([1.0, -2.0])}
    state = AdamState.create(params, base_lr=0.1)
    adam_step(params, {"w": np.zeros(2)}, state)
    np.testing.assert_array_equal(params["w"], [1.0, -2.0])
    assert state.step == 1


def test_adam_rejects_non_finite_gradients():
    params = {"w": np.zeros(2)}
    state = AdamState.create(params, base_lr=0.1)
    with pytest.raises(DivergenceError):
        adam_step(params, {"w": np.array([1.0, np.nan])}, state)


def test_adam_matches_reference_update():
    # One step from zero moments: update = -lr * g/|g| elementwise (up to eps).
    params = {"w": np.array([0.5])}
    state = AdamState.create(params, base_lr=0.01)
    adam_step(params, {"w": np.array([2.0])}, state)
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
