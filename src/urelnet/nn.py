"""Minimal dense-network engine in float64 numpy.

Explicit forward/backward for linear layers with relu/identity
activations, fused sigmoid cross-entropy, Adam with piecewise-constant
exponential learning-rate decay, and finite-difference gradient checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from .errors import DimensionError, DivergenceError, StateError

PROB_CLAMP = 1e-7

ACTIVATIONS = ("relu", "identity")


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid_ce(p, y):
    """Cross entropy -y*log(p) - (1-y)*log(1-p), with p clamped to (0, 1).

    The clamp only protects the loss value; training uses the fused
    sigmoid-CE gradient (p - y) on pre-activations, which the clamp does
    not distort.
    """
    p = np.clip(np.asarray(p, dtype=np.float64), PROB_CLAMP, 1.0 - PROB_CLAMP)
    y = np.asarray(y, dtype=np.float64)
    return -(y * np.log(p) + (1.0 - y) * np.log1p(-p))


def glorot_uniform(rng: np.random.Generator, out_dim: int, in_dim: int) -> np.ndarray:
    bound = math.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-bound, bound, size=(out_dim, in_dim))


class DenseLayer:
    """Fully connected layer: activation(W x + b), with cached backward."""

    def __init__(self, weight: np.ndarray, bias: np.ndarray, activation: str = "identity"):
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        weight = np.asarray(weight, dtype=np.float64)
        bias = np.asarray(bias, dtype=np.float64)
        if weight.ndim != 2 or bias.shape != (weight.shape[0],):
            raise DimensionError(
                f"weight {weight.shape} and bias {bias.shape} are inconsistent"
            )
        self.weight = weight
        self.bias = bias
        self.activation = activation
        self.grad_weight = np.zeros_like(weight)
        self.grad_bias = np.zeros_like(bias)
        self._input: np.ndarray | None = None
        self._pre: np.ndarray | None = None

    @classmethod
    def create(
        cls, in_dim: int, out_dim: int, activation: str, rng: np.random.Generator
    ) -> "DenseLayer":
        return cls(glorot_uniform(rng, out_dim, in_dim), np.zeros(out_dim), activation)

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Batched forward pass over (B, in_dim) rows.

        Input widths are checked once per call at the model boundary
        (RelationNetwork.forward), not here.
        """
        z = x @ self.weight.T + self.bias
        self._input = x
        self._pre = z
        return relu(z) if self.activation == "relu" else z

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Accumulate parameter gradients and return the input gradient.

        Overwrites grad_weight/grad_bias from this call's batch.
        """
        if self._input is None or self._pre is None:
            raise StateError("backward called before forward")
        g = grad_output
        if self.activation == "relu":
            g = g * (self._pre > 0)
        self.grad_weight = g.T @ self._input
        self.grad_bias = g.sum(axis=0)
        return g @ self.weight


@dataclass
class AdamState:
    """Adam moments plus the exponential learning-rate schedule.

    Effective rate at step t (0-based, counting completed steps) is
    base_lr * decay_rate ** (t // decay_interval).
    """

    m: Dict[str, np.ndarray]
    v: Dict[str, np.ndarray]
    step: int
    base_lr: float
    decay_rate: float = 1.0
    decay_interval: int = 1
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def create(
        cls,
        params: Dict[str, np.ndarray],
        base_lr: float,
        decay_rate: float = 1.0,
        decay_interval: int = 1,
    ) -> "AdamState":
        if decay_interval <= 0:
            raise ValueError("decay_interval must be positive")
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
            step=0,
            base_lr=base_lr,
            decay_rate=decay_rate,
            decay_interval=decay_interval,
        )

    def learning_rate(self) -> float:
        return self.base_lr * self.decay_rate ** (self.step // self.decay_interval)


def adam_step(
    params: Dict[str, np.ndarray], grads: Dict[str, np.ndarray], state: AdamState
) -> None:
    """One in-place Adam update over all parameter blocks."""
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise DivergenceError(f"non-finite gradient in block {name!r}")
    lr = state.learning_rate()
    t = state.step + 1
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for name, p in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
    state.step = t


def finite_difference_gradients(
    loss_fn: Callable[[], float], params: Dict[str, np.ndarray], step: float = 1e-5
) -> Dict[str, np.ndarray]:
    """Central finite differences of loss_fn w.r.t. every parameter entry.

    loss_fn must read the parameter arrays in place; they are perturbed and
    restored one coordinate at a time. Only usable at toy sizes.
    """
    grads = {}
    for name, p in params.items():
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + step
            hi = loss_fn()
            p[idx] = orig - step
            lo = loss_fn()
            p[idx] = orig
            g[idx] = (hi - lo) / (2.0 * step)
            it.iternext()
        grads[name] = g
    return grads


@dataclass
class GradientCheckReport:
    """Per-block max relative error between analytic and numeric gradients."""

    block_errors: Dict[str, float]
    tolerance: float

    @property
    def max_error(self) -> float:
        return max(self.block_errors.values()) if self.block_errors else 0.0

    @property
    def worst_block(self) -> str:
        if not self.block_errors:
            return ""
        return max(self.block_errors, key=self.block_errors.get)

    @property
    def passed(self) -> bool:
        return self.max_error < self.tolerance

    def lines(self) -> List[str]:
        out = [
            f"{name}: max relative error {err:.3e}"
            for name, err in sorted(self.block_errors.items())
        ]
        verdict = "PASS" if self.passed else "FAIL"
        out.append(
            f"{verdict}: max {self.max_error:.3e} over {len(self.block_errors)} blocks "
            f"(tolerance {self.tolerance:.1e}, worst {self.worst_block!r})"
        )
        return out


def gradient_check(
    loss_fn: Callable[[], float],
    params: Dict[str, np.ndarray],
    analytic: Dict[str, np.ndarray],
    tolerance: float = 1e-4,
    step: float = 1e-5,
) -> GradientCheckReport:
    """Compare analytic gradients with central finite differences."""
    numeric = finite_difference_gradients(loss_fn, params, step=step)
    errors = {}
    for name in params:
        a = analytic[name]
        n = numeric[name]
        # Floor keeps finite-difference roundoff on near-zero entries from
        # registering as large relative errors.
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-2)
        errors[name] = float(np.max(np.abs(a - n) / denom)) if a.size else 0.0
    return GradientCheckReport(block_errors=errors, tolerance=tolerance)
