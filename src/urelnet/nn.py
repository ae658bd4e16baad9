"""Minimal dense-network engine in float64 numpy.

Explicit forward/backward for linear layers with relu/identity
activations, fused sigmoid cross-entropy, Adam with piecewise-constant
exponential learning-rate decay, and finite-difference gradient checking.

A model's parameters live in one flat float64 buffer and its gradients in
a second buffer with the same layout (an ``Arena``). Each named block is a
view into its buffer, laid out in sorted-name order, so the parameter
buffer is a checkpoint's payload byte for byte. Layers read their weights
from those views, and ``backward`` writes its gradients into them, so a
training step allocates no parameter-sized arrays. Adam keeps flat first
and second moments and updates the whole buffer in cache-sized chunks
through two scratch buffers. Training memory is therefore four times the
parameter bytes (parameters, gradients, m, v) plus two chunk buffers of
``ADAM_CHUNK`` float64 values each.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .errors import DimensionError, DivergenceError, StateError, UsageError

PROB_CLAMP = 1e-7

# The most float64 values one array can hold: numpy refuses a larger size
# outright (a ValueError), where a smaller one that does not fit in memory
# fails to allocate (a MemoryError).
MAX_ARRAY_VALUES = np.iinfo(np.intp).max // 8

ACTIVATIONS = ("relu", "identity")


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    x = np.asarray(x, dtype=np.float64)
    # exp(-|x|) is exp(-x) where x >= 0 and exp(x) elsewhere, so each branch
    # reads the same value its own exp would give, and neither overflows.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid_ce(p, y):
    """Cross entropy -y*log(p) - (1-y)*log(1-p), with p clamped to (0, 1).

    The clamp only protects the loss value; training uses the fused
    sigmoid-CE gradient (p - y) on pre-activations, which the clamp does
    not distort.
    """
    p = np.clip(np.asarray(p, dtype=np.float64), PROB_CLAMP, 1.0 - PROB_CLAMP)
    y = np.asarray(y, dtype=np.float64)
    return -(y * np.log(p) + (1.0 - y) * np.log1p(-p))


def glorot_uniform(rng: np.random.Generator, weight: np.ndarray) -> None:
    """Fill an (out_dim, in_dim) weight in place with Glorot-uniform values.

    Draws the same values, in the same order, as
    ``rng.uniform(-bound, bound, size=weight.shape)``, without a temporary.
    """
    out_dim, in_dim = weight.shape
    bound = math.sqrt(6.0 / (in_dim + out_dim))
    low, high = -bound, bound
    rng.random(out=weight)
    weight *= high - low
    weight += low


class Arena(Mapping[str, np.ndarray]):
    """Named blocks that are views into one flat float64 buffer.

    Blocks lie in sorted-name order, so ``flat`` is a checkpoint's payload:
    ``save_checkpoint`` writes it in one call, and ``load_checkpoint`` reads
    a payload into one buffer in a single read and wraps it in an arena that
    the model then adopts. A model keeps one arena for its parameters and
    one, with the same layout, for its gradients; an optimizer works on
    ``flat`` while layers use the named views.
    """

    def __init__(self, shapes: Mapping[str, Tuple[int, ...]], flat: np.ndarray | None = None):
        names = sorted(shapes)
        sizes = [math.prod(shapes[name]) for name in names]
        if flat is None:
            flat = np.zeros(sum(sizes))
        elif flat.shape != (sum(sizes),) or flat.dtype != np.float64:
            raise DimensionError(
                f"arena buffer {flat.dtype}{flat.shape} does not hold {sum(sizes)} float64 values"
            )
        self.flat = flat
        self._spans: Dict[str, Tuple[int, int]] = {}
        self._views: Dict[str, np.ndarray] = {}
        start = 0
        for name, size in zip(names, sizes):
            self._spans[name] = (start, start + size)
            self._views[name] = flat[start : start + size].reshape(shapes[name])
            start += size

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)

    def section(self, prefix: str) -> "Arena":
        """The blocks named ``prefix + name``, as an arena over their span.

        Names sharing a prefix are contiguous in sorted order, so the
        section is a view of one slice of ``flat``.
        """
        names = [name for name in self._views if name.startswith(prefix)]
        if not names:
            raise KeyError(f"no blocks start with {prefix!r}")
        start, stop = self._spans[names[0]][0], self._spans[names[-1]][1]
        shapes = {name[len(prefix) :]: self._views[name].shape for name in names}
        return Arena(shapes, self.flat[start:stop])


def all_finite(values: np.ndarray) -> bool:
    """Whether every entry is finite. One sum, not a BLAS call, decides unless it
    overflows or meets a NaN or infinity; only then is each entry checked."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = values.sum()
    return bool(np.isfinite(total) or np.isfinite(values).all())


def non_finite_block(arena: Arena) -> str | None:
    """The first block of ``arena`` holding a NaN or an infinity, or None."""
    if all_finite(arena.flat):
        return None
    return next((name for name, block in arena.items() if not np.isfinite(block).all()), None)


class DenseLayer:
    """Fully connected layer: activation(W x + b), with cached backward.

    ``grad_weight`` and ``grad_bias`` are written in place by ``backward``;
    a layer built without them owns zeroed arrays of its own.
    """

    def __init__(
        self,
        weight: np.ndarray,
        bias: np.ndarray,
        activation: str = "identity",
        grad_weight: np.ndarray | None = None,
        grad_bias: np.ndarray | None = None,
    ):
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
        self.grad_weight = np.zeros(weight.shape) if grad_weight is None else grad_weight
        self.grad_bias = np.zeros(bias.shape) if grad_bias is None else grad_bias
        self._input: np.ndarray | None = None
        self._pre: np.ndarray | None = None

    @classmethod
    def create(
        cls, in_dim: int, out_dim: int, activation: str, rng: np.random.Generator
    ) -> "DenseLayer":
        """A Glorot-initialized layer with its own arrays, for perfbench's
        GEMM probe; models wire their layers onto an arena."""
        weight = np.empty((out_dim, in_dim))
        glorot_uniform(rng, weight)
        return cls(weight, np.zeros(out_dim), activation)

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

    def forward_blocks(self, blocks: Sequence[Tuple[np.ndarray, np.ndarray | None]]) -> np.ndarray:
        """The forward pass of the rows that lay ``blocks`` side by side,
        taken block by block: activation(sum_k x_k W_k^T + b), where W_k is
        the weight's columns for block k's width. A block ``(x_k, at_k)``
        with row numbers enters the sum as ``(x_k W_k^T)[at_k]``, so each row
        of x_k is multiplied once however many output rows read it; with
        None, x_k holds the output rows themselves. The sum runs in block
        order. Nothing is kept, so the pass cannot be backpropagated."""
        z = None
        start = 0
        for x, at in blocks:
            stop = start + x.shape[1]
            part = x @ self.weight[:, start:stop].T
            if at is not None:
                part = part[at]
            if z is None:
                z = part
            else:
                z += part
            start = stop
        z += self.bias
        self.release()
        return relu(z) if self.activation == "relu" else z

    def release(self) -> None:
        """Drop what the last forward kept for backward."""
        self._input = self._pre = None

    def backward(self, grad_output: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Write this batch's parameter gradients into grad_weight/grad_bias
        and return the input gradient, or None when ``input_grad`` is false
        (a layer fed with data has no use for it)."""
        if self._input is None or self._pre is None:
            raise StateError("backward called before forward")
        g = grad_output
        if self.activation == "relu":
            g = g * (self._pre > 0)
        np.matmul(g.T, self._input, out=self.grad_weight)
        g.sum(axis=0, out=self.grad_bias)
        return g @ self.weight if input_grad else None


# Elements per Adam chunk: a chunk of p, m, v and g plus the two scratch
# buffers (6 x 128 KiB) stays in cache through the fourteen passes over it.
# On a 9.1M-parameter model (2-vCPU Xeon VM) a step took about 10% longer
# with 8K or 64K than with 16K or 32K.
ADAM_CHUNK = 16384

# Adam's moment decay rates and denominator offset (Kingma & Ba defaults).
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Adam moments over a flat parameter buffer, plus the exponential
    learning-rate schedule.

    Effective rate at step t (0-based, counting completed steps) is
    base_lr * decay_rate ** (t // decay_interval).
    """

    m: np.ndarray
    v: np.ndarray
    step: int
    base_lr: float
    decay_rate: float = 1.0
    decay_interval: int = 1
    scratch: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.decay_interval <= 0:
            raise UsageError("decay_interval must be positive")
        self.scratch = np.empty((2, min(ADAM_CHUNK, self.m.size)))

    @classmethod
    def create(cls, params: Arena, base_lr: float, **schedule) -> "AdamState":
        """Zero moments for ``params``; ``schedule`` may set the decay fields."""
        size = params.flat.size
        return cls(m=np.zeros(size), v=np.zeros(size), step=0, base_lr=base_lr, **schedule)

    def learning_rate(self) -> float:
        return self.base_lr * self.decay_rate ** (self.step // self.decay_interval)


def adam_step(params: Arena, grads: Arena, state: AdamState) -> None:
    """One in-place Adam update of ``params.flat`` from ``grads.flat``.

    A non-finite gradient raises DivergenceError naming its block, before
    anything changes. The update runs chunk by chunk through the state's
    two scratch buffers, so it makes no full-size temporary; per element it
    computes ``m = b1*m + (1-b1)*g``, ``v = b2*v + ((1-b2)*g)*g`` and
    ``p -= (lr*(m/bc1)) / (sqrt(v/bc2) + eps)`` in that operation order.
    """
    bad = non_finite_block(grads)
    if bad is not None:
        raise DivergenceError(f"non-finite gradient in block {bad!r}")
    lr = state.learning_rate()
    t = state.step + 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    p, m, v, g = params.flat, state.m, state.v, grads.flat
    for start in range(0, p.size, ADAM_CHUNK):
        chunk = slice(start, start + ADAM_CHUNK)
        pc, mc, vc, gc = p[chunk], m[chunk], v[chunk], g[chunk]
        a, b = state.scratch[:, : gc.size]
        mc *= b1
        np.multiply(gc, 1.0 - b1, out=a)
        mc += a
        vc *= b2
        np.multiply(gc, 1.0 - b2, out=a)
        a *= gc
        vc += a
        np.divide(vc, bc2, out=a)
        np.sqrt(a, out=a)
        a += ADAM_EPS
        np.divide(mc, bc1, out=b)
        b *= lr
        b /= a
        pc -= b
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
    """Compare analytic gradients with central finite differences.

    A step so large that the loss overflows gives non-finite differences;
    they fail the comparison without a floating-point warning.
    """
    errors = {}
    with np.errstate(all="ignore"):
        numeric = finite_difference_gradients(loss_fn, params, step=step)
        for name in params:
            a = analytic[name]
            n = numeric[name]
            # Floor keeps finite-difference roundoff on near-zero entries from
            # registering as large relative errors.
            denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-2)
            errors[name] = float(np.max(np.abs(a - n) / denom)) if a.size else 0.0
    return GradientCheckReport(block_errors=errors, tolerance=tolerance)
