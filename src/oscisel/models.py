"""Small differentiable models over a flat parameter vector.

Three architectures: multinomial logistic regression, one-hidden-layer ReLU
MLP (both cross-entropy), and quadratic least-squares. Gradients are
closed-form backprop, double precision throughout; ``mean_gradient`` can also
hand back the per-sample losses of its forward pass. Hessian-vector products
use symmetric finite differences of the mean gradient, which is exact (up to
rounding) for the quadratic model: one call evaluates the gradient at
theta + r v and theta - r v for every direction as one stack of thetas.

One theta, which training and evaluation read, runs row-major: each layer's
output is (m, width), its weights and bias applied in two passes. A stack of
thetas (K, d), which the Hessian-vector products and verify's trial losses
run, is class-major: each layer's output is (K, width, m), so reductions over
classes run along rows of m contiguous values, and each layer is one matrix
product of its [W; b] block, which theta stores as one row-major
(fan_in + 1, fan_out) array, with its input and an appended ones row; its
gradient is one product too, written into the block's slot of the result.
The two layouts agree to rounding, not bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import pairwise

import numpy as np

from .data import Batch, Dataset
from .errors import (
    EmptyDatasetError,
    NumericError,
    ParameterDomainError,
    StructuralError,
)
from .rng import PortableRNG

_HVP_DELTA = 1e-5


@dataclass(frozen=True)
class Arch:
    kind: str  # "logistic" | "mlp" | "quadratic"
    d_in: int
    hidden: int = 0
    classes: int = 0

    def __post_init__(self):
        if self.kind not in ("logistic", "mlp", "quadratic"):
            raise ParameterDomainError(f"unknown model kind {self.kind!r}")
        if self.d_in < 1:
            raise ParameterDomainError("d_in must be >= 1")
        if self.kind in ("logistic", "mlp") and self.classes < 2:
            raise ParameterDomainError("classifiers need classes >= 2")
        if self.kind == "mlp" and self.hidden < 1:
            raise ParameterDomainError("mlp needs hidden >= 1")

    @cached_property
    def widths(self) -> tuple[int, ...]:
        """Classifier layer widths, () for quadratic. theta holds each layer
        in turn: its (fan_in, fan_out) weights row-major, then its biases."""
        hidden = (self.hidden,) if self.kind == "mlp" else ()
        return () if self.kind == "quadratic" else (self.d_in, *hidden, self.classes)

    @cached_property
    def param_count(self) -> int:
        """Length of theta, cached: ModelState reads it on every step."""
        if self.kind == "quadratic":
            return self.d_in
        return sum((fan_in + 1) * fan_out for fan_in, fan_out in pairwise(self.widths))


@dataclass(frozen=True)
class ModelState:
    arch: Arch
    theta: np.ndarray  # float64, shape (d,)

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=np.float64)
        if theta.shape != (self.arch.param_count,):
            raise StructuralError(
                f"theta has length {theta.shape}, arch implies "
                f"({self.arch.param_count},)"
            )
        if not np.isfinite(theta).all():
            raise NumericError("theta contains non-finite entries")
        object.__setattr__(self, "theta", theta)


def init_state(arch: Arch, rng: PortableRNG) -> ModelState:
    """Zero init for logistic/quadratic; uniform +-1/sqrt(fan_in) per MLP layer."""
    if arch.kind != "mlp":
        return ModelState(arch, np.zeros(arch.param_count))
    parts = []
    for fan_in, fan_out in pairwise(arch.widths):
        s = 1.0 / np.sqrt(fan_in)
        parts += [rng.uniforms(fan_in * fan_out, -s, s), rng.uniforms(fan_out, -s, s)]
    return ModelState(arch, np.concatenate(parts))


def check_batch(state: ModelState, batch: Batch) -> None:
    """Reject data the model cannot take: the one check of the data-model
    contract, for a minibatch or a whole split, whose errors name it.

    Inputs must match the model's width and be finite; regression targets
    must be finite and class labels in [0, classes).
    """
    split = batch.split if isinstance(batch, Dataset) else ""
    where = f"{split} split: " if split else "batch "
    if batch.size == 0:
        raise EmptyDatasetError(f"{split} set is empty" if split else "batch is empty")
    if batch.inputs.ndim != 2 or batch.inputs.shape[1] != state.arch.d_in:
        raise StructuralError(
            f"{where}inputs shape {batch.inputs.shape} incompatible with d_in="
            f"{state.arch.d_in}"
        )
    if batch.labels.shape[0] != batch.size:
        raise StructuralError(f"{where}labels/inputs row count mismatch")
    if not np.isfinite(batch.inputs).all():
        raise NumericError(f"{where}inputs contain non-finite values")
    if state.arch.kind == "quadratic":
        if not np.isfinite(batch.labels).all():
            raise NumericError(f"{where}targets contain non-finite values")
    elif batch.labels.min() < 0 or batch.labels.max() >= state.arch.classes:
        raise StructuralError(f"{where}class labels out of range")


def _blocks(arch: Arch, theta: np.ndarray) -> list:
    """One [W; b] block per Arch.widths layer of one theta or a stack: a
    (..., fan_in + 1, fan_out) view whose first fan_in rows are the weights
    and whose last row is the biases, which is how theta stores the layer.

    A layer applied to its input with a ones row appended, [input; 1], is
    then one matrix product, and that product's gradient has the block's
    shape, so it can be written into the layer's slot of theta's layout.
    """
    lead, o, blocks = theta.shape[:-1], 0, []
    for fan_in, fan_out in pairwise(arch.widths):
        size = (fan_in + 1) * fan_out
        blocks.append(theta[..., o : o + size].reshape(*lead, fan_in + 1, fan_out))
        o += size
    return blocks


def _layers(arch: Arch, theta: np.ndarray) -> list:
    """(weights, bias) views per layer of one theta or a stack: the weight
    rows and the bias row of each _blocks block."""
    return [(wb[..., :-1, :], wb[..., -1, :]) for wb in _blocks(arch, theta)]


def _log_softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    shifted -= np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted


def _forward(arch: Arch, theta: np.ndarray, x: np.ndarray):
    """Classifier logits (m, classes) at one theta, the layers and each
    layer's input."""
    layers = _layers(arch, theta)
    inputs = []
    scores = x
    for i, (w, b) in enumerate(layers):
        inputs.append(np.maximum(scores, 0.0, out=scores) if i else x)  # ReLU
        scores = inputs[-1] @ w
        scores += b
    return scores, layers, inputs


def _class_major_forward(arch: Arch, theta: np.ndarray, x: np.ndarray):
    """Classifier scores (K, classes, m) at each row of a stack (K, d), the
    layers' [W; b] blocks and each layer's input with a ones row appended:
    [xᵀ; 1] of shape (d_in + 1, m), then [relu(z); 1] of shape
    (K, width + 1, m).

    Each layer's output is one matrix product [W; b]ᵀ·[input; 1], which adds
    the bias inside the product; a hidden layer writes it straight into the
    first width rows of the next input, whose ones row is set once. A
    reduction over classes runs along rows of m contiguous values instead of
    a short inner axis per sample.
    """
    blocks = _blocks(arch, theta)
    m = x.shape[0]
    inputs = [np.empty((x.shape[1] + 1, m))]
    inputs[0][:-1] = x.T
    inputs[0][-1] = 1.0
    for wb in blocks[:-1]:
        hidden = np.empty((len(theta), wb.shape[-1] + 1, m))
        hidden[:, -1] = 1.0
        z = np.matmul(wb.swapaxes(-1, -2), inputs[-1], out=hidden[:, :-1])
        np.maximum(z, 0.0, out=z)  # ReLU
        inputs.append(hidden)
    return blocks[-1].swapaxes(-1, -2) @ inputs[-1], blocks, inputs


def _layer_deltas(
    arch: Arch, theta: np.ndarray, batch: Batch, losses: np.ndarray | None = None
) -> list:
    """(layer input, loss gradient w.r.t. the layer output) per layer, at one
    theta.

    Each sample's weight gradient is the outer product of the two and its
    bias gradient is the delta, so mean and per-sample gradients differ only
    in how they reduce these pairs. When losses is given, the per-sample
    losses of the same forward pass are written into it.
    """
    scores, layers, inputs = _forward(arch, theta, batch.inputs)
    logp = _log_softmax(scores)
    picked = np.arange(batch.size), batch.labels
    if losses is not None:
        np.negative(logp[picked], out=losses)
    delta = np.exp(logp, out=logp)  # softmax - onehot
    delta[picked] -= 1.0
    pairs = []
    for i in reversed(range(len(layers))):
        pairs.insert(0, (inputs[i], delta))
        if i:
            delta = delta @ layers[i][0].T
            delta *= inputs[i] > 0  # ReLU gate
    return pairs


def _mean_gradient(
    arch: Arch, theta: np.ndarray, batch: Batch, losses: np.ndarray | None = None
) -> np.ndarray:
    """Batch-mean gradient at one theta (d,) or at each row of a stack (K, d).

    When losses, an (m,) array, is given at one theta, the per-sample losses
    at theta are written into it, bit-equal to _losses.

    A classifier stack runs class-major, as _losses does: the softmax
    reduces over axis -2 of (K, classes, m) scores, giving delta, softmax
    minus one-hot. Each layer's summed gradient is one matrix product,
    [input; 1]·deltaᵀ of shape (K, fan_in + 1, fan_out), whose last row is
    the bias gradient, written straight into the layer's slot of the (K, d)
    result, which is theta's layout; the result, the smallest array of the
    pass, is divided by m once. The delta backpropagates through the weight
    rows as W·delta, gated by input > 0, into the buffer of the input it
    gates. Its gradients match one call per theta to rounding, not bit for
    bit, so one theta, which training reads, keeps the row-major backward.
    """
    x, m = batch.inputs, batch.size
    if arch.kind == "quadratic":
        # a column per theta, so each row of a stack runs the same matrix-
        # vector products as one theta does
        resid = x @ theta[..., :, None] - batch.labels[:, None]
        if losses is not None:
            np.multiply(0.5, resid[..., 0] ** 2, out=losses)
        return (resid.swapaxes(-1, -2) @ x / m).reshape(theta.shape)
    if theta.ndim == 1:
        parts = []
        for inputs, delta in _layer_deltas(arch, theta, batch, losses):
            # sum / m is what mean computes, without its Python overhead
            parts += [(inputs.T @ delta / m).ravel(), delta.sum(axis=0) / m]
        return np.concatenate(parts)
    scores, blocks, inputs = _class_major_forward(arch, theta, x)
    scores -= scores.max(axis=-2, keepdims=True)
    delta = np.exp(scores, out=scores)
    delta /= delta.sum(axis=-2, keepdims=True)
    delta -= np.arange(arch.classes)[:, None] == batch.labels  # softmax - onehot
    grad = np.empty(theta.shape)
    slots = _blocks(arch, grad)
    for i in reversed(range(len(blocks))):
        np.matmul(inputs[i], delta.swapaxes(-1, -2), out=slots[i])
        if i:
            # the layer input is read for the last time here, so the delta
            # backpropagated through the weight rows overwrites it: a second
            # (K, width, m) array per call was page-faulted in anew on each
            # call once it passed about 1 MB (see regprobe._TRACE_CHUNK)
            z = inputs[i][:, :-1]
            gate = z > 0
            delta = np.matmul(blocks[i][:, :-1], delta, out=z)
            delta *= gate  # ReLU gate
    grad /= m
    return grad


def _losses(arch: Arch, theta: np.ndarray, batch: Batch) -> np.ndarray:
    """Per-sample losses at one theta (d,) -> (m,) or at each row of a stack
    (K, d) -> (K, m).

    A stack runs class-major through _class_major_forward, the forward that
    _mean_gradient's stack shares: each layer is one product of its [W; b]
    block with its input and a ones row, and its output is (K, width, m), so
    the log-sum-exp over classes works on rows of m contiguous values instead
    of reducing a short inner class axis per sample; at 10 classes and
    m = 600 it measured 2 to 4 times faster per theta. Its losses match one
    call per theta to rounding, not bit for bit, so one theta, which
    evaluation reads and training's losses equal bit for bit, keeps the
    row-major forward.
    """
    if arch.kind == "quadratic":
        # one theta runs the same matrix-vector product as x @ theta
        resid = theta @ batch.inputs.T - batch.labels
        return 0.5 * resid**2
    if theta.ndim == 1:
        logp = _log_softmax(_forward(arch, theta, batch.inputs)[0])
        return -logp[np.arange(batch.size), batch.labels]
    scores = _class_major_forward(arch, theta, batch.inputs)[0]
    scores -= scores.max(axis=-2, keepdims=True)
    # log-sum-exp minus the picked shifted score is -log softmax
    shifted_picked = scores[:, batch.labels, np.arange(batch.size)]
    return np.log(np.exp(scores, out=scores).sum(axis=-2)) - shifted_picked


def loss_per_sample(state: ModelState, batch: Batch) -> np.ndarray:
    check_batch(state, batch)
    return _losses(state.arch, state.theta, batch)


def mean_loss(state: ModelState, batch: Batch) -> float:
    return float(loss_per_sample(state, batch).mean())


def predict(state: ModelState, batch: Batch) -> np.ndarray:
    """Top-1 class of each row; classifiers only."""
    check_batch(state, batch)
    if state.arch.kind == "quadratic":
        raise ParameterDomainError("a regression model predicts no classes")
    return _forward(state.arch, state.theta, batch.inputs)[0].argmax(axis=1)


def mean_gradient(
    state: ModelState, batch: Batch, losses: np.ndarray | None = None
) -> np.ndarray:
    """Batch-mean gradient of the loss.

    When losses, an (m,) float64 array, is given, the per-sample losses of
    the same forward pass are written into it, bit-equal to what
    loss_per_sample returns, so a training step needs one forward pass.
    """
    check_batch(state, batch)
    if losses is not None and losses.shape != (batch.size,):
        raise StructuralError(
            f"losses has shape {losses.shape}, expected ({batch.size},)"
        )
    return _mean_gradient(state.arch, state.theta, batch, losses)


def per_sample_gradients(state: ModelState, batch: Batch) -> np.ndarray:
    """One gradient row per sample; intended for small d and m."""
    check_batch(state, batch)
    x, m = batch.inputs, batch.size
    if state.arch.kind == "quadratic":
        resid = x @ state.theta - batch.labels
        return resid[:, None] * x
    parts = []
    for inputs, delta in _layer_deltas(state.arch, state.theta, batch):
        parts += [np.einsum("mi,mo->mio", inputs, delta).reshape(m, -1), delta]
    return np.concatenate(parts, axis=1)


def hessian_vector_product(
    state: ModelState, batch: Batch, v: np.ndarray
) -> np.ndarray:
    """H v of the batch-mean loss, via (g(t+rv) - g(t-rv)) / 2r.

    v is one direction (d,) or a stack of directions (K, d), one HVP per
    row. Each row gets its own step r = 1e-5 / max(||row||, 1), so a row
    whose norm is NaN or inf (a NaN, an infinity, or an overflow, which would
    make r 0 and the quotient 0/0) is a NumericError. The 2K gradients come
    from one stacked _mean_gradient call, class-major for classifiers, on
    theta + r v for every row, then theta - r v for every row.
    """
    v = np.asarray(v, dtype=np.float64)
    d = state.theta.shape[0]
    if v.ndim not in (1, 2) or v.shape[-1] != d:
        raise StructuralError(f"v has shape {v.shape}, expected ({d},) or (K, {d})")
    check_batch(state, batch)
    rows = v.reshape(-1, d)
    with np.errstate(over="ignore"):
        norms = [float(np.linalg.norm(row)) for row in rows]
    if not np.isfinite(norms).all():
        raise NumericError("a direction holds NaN or inf, or its norm is "
                           "non-finite: it overflows float64")
    r = np.array([[_HVP_DELTA / max(norm, 1.0)] for norm in norms])
    thetas = np.concatenate([state.theta + r * rows, state.theta - r * rows])
    g_plus, g_minus = np.split(_mean_gradient(state.arch, thetas, batch), 2)
    return ((g_plus - g_minus) / (2.0 * r)).reshape(v.shape)
