"""Small differentiable models over a flat parameter vector.

Three architectures: multinomial logistic regression, one-hidden-layer ReLU
MLP (both cross-entropy), and quadratic least-squares. Gradients are
closed-form backprop, double precision throughout; ``mean_gradient`` can also
hand back the per-sample losses of its forward pass. ``hessian`` forms the
mean-loss Hessian in closed form: the Gauss–Newton part, one UᵀU product per
block of rows for the MLP and a Kronecker form for logistic regression, plus
the MLP's cross term. Hessian-vector products use symmetric finite
differences of the mean gradient, which is exact (up to rounding) for the
quadratic model: one call takes any number of directions and evaluates the
gradient at theta + r v and theta - r v for half a stack of directions at a
time as one stack of thetas. The difference is linear in its direction only
on the rows where the step cannot carry a ReLU pre-activation across 0;
fd_kink_rows marks the others.

One theta, which training and evaluation read, runs row-major: each layer's
output is (m, width), its weights and bias applied in two passes. A stack of
thetas (K, d), which the Hessian-vector products and verify's trial losses
run, is class-major: each layer's output is (K, width, m), so reductions over
classes run along rows of m contiguous values, and each layer is one matrix
product of its [W; b] block, which theta stores as one row-major
(fan_in + 1, fan_out) array, with its input and an appended ones row; its
gradient is one product too, written into the block's slot of the result.
The two layouts agree to rounding, not bit for bit. _blocks is the one map
of theta, a stack or a gradient onto layers, for every layout, and _STACK is
the bound on how many thetas a class-major call holds; only a
Hessian-vector product on a batch so small that more fit in _STACK_FLOATS
stacks more.
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

# Thetas per class-major call, set by memory: hessian_vector_product stacks
# at least _STACK // 2 directions per _mean_gradient call (theta ± r v), and
# regprobe.verify_one_step_expansion _STACK trials per _losses call. Keep it
# even. At MLP-32 and N = 500 the gradient's largest array, (_STACK, 33, N)
# float64, is 1.1 MB. One Tr(HC) on the 2P > N path (every row by finite
# differences; MLP-32 at N = 500, which now splits its rows) took
# 116/93/70/85/86 ms at 2/4/8/16/32 thetas; 4,000 trial losses at N = 600,
# 10 classes took 350/300/261/235 ms at 2/4/8/16, but 16 cost 0.7-0.85 MB of
# peak memory for no resolvable wall_ref gain (2-vCPU Xeon, OpenBLAS 1 thread,
# medians of 3-4 processes). Each theta's result is its own, so no value moves.
_STACK = 8

# Rows per block of the Tr(HC) trace's two row sums, hessian's H and regprobe's
# DᵀD Gram, set by memory: a product over all N rows has OpenBLAS pack blocks
# of both operands into its work buffer, and H's temporaries grow with the
# rows; their pages stay resident for the process. At 32/64/128/all rows, 5
# operations in one process peaked at 36.80/36.98/37.32/39.37 MB RSS on
# moons-probe (MLP-32, N = 500) and 39.12/39.24/39.32/40.34 MB on blobs-verify
# (P = 170, N = 600), and one trace took 4.8/3.7/3.4/3.6 and 4.3/3.2/2.7/2.7 ms
# (2-vCPU Xeon, OpenBLAS 1 thread, medians of 20 calls and of 3 processes): 64
# rows keep most of the time for 0.1-0.2 MB over 32.
_ROW_BLOCK = 64

# Floats a stacked hessian_vector_product call holds per theta-shaped or
# layer-shaped array when that is more than _STACK thetas: on the one or two
# rows that fd_kink_rows marks, 4 directions per call made the trace's
# marked-row call almost all Python overhead, 8 ms of a 75 ms moons-probe
# operation per marked snapshot, so the operation's time followed the
# seed's count of marked snapshots. 500 directions on one MLP-32 row took
# 5.2/3.2/2.2/1.7/2.0/2.1/2.2 ms at 2**11 ... 2**17 floats (2-vCPU Xeon,
# OpenBLAS 1 thread, best of 5). MLP-32 at N >= 500 and a 16-input,
# 10-class logistic model at N = 600 keep _STACK thetas.
_STACK_FLOATS = 2**14


# kind -> the keys a config's "model" object of that kind requires, besides
# "kind"; no model takes an optional key. The one statement of model kinds.
MODELS = {"logistic": set(), "mlp": {"hidden"}, "quadratic": set()}


@dataclass(frozen=True)
class Arch:
    kind: str  # a MODELS kind
    d_in: int
    hidden: int = 0
    classes: int = 0

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in MODELS:
            raise ParameterDomainError(f"unknown model kind {self.kind!r}")
        if self.d_in < 1:
            raise ParameterDomainError("d_in must be >= 1")
        if self.classifies and self.classes < 2:
            raise ParameterDomainError("classifiers need classes >= 2")
        if self.kind == "mlp" and self.hidden < 1:
            raise ParameterDomainError("mlp needs hidden >= 1")

    @property
    def classifies(self) -> bool:
        """Whether the model predicts classes: every kind but quadratic."""
        return self.kind != "quadratic"

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
    theta = np.zeros(arch.param_count)
    if arch.kind == "mlp":
        for wb in _blocks(arch, theta):
            (fan_in, fan_out), s = wb[:-1].shape, 1.0 / np.sqrt(len(wb) - 1)
            wb[:-1] = rng.uniforms(fan_in * fan_out, -s, s).reshape(fan_in, fan_out)
            wb[-1] = rng.uniforms(fan_out, -s, s)
    return ModelState(arch, theta)


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
    if not state.arch.classifies:
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


def _log_softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    shifted -= np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted


def _forward(arch: Arch, theta: np.ndarray, x: np.ndarray):
    """Classifier logits (m, classes) at one theta, the layers' [W; b]
    blocks and each layer's input; wb[:-1] and wb[-1] apply in two passes."""
    blocks = _blocks(arch, theta)
    inputs = []
    scores = x
    for i, wb in enumerate(blocks):
        inputs.append(np.maximum(scores, 0.0, out=scores) if i else x)  # ReLU
        scores = inputs[-1] @ wb[:-1]
        scores += wb[-1]
    return scores, blocks, inputs


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
    scores, blocks, inputs = _forward(arch, theta, batch.inputs)
    logp = _log_softmax(scores)
    picked = np.arange(batch.size), batch.labels
    if losses is not None:
        np.negative(logp[picked], out=losses)
    delta = np.exp(logp, out=logp)  # softmax - onehot
    delta[picked] -= 1.0
    pairs = []
    for i in reversed(range(len(blocks))):
        pairs.insert(0, (inputs[i], delta))
        if i:
            delta = delta @ blocks[i][:-1].T
            delta *= inputs[i] > 0  # ReLU gate
    return pairs


def _mean_gradient(
    arch: Arch, theta: np.ndarray, batch: Batch, losses: np.ndarray | None = None
) -> np.ndarray:
    """Batch-mean gradient at one theta (d,) or at each row of a stack (K, d).

    When losses, an (m,) array, is given at one theta, the per-sample losses
    at theta are written into it, bit-equal to _losses.

    A classifier writes each layer's summed gradient into the layer's
    _blocks slot of one result in theta's layout, and divides that result,
    the smallest array of the pass, by m once. One theta runs row-major: a
    slot takes inputᵀ·delta in its weight rows and delta summed over samples
    in its bias row. A stack runs class-major, as _losses does: the softmax
    reduces over axis -2 of (K, classes, m) scores, giving delta, softmax
    minus one-hot, and a slot is one matrix product, [input; 1]·deltaᵀ of
    shape (K, fan_in + 1, fan_out), whose last row is the bias gradient. The
    delta backpropagates through the weight rows as W·delta, gated by
    input > 0, into the buffer of the input it gates. Its gradients match
    one call per theta to rounding, not bit for bit, so one theta, which
    training reads, keeps the row-major backward.
    """
    x, m = batch.inputs, batch.size
    if arch.kind == "quadratic":
        # a column per theta, so each row of a stack runs the same matrix-
        # vector products as one theta does
        resid = x @ theta[..., :, None] - batch.labels[:, None]
        if losses is not None:
            np.multiply(0.5, resid[..., 0] ** 2, out=losses)
        return (resid.swapaxes(-1, -2) @ x / m).reshape(theta.shape)
    grad = np.empty(theta.shape)
    slots = _blocks(arch, grad)
    if theta.ndim == 1:
        pairs = _layer_deltas(arch, theta, batch, losses)
        for slot, (inputs, delta) in zip(slots, pairs):
            np.matmul(inputs.T, delta, out=slot[:-1])
            delta.sum(axis=0, out=slot[-1])
    else:
        scores, blocks, inputs = _class_major_forward(arch, theta, x)
        scores -= scores.max(axis=-2, keepdims=True)
        delta = np.exp(scores, out=scores)
        delta /= delta.sum(axis=-2, keepdims=True)
        delta -= np.arange(arch.classes)[:, None] == batch.labels  # softmax - onehot
        for i in reversed(range(len(blocks))):
            np.matmul(inputs[i], delta.swapaxes(-1, -2), out=slots[i])
            if i:
                # the layer input is read for the last time here, so the delta
                # backpropagated through the weight rows overwrites it: a
                # second (K, width, m) array per call was page-faulted in anew
                # on each call once it passed about 1 MB (see _STACK)
                z = inputs[i][:, :-1]
                gate = z > 0
                delta = np.matmul(blocks[i][:, :-1], delta, out=z)
                delta *= gate  # ReLU gate
    grad /= m  # sum / m is what mean computes, without its Python overhead
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
    if not state.arch.classifies:
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
    """One gradient row per sample, (m, d), for small d and m; a classifier's
    rows are written through _blocks as input ⊗ delta, then delta."""
    check_batch(state, batch)
    if state.arch.kind == "quadratic":
        resid = batch.inputs @ state.theta - batch.labels
        return resid[:, None] * batch.inputs
    grads = np.empty((batch.size, state.arch.param_count))
    pairs = _layer_deltas(state.arch, state.theta, batch)
    for slot, (inputs, delta) in zip(_blocks(state.arch, grads), pairs):
        np.multiply(inputs[:, :, None], delta[:, None, :], out=slot[:, :-1])
        slot[:, -1] = delta
    return grads


def hessian(state: ModelState, batch: Batch) -> np.ndarray:
    """The batch-mean loss's Hessian (d, d) in closed form, summed over
    blocks of _ROW_BLOCK rows through one (d, d) product buffer per call, so
    no Jacobian of the whole batch is held.

    Quadratic: XᵀX / m. A classifier's is the Gauss–Newton part
    (1/m) Σ_i J_iᵀ A_i J_i, with J_i the Jacobian of row i's scores and
    A_i = diag p_i − p_i p_iᵀ, plus the MLP's cross term: ReLU'' is 0 off
    its kink, so the scores' own curvature, weighted by δ_i = p_i − onehot,
    joins only W1[k, j] and W2[j, c], as (1/m) Σ_i δ_ic·1[z_ij > 0]·x̃_ik.

    J_i's row for class c, J_ic, is [input; 1] ⊗ E_a[:, c] in layer a's
    _blocks slot, E the identity at the last layer and diag(1[z > 0])·W2's
    weight rows at the hidden one. As Σ_c p_ic = 1, J_iᵀ A_i J_i =
    Σ_c p_ic (J_ic − V_i)ᵀ(J_ic − V_i) with V_i = Σ_c p_ic J_ic, so an MLP
    block is one symmetric UᵀU, U the class-major (classes·m, d) rows
    √p_ic (J_ic − V_i). A logistic J_ic is x̃_i in class c's column alone,
    so U would cost classes times J: its diag p half is the Kronecker form
    Σ_i x̃_i x̃_iᵀ ⊗ diag p_i, and its p pᵀ half −VᵀV. That block, and the
    cross term, summed over the blocks and added to both of its layer pairs
    at the end, go through (fan_in_a + 1, fan_out_a, fan_in_b + 1,
    fan_out_b) _blocks views of H.
    """
    check_batch(state, batch)
    arch, d = state.arch, state.arch.param_count
    h, prod, cross = np.zeros((d, d)), np.empty((d, d)), 0.0
    pairs = [_blocks(arch, rows.transpose(1, 2, 0)) for rows in _blocks(arch, h.T)]
    u = np.empty(arch.classes * min(batch.size, _ROW_BLOCK) * d * (arch.kind == "mlp"))
    for start in range(0, batch.size, _ROW_BLOCK):
        rows = Batch(batch.inputs[start : start + _ROW_BLOCK],
                     batch.labels[start : start + _ROW_BLOCK])
        if arch.kind == "quadratic":
            h += np.matmul(rows.inputs.T, rows.inputs, out=prod)
        else:
            cross += _add_hessian_rows(arch, state.theta, rows, h, prod, pairs, u)
    if len(pairs) == 2:
        hidden = np.arange(arch.hidden)  # W2's row j meets W1's column j
        pairs[0][1][:, hidden, hidden] += cross
        pairs[1][0][hidden, :, :, hidden] += cross.transpose(1, 2, 0)
    h /= batch.size
    return h


def _add_hessian_rows(arch: Arch, theta: np.ndarray, batch: Batch, h: np.ndarray,
                      prod: np.ndarray, pairs: list, u: np.ndarray):
    """Add a classifier's rows' summed Gauss–Newton part into h, whose layer
    pairs pairs views, through prod, and return the MLP's summed cross term
    (d_in + 1, hidden, classes) or 0. The MLP's U fills the front of u."""
    m, d, classes = batch.size, arch.param_count, np.arange(arch.classes)
    scores, blocks, inputs = _forward(arch, theta, batch.inputs)
    p = np.exp(_log_softmax(scores))
    inputs = [np.hstack([a, np.ones((m, 1))]) for a in inputs]  # [input; 1]
    if len(blocks) == 1:
        v = (inputs[0][:, :, None] * p[:, None, :]).reshape(m, -1)  # x̃_i ⊗ p_i
        kron = (v.T @ inputs[0]).reshape(-1, arch.classes, inputs[0].shape[1])
        pairs[0][0][:, classes, :, classes] += kron.transpose(1, 0, 2)
        h -= np.matmul(v.T, v, out=prod)
        return 0.0
    xg = inputs[0][:, :, None] * (inputs[1][:, None, :-1] > 0)  # x̃_k·1[z_j > 0]
    u = u[: arch.classes * m * d].reshape(arch.classes, m, d)
    hidden, last = _blocks(arch, u)
    np.multiply(xg, blocks[1][:-1].T[:, None, None, :], out=hidden)
    last[...] = 0.0
    last[classes, :, :, classes] = inputs[1]
    u -= np.einsum("ic,cid->id", p, u)  # V_i
    u *= np.sqrt(p.T)[:, :, None]
    h += np.matmul(u.reshape(-1, d).T, u.reshape(-1, d), out=prod)  # UᵀU
    p[np.arange(m), batch.labels] -= 1.0  # δ
    return (xg.reshape(m, -1).T @ p).reshape(*xg.shape[1:], -1)


# hessian_vector_product's step: r = _HVP_DELTA / max(||v||, 1), so theta
# moves by at most _HVP_DELTA along any direction
_HVP_DELTA = 1e-5


def fd_kink_rows(state: ModelState, batch: Batch) -> np.ndarray:
    """Rows (m,) bool on which hessian_vector_product's difference may not be
    linear in its direction: some hidden pre-activation z_sj lies within
    2 * _HVP_DELTA * ||[x_s; 1]|| of 0.

    A step of at most _HVP_DELTA moves z_sj by at most
    _HVP_DELTA * ||[x_s; 1]||, so on an unmarked row no ReLU gate changes
    between theta + r v and theta - r v, whatever v is, and the row's
    difference is its exact HVP up to O(r²) truncation; the factor 2
    absorbs rounding. A model without a hidden layer marks no row.
    """
    check_batch(state, batch)
    blocks = _blocks(state.arch, state.theta)
    if len(blocks) < 2:
        return np.zeros(batch.size, dtype=bool)
    x, wb = batch.inputs, blocks[0]
    z = x @ wb[:-1]
    z += wb[-1]
    reach = 2.0 * _HVP_DELTA * np.sqrt(np.einsum("sk,sk->s", x, x) + 1.0)
    return (np.abs(z) <= reach[:, None]).any(axis=1)


def _hvp_directions(arch: Arch, m: int) -> int:
    """Directions per stacked _mean_gradient call on m rows: half of
    _STACK thetas, or of as many as _STACK_FLOATS floats hold if more. A
    theta takes its own row and its gradient's, d floats each, and its
    widest layer output with the ones row, (width + 1) * m floats."""
    width = max(arch.widths[1:], default=0)
    per_theta = arch.param_count + (width + 1) * m
    return max(_STACK, _STACK_FLOATS // per_theta) // 2


def hessian_vector_product(
    state: ModelState, batch: Batch, v: np.ndarray
) -> np.ndarray:
    """H v of the batch-mean loss, via (g(t+rv) - g(t-rv)) / 2r.

    v is one direction (d,) or a stack of any number of directions (K, d),
    K = 0 included, one HVP per row. Each row gets its own step
    r = _HVP_DELTA / max(||row||, 1), so a row whose norm is NaN or inf (a
    NaN, an infinity, or an overflow, which would make r 0 and the quotient
    0/0) is a NumericError. Each _hvp_directions rows take one stacked
    _mean_gradient call, class-major for classifiers, on theta + r v for
    each row, then theta - r v, and write their quotients into one (K, d)
    result.
    """
    v = np.asarray(v, dtype=np.float64)
    d = state.theta.shape[0]
    if v.ndim not in (1, 2) or v.shape[-1] != d:
        raise StructuralError(f"v has shape {v.shape}, expected ({d},) or (K, {d})")
    check_batch(state, batch)
    rows = v.reshape(-1, d)
    with np.errstate(over="ignore"):
        # the BLAS dot of np.linalg.norm(row) per row; the axis=1 norm sums
        # pairwise, which moves Tr(HC) in its last bit
        norms = np.sqrt(rows[:, None] @ rows[:, :, None])[:, 0]
        r = _HVP_DELTA / np.maximum(norms, 1.0)
    if not np.isfinite(norms).all():
        raise NumericError("a direction holds NaN or inf, or its norm is "
                           "non-finite: it overflows float64")
    hv = np.empty(rows.shape)
    step = _hvp_directions(state.arch, batch.size)
    for start in range(0, len(rows), step):
        chunk = slice(start, start + step)
        offsets = r[chunk] * rows[chunk]
        thetas = np.concatenate([state.theta + offsets, state.theta - offsets])
        g_plus, g_minus = np.split(_mean_gradient(state.arch, thetas, batch), 2)
        np.divide(g_plus - g_minus, 2.0 * r[chunk], out=hv[chunk])
    return hv.reshape(v.shape)
