from dataclasses import fields

import numpy as np
import pytest

from oscisel.errors import NumericError, StructuralError
from oscisel.models import (
    _STACK,
    _STACK_FLOATS,
    MODELS,
    Arch,
    Batch,
    ModelState,
    _blocks,
    _hvp_directions,
    _losses,
    _mean_gradient,
    fd_kink_rows,
    hessian,
    hessian_vector_product,
    init_state,
    loss_per_sample,
    mean_gradient,
    mean_loss,
    per_sample_gradients,
)
from oscisel.rng import PortableRNG
from rounding import rounding_scales

ARCHS = [
    Arch("quadratic", 6),
    Arch("logistic", 4, classes=3),
    Arch("mlp", 3, hidden=5, classes=3),
]


def random_instance(arch, rng):
    theta = rng.normal(size=arch.param_count)
    m = int(rng.integers(2, 9))
    x = rng.normal(size=(m, arch.d_in))
    if arch.kind == "quadratic":
        y = rng.normal(size=m)
    else:
        y = rng.integers(0, arch.classes, size=m)
    return ModelState(arch, theta), Batch(x, y)


def fd_gradient(state, batch, h=1e-6):
    d = state.theta.shape[0]
    out = np.zeros(d)
    for i in range(d):
        tp = state.theta.copy(); tp[i] += h
        tm = state.theta.copy(); tm[i] -= h
        out[i] = (
            mean_loss(ModelState(state.arch, tp), batch)
            - mean_loss(ModelState(state.arch, tm), batch)
        ) / (2 * h)
    return out


def test_every_model_key_is_a_field_of_arch():
    # build_model hands a checked model object to Arch as keyword arguments
    keys = {"kind"}.union(*MODELS.values())
    assert keys <= {f.name for f in fields(Arch)}
    for kind, required in MODELS.items():
        model = {"kind": kind, **dict.fromkeys(required, 2)}
        assert Arch(d_in=3, classes=2, **model).kind == kind


def test_param_counts():
    assert Arch("logistic", 10, classes=4).param_count == 44
    assert Arch("mlp", 10, hidden=7, classes=4).param_count == 11 * 7 + 8 * 4
    assert Arch("quadratic", 9).param_count == 9


def test_logistic_zero_theta_uniform_loss():
    arch = Arch("logistic", 5, classes=7)
    state = ModelState(arch, np.zeros(arch.param_count))
    batch = Batch(np.random.default_rng(0).normal(size=(4, 5)),
                  np.array([0, 2, 4, 6]))
    assert loss_per_sample(state, batch) == pytest.approx(np.log(7) * np.ones(4))


def test_quadratic_closed_forms():
    state = ModelState(Arch("quadratic", 2), np.zeros(2))
    batch = Batch(np.array([[1.0, 0.0]]), np.array([2.0]))
    assert loss_per_sample(state, batch) == pytest.approx([2.0])
    assert mean_gradient(state, batch) == pytest.approx([-2.0, 0.0])


def test_quadratic_per_sample_rows_closed_form():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 4)); y = rng.normal(size=2)
    theta = rng.normal(size=4)
    state = ModelState(Arch("quadratic", 4), theta)
    batch = Batch(x, y)
    rows = per_sample_gradients(state, batch)
    expected = (x @ theta - y)[:, None] * x
    assert rows == pytest.approx(expected, abs=0)


@pytest.mark.parametrize("arch", ARCHS, ids=lambda a: a.kind)
def test_mean_gradient_vs_finite_differences(arch):
    rng = np.random.default_rng(12)
    for _ in range(20):
        state, batch = random_instance(arch, rng)
        g = mean_gradient(state, batch)
        fd = fd_gradient(state, batch)
        scale = max(np.abs(g).max(), 1e-8)
        assert np.abs(g - fd).max() / scale < 1e-5


@pytest.mark.parametrize("arch", ARCHS, ids=lambda a: a.kind)
def test_per_sample_mean_consistency(arch):
    rng = np.random.default_rng(34)
    for _ in range(20):
        state, batch = random_instance(arch, rng)
        rows = per_sample_gradients(state, batch)
        assert np.abs(rows.mean(axis=0) - mean_gradient(state, batch)).max() < 1e-12


@pytest.mark.parametrize("arch", ARCHS, ids=lambda a: a.kind)
def test_per_sample_rows_vs_finite_differences(arch):
    rng = np.random.default_rng(56)
    state, batch = random_instance(arch, rng)
    rows = per_sample_gradients(state, batch)
    for i in range(batch.size):
        single = Batch(batch.inputs[i : i + 1], batch.labels[i : i + 1])
        fd = fd_gradient(state, single)
        scale = max(np.abs(rows[i]).max(), 1e-8)
        assert np.abs(rows[i] - fd).max() / scale < 1e-5


@pytest.mark.parametrize("arch", ARCHS, ids=lambda a: a.kind)
def test_mean_gradient_writes_the_losses_of_its_forward(arch):
    rng = np.random.default_rng(13)
    for m in (1, 2, 3, 32, 257, 500):
        state, _ = random_instance(arch, rng)
        x = rng.normal(size=(m, arch.d_in))
        if arch.kind == "quadratic":
            y = rng.normal(size=m)
        else:
            y = rng.integers(0, arch.classes, size=m)
        batch = Batch(x, y)
        # every third entry of a larger array, so the output is strided
        buf = np.full(3 * m, -7.0)
        losses = buf[1::3]
        g = mean_gradient(state, batch, losses=losses)
        assert losses.tobytes() == loss_per_sample(state, batch).tobytes()
        assert g.tobytes() == mean_gradient(state, batch).tobytes()
        assert np.all(buf[0::3] == -7.0) and np.all(buf[2::3] == -7.0)
    with pytest.raises(StructuralError):
        mean_gradient(state, batch, losses=np.empty(m + 1))


def test_batch_of_one_row_equals_mean_gradient():
    rng = np.random.default_rng(5)
    state, batch = random_instance(Arch("logistic", 4, classes=3), rng)
    single = Batch(batch.inputs[:1], batch.labels[:1])
    rows = per_sample_gradients(state, single)
    assert rows[0] == pytest.approx(mean_gradient(state, single), abs=1e-15)


def test_duplicated_rows_leave_mean_gradient_unchanged():
    rng = np.random.default_rng(8)
    state, batch = random_instance(Arch("mlp", 3, hidden=5, classes=3), rng)
    doubled = Batch(
        np.vstack([batch.inputs, batch.inputs]),
        np.concatenate([batch.labels, batch.labels]),
    )
    assert mean_gradient(state, doubled) == pytest.approx(
        mean_gradient(state, batch), abs=1e-14
    )


def test_hvp_quadratic_exact():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(30, 6))
    state = ModelState(Arch("quadratic", 6), rng.normal(size=6))
    batch = Batch(x, rng.normal(size=30))
    v = rng.normal(size=6)
    hv = hessian_vector_product(state, batch, v)
    assert np.abs(hv - (x.T @ x / 30) @ v).max() < 1e-8


def test_hvp_zero_vector():
    rng = np.random.default_rng(4)
    state, batch = random_instance(Arch("logistic", 4, classes=3), rng)
    assert hessian_vector_product(state, batch, np.zeros(state.theta.shape)) == (
        pytest.approx(np.zeros(state.theta.shape), abs=1e-12)
    )


def test_hvp_matches_dense_hessian_logistic():
    rng = np.random.default_rng(6)
    arch = Arch("logistic", 4, classes=3)  # d = 15
    state, batch = random_instance(arch, rng)
    d = arch.param_count
    # dense Hessian by coordinate-wise differentiation of the gradient
    dense = np.zeros((d, d))
    h = 1e-5
    for i in range(d):
        tp = state.theta.copy(); tp[i] += h
        tm = state.theta.copy(); tm[i] -= h
        dense[:, i] = (
            mean_gradient(ModelState(arch, tp), batch)
            - mean_gradient(ModelState(arch, tm), batch)
        ) / (2 * h)
    v = rng.normal(size=d)
    hv = hessian_vector_product(state, batch, v)
    scale = max(np.abs(dense @ v).max(), 1e-8)
    assert np.abs(hv - dense @ v).max() / scale < 1e-4


def far_from_kinks(arch, rng, m=150):
    """A state and m rows, more than one _ROW_BLOCK, whose first-layer
    pre-activations all lie at least 1e-3 from the ReLU kink."""
    while True:
        state, _ = random_instance(arch, rng)
        x = rng.normal(size=(m, arch.d_in))
        y = rng.normal(size=m) if arch.kind == "quadratic" else rng.integers(
            0, arch.classes, size=m)
        wb = _blocks(arch, state.theta)[0] if arch.kind == "mlp" else None
        if wb is None or np.abs(x @ wb[:-1] + wb[-1]).min() > 1e-3:
            return state, Batch(x, y)


@pytest.mark.parametrize("arch", ARCHS, ids=lambda a: a.kind)
def test_hessian_equals_a_central_difference_of_the_gradient(arch):
    # a step of 1e-5 moves no pre-activation across its kink, so the
    # difference is off by its O(step²) truncation and its rounding, about
    # 1e-16 / step of the gradient: measured at up to 1.2e-10 of the largest
    state, batch = far_from_kinks(arch, np.random.default_rng(15))
    d, step = arch.param_count, 1e-5
    fd = np.empty((d, d))
    for i in range(d):
        e = np.zeros(d)
        e[i] = step
        fd[:, i] = (mean_gradient(ModelState(arch, state.theta + e), batch)
                    - mean_gradient(ModelState(arch, state.theta - e), batch)) / (2 * step)
    h = hessian(state, batch)
    assert np.abs(h - fd).max() <= 1e-8 * np.abs(fd).max()


def test_logistic_hessian_is_the_textbook_kronecker_form():
    rng = np.random.default_rng(16)
    arch = Arch("logistic", 4, classes=3)
    state, batch = far_from_kinks(arch, rng)
    x1 = np.hstack([batch.inputs, np.ones((batch.size, 1))])
    logits = x1 @ _blocks(arch, state.theta)[0]
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    textbook = sum(np.kron(np.diag(pi) - np.outer(pi, pi), np.outer(xi, xi))
                   for pi, xi in zip(p, x1)) / batch.size
    # the textbook orders (class, input); theta stores (input, class)
    inputs, classes = x1.shape[1], arch.classes
    order = np.arange(classes * inputs).reshape(classes, inputs).T.ravel()
    expected = textbook[np.ix_(order, order)]
    assert np.abs(hessian(state, batch) - expected).max() <= 1e-14 * np.abs(expected).max()


@pytest.mark.parametrize("arch", ARCHS, ids=lambda a: a.kind)
def test_hvp_symmetry(arch):
    rng = np.random.default_rng(7)
    state, batch = random_instance(arch, rng)
    u = rng.normal(size=state.theta.shape)
    v = rng.normal(size=state.theta.shape)
    left = float(v @ hessian_vector_product(state, batch, u))
    right = float(u @ hessian_vector_product(state, batch, v))
    assert abs(left - right) / max(abs(left), 1e-8) < 1e-6


@pytest.mark.parametrize("arch", ARCHS, ids=lambda a: a.kind)
def test_loss_non_negative(arch):
    rng = np.random.default_rng(9)
    for _ in range(10):
        state, batch = random_instance(arch, rng)
        assert np.all(loss_per_sample(state, batch) >= 0.0)


def test_mlp_init_scale_and_determinism():
    arch = Arch("mlp", 9, hidden=4, classes=2)
    a = init_state(arch, PortableRNG(11))
    b = init_state(arch, PortableRNG(11))
    assert np.array_equal(a.theta, b.theta)
    w1 = a.theta[: 9 * 4]
    assert np.abs(w1).max() <= 1.0 / 3.0  # fan_in 9 -> scale 1/3


def test_structural_and_numeric_errors():
    arch = Arch("logistic", 3, classes=2)
    state = ModelState(arch, np.zeros(arch.param_count))
    with pytest.raises(StructuralError):
        loss_per_sample(state, Batch(np.zeros((2, 4)), np.zeros(2, dtype=int)))
    with pytest.raises(NumericError):
        loss_per_sample(state, Batch(np.array([[np.nan, 0.0, 0.0]]),
                                     np.array([0])))
    with pytest.raises(StructuralError):
        ModelState(arch, np.zeros(3))
    with pytest.raises(NumericError):
        ModelState(arch, np.full(arch.param_count, np.inf))
    with pytest.raises(StructuralError):
        hessian_vector_product(state, Batch(np.zeros((1, 3)), np.array([0])),
                               np.zeros(0))


@pytest.mark.parametrize("arch", ARCHS, ids=lambda a: a.kind)
def test_stacked_hvp_equals_one_vector_calls(arch):
    rng = np.random.default_rng(21)
    state, batch = random_instance(arch, rng)
    d = arch.param_count
    # a zero row, and norms 1e-3 .. 1e3 apart, so each row needs its own step
    vs = np.stack([np.zeros(d), 1e-3 * rng.normal(size=d),
                   rng.normal(size=d), 1e3 * rng.normal(size=d)])
    stacked = hessian_vector_product(state, batch, vs)
    assert stacked.shape == vs.shape
    for v, hv in zip(vs, stacked):
        single = hessian_vector_product(state, batch, v)
        assert np.allclose(hv, single, rtol=1e-10, atol=1e-10 * np.abs(single).max())


def test_stacked_hvp_errors():
    arch = Arch("mlp", 3, hidden=4, classes=2)
    state = ModelState(arch, np.zeros(arch.param_count))
    batch = Batch(np.zeros((2, 3)), np.array([0, 1]))
    d = arch.param_count
    with pytest.raises(StructuralError):
        hessian_vector_product(state, batch, np.zeros((2, d + 1)))
    with pytest.raises(StructuralError):
        hessian_vector_product(state, batch, np.zeros((2, 2, d)))
    bad = np.ones((3, d))
    bad[1, 0] = np.nan
    with pytest.raises(NumericError):
        hessian_vector_product(state, batch, bad)


def test_hvp_stacks_more_directions_only_on_few_rows():
    # MLP-32 at N = 500 (moons-probe) and a 16-input, 10-class logistic model
    # at N = 600 (blobs-verify) keep _STACK thetas per gradient call; on the
    # one or two rows fd_kink_rows marks, a call takes many directions, and
    # its thetas and layer outputs stay within _STACK_FLOATS
    mlp = Arch("mlp", 2, hidden=32, classes=2)
    assert _hvp_directions(mlp, 499) == _hvp_directions(mlp, 500) == _STACK // 2
    assert _hvp_directions(Arch("logistic", 16, classes=10), 600) == _STACK // 2
    for m in (1, 2):
        thetas = 2 * _hvp_directions(mlp, m)
        assert thetas > 4 * _STACK
        assert thetas * (mlp.param_count + (32 + 1) * m) <= _STACK_FLOATS


@pytest.mark.parametrize("arch", ARCHS, ids=lambda a: a.kind)
def test_hvp_of_no_directions_is_empty(arch):
    state, batch = random_instance(arch, np.random.default_rng(22))
    d = arch.param_count
    hv = hessian_vector_product(state, batch, np.zeros((0, d)))
    assert hv.shape == (0, d) and hv.dtype == np.float64


@pytest.mark.parametrize("arch", ARCHS, ids=lambda a: a.kind)
def test_fd_kink_rows_marks_only_rows_by_a_relu_kink(arch):
    state, batch = random_instance(arch, np.random.default_rng(23))
    marked = fd_kink_rows(state, batch)
    assert marked.shape == (batch.size,) and marked.dtype == bool
    assert not marked.any()
    # at a zero input, a hidden unit with a zero bias sits on its kink; a
    # model without a hidden layer has no kink to mark
    x, theta = batch.inputs.copy(), state.theta.copy()
    x[1] = 0.0
    if arch.kind == "mlp":
        _blocks(arch, theta)[0][-1, 0] = 0.0  # hidden unit 0's bias
    expected = [False, arch.kind == "mlp"] + [False] * (batch.size - 2)
    marked = fd_kink_rows(ModelState(arch, theta), Batch(x, batch.labels))
    assert marked.tolist() == expected


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_hvp_non_finite_direction_message(value):
    state = ModelState(Arch("quadratic", 3), np.zeros(3))
    batch = Batch(np.ones((2, 3)), np.zeros(2))
    for v in (np.array([1.0, value, 0.0]), np.array([[1.0, 0, 0], [0, value, 0]])):
        with pytest.raises(NumericError, match=r"^a direction holds NaN or inf, or its "
                           r"norm is non-finite: it overflows float64$"):
            hessian_vector_product(state, batch, v)


def test_hvp_direction_whose_norm_overflows():
    state = ModelState(Arch("quadratic", 3), np.zeros(3))
    batch = Batch(np.ones((2, 3)), np.zeros(2))
    # finite, but its squared norm is 1e400
    for v in (np.array([1e200, 0.0, 0.0]), np.array([[1.0, 0, 0], [0, 1e200, 0]])):
        with pytest.raises(NumericError, match="norm is non-finite: it overflows"):
            hessian_vector_product(state, batch, v)


# the widths verify's trial loop stacks: 10 classes, and an MLP-32
STACK_ARCHS = [
    Arch("logistic", 16, classes=10),
    Arch("mlp", 8, hidden=32, classes=10),
    Arch("quadratic", 6),
]


def stack_instance(arch, k, rng, m=300):
    x = rng.normal(size=(m, arch.d_in))
    if arch.kind == "quadratic":
        y = rng.normal(size=m)
    else:
        y = rng.integers(0, arch.classes, size=m)
    return 0.5 * rng.normal(size=(k, arch.param_count)), Batch(x, y)


@pytest.mark.parametrize("k", [1, 3, 8])
@pytest.mark.parametrize("arch", STACK_ARCHS, ids=lambda a: a.kind)
def test_stacked_losses_equal_one_call_per_theta(arch, k):
    thetas, batch = stack_instance(arch, k, np.random.default_rng(40 + k))
    inputs = batch.inputs.copy()
    stacked = _losses(arch, thetas, batch)
    assert stacked.shape == (k, batch.size)
    assert np.array_equal(batch.inputs, inputs)  # the ReLU runs in place
    for theta, row in zip(thetas, stacked):
        single = _losses(arch, theta, batch)
        # in ulps of the loss scale: a small loss is the difference of two
        # larger numbers, so neither its own ulp nor the largest loss's is a
        # sound unit
        loss_scale = rounding_scales(arch, theta, batch)[1]
        assert np.abs(row - single).max() <= 8 * np.spacing(loss_scale)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e308])
@pytest.mark.parametrize("arch", STACK_ARCHS, ids=lambda a: a.kind)
def test_stacked_losses_at_a_non_finite_theta(arch, value):
    thetas, batch = stack_instance(arch, 3, np.random.default_rng(44), m=40)
    thetas[1, 2] = value
    with np.errstate(invalid="ignore", over="ignore"):
        stacked = _losses(arch, thetas, batch)
        singles = [_losses(arch, theta, batch) for theta in thetas]
    # the bad theta's losses are non-finite where one call's are, and the
    # other thetas' losses are untouched
    assert not np.isfinite(stacked[1]).all()
    for row, single in zip(stacked, singles):
        assert np.array_equal(np.isfinite(row), np.isfinite(single))
    for i in (0, 2):
        assert np.abs(stacked[i] - singles[i]).max() <= 8 * np.spacing(singles[i].max())


@pytest.mark.parametrize("arch", STACK_ARCHS, ids=lambda a: a.kind)
def test_stacked_losses_reject_short_rows(arch):
    thetas, batch = stack_instance(arch, 3, np.random.default_rng(45), m=10)
    with pytest.raises(ValueError):
        _losses(arch, thetas[:, :-1], batch)


@pytest.mark.parametrize("k", [1, 2, 4, 8])
@pytest.mark.parametrize("arch", STACK_ARCHS, ids=lambda a: a.kind)
def test_stacked_mean_gradient_equals_one_call_per_theta(arch, k):
    thetas, batch = stack_instance(arch, k, np.random.default_rng(50 + k))
    inputs = batch.inputs.copy()
    stacked = _mean_gradient(arch, thetas, batch)
    assert stacked.shape == thetas.shape
    assert np.array_equal(batch.inputs, inputs)  # the ReLU runs in place
    for theta, row in zip(thetas, stacked):
        single = _mean_gradient(arch, theta, batch)
        # an entry is a sum of m terms of either sign, so its rounding is
        # counted in ulps of the gradient scale, the sum of their magnitudes
        grad_scale = rounding_scales(arch, theta, batch)[0]
        assert np.abs(row - single).max() <= 32 * np.spacing(grad_scale)
