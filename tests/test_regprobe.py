import itertools
import math
import re

import numpy as np
import pytest

import oscisel.regprobe

from oscisel.data import gen_blobs, gen_gauss_linear, gen_two_moons
from oscisel.errors import EmptyDatasetError, NumericError, ParameterDomainError
from oscisel.models import (
    Arch,
    Batch,
    ModelState,
    _layers,
    mean_gradient,
    mean_loss,
    per_sample_gradients,
)
from oscisel.regprobe import (
    estimate_r,
    gradient_covariance_trace_hc,
    lambda_factor,
    verify_one_step_expansion,
)
from oscisel.rng import subseed


def quadratic_setup(n=120, d=8, seed=7):
    ds = gen_gauss_linear(n, d, 0.5, seed=seed)
    theta = np.random.default_rng(seed).normal(size=d)
    return ModelState(Arch("quadratic", d), theta), ds


def dense_trace_oracle(state, batch, hessian):
    grads = per_sample_gradients(state, batch)
    dev = grads - grads.mean(axis=0)
    cov = dev.T @ dev / (batch.size - 1)
    return float(np.trace(hessian @ cov))


def test_lambda_values_and_monotonicity():
    assert lambda_factor(0.5) == 1.0
    assert lambda_factor(0.05) == pytest.approx(19.0)
    grid = np.linspace(0.01, 0.99, 99)
    lams = [lambda_factor(p) for p in grid]
    assert all(a > b for a, b in zip(lams, lams[1:]))
    with pytest.raises(ParameterDomainError):
        lambda_factor(0.0)
    with pytest.raises(ParameterDomainError):
        lambda_factor(1.0)


def test_trace_hc_quadratic_dense_oracle():
    state, batch = quadratic_setup()
    x = batch.inputs
    oracle = dense_trace_oracle(state, batch, x.T @ x / batch.size)
    est = gradient_covariance_trace_hc(state, batch)
    assert abs(est - oracle) / abs(oracle) < 1e-6


def test_trace_hc_zero_for_identical_gradients():
    # duplicated sample: every per-sample gradient identical, covariance zero
    x = np.tile(np.array([[1.0, 2.0]]), (5, 1))
    y = np.full(5, 3.0)
    state = ModelState(Arch("quadratic", 2), np.array([0.5, -0.5]))
    batch = Batch(x, y)
    assert abs(gradient_covariance_trace_hc(state, batch)) < 1e-10


def test_trace_hc_logistic_dense_oracle():
    ds = gen_blobs(3, 30, 3, 0.5, seed=2)  # N=90
    arch = Arch("logistic", 3, classes=3)  # d=12
    state = ModelState(arch, np.random.default_rng(3).normal(size=12) * 0.5)
    batch = ds
    d = arch.param_count
    dense_h = np.zeros((d, d))
    h = 1e-5
    for i in range(d):
        tp = state.theta.copy(); tp[i] += h
        tm = state.theta.copy(); tm[i] -= h
        dense_h[:, i] = (
            mean_gradient(ModelState(arch, tp), batch)
            - mean_gradient(ModelState(arch, tm), batch)
        ) / (2 * h)
    dense_h = 0.5 * (dense_h + dense_h.T)
    oracle = dense_trace_oracle(state, batch, dense_h)
    est = gradient_covariance_trace_hc(state, batch)
    assert abs(est - oracle) / abs(oracle) < 1e-3


def fd_trace_loop(state, batch, step=1e-5):
    """Reference loop: Tr(HC) one deviation at a time, each HVP a central
    difference of one-theta mean gradients at r = step / max(||v||, 1)."""
    grads = per_sample_gradients(state, batch)
    total = 0.0
    for v in grads - grads.mean(axis=0):
        r = step / max(float(np.linalg.norm(v)), 1.0)
        g_plus = mean_gradient(ModelState(state.arch, state.theta + r * v), batch)
        g_minus = mean_gradient(ModelState(state.arch, state.theta - r * v), batch)
        total += float(v @ ((g_plus - g_minus) / (2.0 * r)))
    return total / (batch.size - 1)


def trace_instances():
    """A 10-class logistic, an MLP-32 and a quadratic (state, batch)."""
    rng = np.random.default_rng(27)
    logistic = Arch("logistic", 16, classes=10)
    mlp = Arch("mlp", 2, hidden=32, classes=2)
    return {
        "logistic": (
            ModelState(logistic, 0.3 * rng.normal(size=logistic.param_count)),
            gen_blobs(10, 6, 16, 1.0, seed=28),
        ),
        "mlp": (
            ModelState(mlp, 0.5 * rng.normal(size=mlp.param_count)),
            gen_two_moons(40, 0.2, seed=29),
        ),
        "quadratic": quadratic_setup(n=50, d=6, seed=30),
    }


@pytest.mark.parametrize("kind", ["logistic", "mlp", "quadratic"])
def test_trace_hc_equals_one_deviation_at_a_time(kind):
    state, batch = trace_instances()[kind]
    trace = gradient_covariance_trace_hc(state, batch)
    assert trace == pytest.approx(fd_trace_loop(state, batch), rel=1e-10)


def test_trace_hc_is_a_finite_difference_across_a_relu_kink():
    state, batch = trace_instances()["mlp"]
    theta = state.theta.copy()
    (w1, b1), _ = _layers(state.arch, theta)  # views into theta
    # sample 0's pre-activation at hidden unit 3 is 1e-7, inside the 1e-5
    # step, so the ReLU's kink falls between theta - rv and theta + rv
    b1[3] -= batch.inputs[0] @ w1[:, 3] + b1[3] - 1e-7
    kinked = ModelState(state.arch, theta)
    trace = gradient_covariance_trace_hc(kinked, batch)
    assert trace == pytest.approx(fd_trace_loop(kinked, batch), rel=1e-10)
    # a 100 times smaller step does not reach the kink, and an exact HVP
    # would not see it either: the probe is the finite difference
    assert abs(trace - fd_trace_loop(kinked, batch, step=1e-7)) > 0.5 * abs(trace)


def test_trace_hc_degenerate_error():
    state, batch = quadratic_setup()
    single = Batch(batch.inputs[:1], batch.labels[:1])
    with pytest.raises(EmptyDatasetError):
        gradient_covariance_trace_hc(state, single)


def test_estimate_r_assembly_and_scaling():
    lam, r = estimate_r(2.5, 120, 0.5, 0.01)
    assert lam == 1.0
    assert r == 0.01**2 / (2 * 120) * lam * 2.5
    # exact proportionality in eta^2 and in lambda(p)
    _, r2 = estimate_r(2.5, 120, 0.5, 0.02)
    assert r2 == pytest.approx(4.0 * r, rel=1e-12)
    _, r19 = estimate_r(2.5, 120, 0.05, 0.01)
    assert r19 == pytest.approx(19.0 * r, rel=1e-12)
    with pytest.raises(ParameterDomainError):
        estimate_r(2.5, 120, 0.5, 0.0)
    with pytest.raises(ParameterDomainError):
        estimate_r(2.5, 0, 0.5, 0.01)


def test_estimate_r_full_data_limit():
    _, r = estimate_r(2.5, 120, 1.0 - 1e-9, 0.01)
    assert abs(r) < 1e-11
    # p = 1 is the limit itself, whatever the sign of the trace
    for trace in (2.5, -2.5):
        lam, r = estimate_r(trace, 120, 1.0, 0.01)
        assert (lam, r) == (0.0, 0.0)
        assert math.copysign(1.0, r) == 1.0
    for p in (0.0, 1.5):
        with pytest.raises(ParameterDomainError):
            estimate_r(2.5, 120, p, 0.01)


def test_one_step_expansion_quadratic_3se():
    state, batch = quadratic_setup(n=200, d=10, seed=11)
    report = verify_one_step_expansion(state, batch, [0.5], 0.01, 3000, seed=5)[0]
    assert abs(report["gap_in_se"]) <= 3.0


def test_one_step_full_batch_deterministic():
    state, batch = quadratic_setup(n=100, d=5, seed=12)
    report = verify_one_step_expansion(state, batch, [1.0], 0.01, 50, seed=5)[0]
    assert report["mc_se"] == 0.0
    assert report["r_term"] == 0.0
    assert abs(report["gap"]) < 1e-9  # quadratic: expansion exact


def test_one_step_r_ordering_paired():
    state, batch = quadratic_setup(n=200, d=10, seed=13)
    lo = verify_one_step_expansion(state, batch, [0.1], 0.05, 3000, seed=9)[0]
    hi = verify_one_step_expansion(state, batch, [0.75], 0.05, 3000, seed=9)[0]
    assert lo["trace_hc"] > 0.0
    assert lo["r_term"] > hi["r_term"]
    # same seed => nested subsets per trial, so the difference is paired
    diff = lo["trial_losses"] - hi["trial_losses"]
    se = diff.std(ddof=1) / np.sqrt(len(diff))
    assert diff.mean() > -3.0 * se
    assert abs(diff.mean() - (lo["r_term"] - hi["r_term"])) <= 3.0 * se


def test_one_step_domain_errors():
    state, batch = quadratic_setup(n=50, d=4)
    with pytest.raises(ParameterDomainError):
        verify_one_step_expansion(state, batch, [0.001], 0.01, 10)
    with pytest.raises(ParameterDomainError):
        verify_one_step_expansion(state, batch, [1.2], 0.01, 10)


@pytest.mark.parametrize(
    "ratios, trials, message",
    [([], 10, "ratios names no ratio"), ([0.5], 0, "trials must be >= 1")],
    ids=["no-ratio", "no-trial"],
)
def test_verify_rejects_an_empty_call_before_any_work(monkeypatch, ratios, trials,
                                                      message):
    def no_work(*args, **kwargs):
        raise AssertionError("verify computed the loss")

    monkeypatch.setattr(oscisel.regprobe, "mean_loss", no_work)
    state, batch = quadratic_setup(n=50, d=4)
    with pytest.raises(ParameterDomainError, match=f"^{message}$"):
        verify_one_step_expansion(state, batch, ratios, 0.01, trials)


@pytest.mark.parametrize("eta", [1.4e154, 1e200])
def test_eta_whose_square_overflows_is_a_numeric_error(eta):
    state, batch = quadratic_setup(n=50, d=4)
    message = "^" + re.escape(f"eta**2 overflows float64 at eta={eta}") + "$"
    with pytest.raises(NumericError, match=message):
        estimate_r(1.0, 50, 0.5, eta)
    # p = 1 has no R term, but the prediction's deterministic part takes eta**2
    with pytest.raises(NumericError, match=message):
        verify_one_step_expansion(state, batch, [1.0], eta, 2)
    assert estimate_r(1.0, 50, 0.5, 1.3e154)[1] == 1.3e154**2 / 100.0


def small_instances():
    """One small (state, batch) per architecture, away from theta = 0."""
    rng = np.random.default_rng(21)
    logistic = Arch("logistic", 4, classes=3)
    mlp = Arch("mlp", 2, hidden=6, classes=2)
    return {
        "quadratic": quadratic_setup(n=90, d=6, seed=22),
        "logistic": (
            ModelState(logistic, 0.5 * rng.normal(size=logistic.param_count)),
            gen_blobs(3, 30, 4, 0.5, seed=23),
        ),
        "mlp": (
            ModelState(mlp, 0.5 * rng.normal(size=mlp.param_count)),
            gen_two_moons(80, 0.2, seed=24),
        ),
    }


def one_trial_at_a_time(state, batch, p, eta, trials, seed):
    """Reference loop: each trial's subset, step and full-data loss alone."""
    n = batch.size
    m = math.floor(p * n + 1e-9)
    grads = per_sample_gradients(state, batch)
    losses = []
    for i in range(trials):
        subset = np.random.default_rng(subseed(seed, f"trial.{i}")).permutation(n)[:m]
        stepped = ModelState(state.arch, state.theta - eta * grads[subset].mean(axis=0))
        losses.append(mean_loss(stepped, batch))
    return np.array(losses)


@pytest.mark.parametrize("kind", ["quadratic", "logistic", "mlp"])
def test_verify_ratio_list_equals_one_call_per_ratio(kind):
    state, batch = small_instances()[kind]
    ratios = [0.75, 0.1, 1.0, 0.5]
    # 19 trials: the last chunk of stacked forwards is a partial one
    rows = verify_one_step_expansion(state, batch, ratios, 0.05, 19, seed=3)
    assert [row["p"] for row in rows] == ratios
    for p, row in zip(ratios, rows):
        one = verify_one_step_expansion(state, batch, [p], 0.05, 19, seed=3)[0]
        assert isinstance(one, dict)
        for key in ("m", "trace_hc", "prediction", "deterministic_part"):
            assert row[key] == one[key]
        np.testing.assert_allclose(row["trial_losses"], one["trial_losses"],
                                   rtol=1e-12, atol=0.0)
        reference = one_trial_at_a_time(state, batch, p, 0.05, 19, seed=3)
        np.testing.assert_allclose(one["trial_losses"], reference,
                                   rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("kind", ["quadratic", "logistic", "mlp"])
def test_verify_full_ratio_trials_take_the_full_step(kind):
    state, batch = small_instances()[kind]
    report = verify_one_step_expansion(state, batch, [1.0], 0.05, 12, seed=4)[0]
    losses = report["trial_losses"]
    full = ModelState(state.arch, state.theta - 0.05 * mean_gradient(state, batch))
    # every trial's subset is the whole dataset, so every loss is one value
    assert np.all(losses == losses[0])
    assert losses[0] == pytest.approx(mean_loss(full, batch), rel=1e-12)
    assert report["mc_se"] == 0.0


def test_verify_overflowing_step_is_a_numeric_error():
    # theta is -1.75e308, each input about 1e-155 and each residual about
    # 1e308, so each per-sample gradient is about 1e153: every gradient norm
    # the HVPs check is finite, and so is eta**2, but theta - eta * ghat is
    # below -1.8e308 and overflows. The losses overflow too, hence errstate.
    x = 1e-155 * (1.0 + np.random.default_rng(25).random((20, 1)))
    state = ModelState(Arch("quadratic", 1), np.array([-1.75e308]))
    batch = Batch(x, np.full(20, -1e308))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="^theta contains non-finite entries$"):
            verify_one_step_expansion(state, batch, [0.5, 1.0], 1e154, 4)


def test_verify_names_the_report_values_that_are_not_finite():
    # 0.5 * (2e154)**2 overflows, so the losses are inf, while every
    # gradient (-1e154 per sample), the stepped theta (1e-6) and eta**2
    # (1e-320) stay finite and no earlier check fires
    state = ModelState(Arch("quadratic", 1), np.zeros(1))
    batch = Batch(np.full((6, 1), 0.5), np.full(6, 2e154))
    message = "verify at p=0.5: mc_mean, mc_se, deterministic_part, prediction, gap"
    with pytest.raises(NumericError, match=f"^{message} not finite$"):
        verify_one_step_expansion(state, batch, [0.5], 1e-160, 4)


@pytest.mark.parametrize("kind", ["quadratic", "logistic", "mlp"])
def test_verify_equal_trial_losses_have_zero_se(kind):
    state, batch = small_instances()[kind]
    # at these trial counts the mean of the equal losses rounds away from
    # their value, so a spread about the mean is 1e-17 to 2e-16, not 0
    for trials in (5, 7, 9, 13):
        report = verify_one_step_expansion(state, batch, [1.0], 0.05, trials, seed=4)[0]
        assert np.all(report["trial_losses"] == report["trial_losses"][0])
        assert report["mc_se"] == 0.0
        assert report["gap_in_se"] == 0.0


def enumerated_mean(state, batch, m, eta):
    """Mean full-data loss after one step, over every size-m subset."""
    grads = per_sample_gradients(state, batch)
    losses = [
        mean_loss(ModelState(state.arch, state.theta - eta * grads[list(s)].mean(axis=0)),
                  batch)
        for s in itertools.combinations(range(batch.size), m)
    ]
    return math.fsum(losses) / len(losses)


def test_verify_predicts_with_the_realized_ratio():
    rng = np.random.default_rng(26)
    state = ModelState(Arch("quadratic", 3), rng.normal(size=3))
    batch = Batch(rng.normal(size=(7, 3)), rng.normal(size=7))
    # pN = 3.5: the trials step with 3 rows, so R carries (7-3)/3, not 1
    report = verify_one_step_expansion(state, batch, [0.5], 0.3, 1)[0]
    assert report["m"] == 3
    assert report["realized_ratio"] == 3 / 7
    assert report["lambda"] == pytest.approx(4 / 3, rel=1e-15)
    # the quadratic model's one-step identity is exact in expectation
    assert report["prediction"] == pytest.approx(
        enumerated_mean(state, batch, 3, 0.3), rel=1e-9
    )


@pytest.mark.parametrize("kind", ["logistic", "mlp"])
def test_verify_gap_shrinks_like_eta_cubed(kind):
    rng = np.random.default_rng(3)
    if kind == "logistic":
        arch = Arch("logistic", 3, classes=3)
        batch = Batch(rng.normal(size=(7, 3)), rng.integers(0, 3, size=7))
    else:
        arch = Arch("mlp", 2, hidden=4, classes=2)
        batch = gen_two_moons(7, 0.2, seed=3)
    state = ModelState(arch, 0.5 * rng.normal(size=arch.param_count))
    gaps = []
    for eta in (0.05, 0.025):
        report = verify_one_step_expansion(state, batch, [0.5], eta, 1)[0]
        gaps.append(enumerated_mean(state, batch, report["m"], eta) - report["prediction"])
    # the expansion drops O(eta^3), so halving eta divides the gap by about
    # 8; an O(eta^2) error, such as R at the wrong ratio, divides it by 4
    assert 7.0 < gaps[0] / gaps[1] < 9.0
