import itertools
import math
import re

import numpy as np
import pytest

import oscisel.models
import oscisel.regprobe

from oscisel.data import gen_blobs, gen_gauss_linear, gen_two_moons
from oscisel.errors import EmptyDatasetError, NumericError, ParameterDomainError
from oscisel.models import (
    Arch,
    Batch,
    ModelState,
    _blocks,
    fd_kink_rows,
    hessian_vector_product,
    mean_gradient,
    mean_loss,
    per_sample_gradients,
)
from oscisel.regprobe import (
    estimate_r,
    gradient_covariance_trace_hc,
    verify_one_step_expansion,
)
from oscisel.rng import subseed
from oscisel.selection import subset_size


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
    assert estimate_r(1.0, 100, 50, 0.1)[0] == 1.0
    assert estimate_r(1.0, 100, 5, 0.1)[0] == 19.0  # (1-p)/p at p = 0.05
    lams = [estimate_r(1.0, 100, m, 0.1)[0] for m in range(1, 101)]
    assert lams[0] == 99.0 and lams[-1] == 0.0
    assert all(a > b for a, b in zip(lams, lams[1:]))
    for m in (0, 101):
        with pytest.raises(ParameterDomainError,
                           match=rf"^subset size must be in \[1, 100\], got {m}$"):
            estimate_r(1.0, 100, m, 0.1)


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


def set_pre_activation(state, batch, row, unit, value):
    """state with the first-layer pre-activation of batch row `row` at hidden
    unit `unit` moved to value, by its bias."""
    theta = state.theta.copy()
    wb1 = _blocks(state.arch, theta)[0]  # a view into theta
    w1, b1 = wb1[:-1], wb1[-1]
    b1[unit] -= batch.inputs[row] @ w1[:, unit] + b1[unit] - value
    return ModelState(state.arch, theta)


def trace_instances():
    """(state, batch) pairs for the trace's row split. A 10-class logistic,
    an MLP-32 and a quadratic; with 2P > N for the first two, so every row
    takes finite differences, and then the closed form's: a 3-class
    logistic, an MLP-4 and a quadratic, with 2P <= N, the MLP-4 with one
    pre-activation 1e-7 from its kink, and a 3-class MLP-4."""
    rng = np.random.default_rng(27)
    logistic = Arch("logistic", 16, classes=10)
    mlp = Arch("mlp", 2, hidden=32, classes=2)
    small_logistic = Arch("logistic", 3, classes=3)  # P = 12, N = 90
    small_mlp = Arch("mlp", 2, hidden=4, classes=2)  # P = 22, N = 120
    mlp3 = Arch("mlp", 2, hidden=4, classes=3)  # P = 27, N = 120
    basis_mlp = (
        ModelState(small_mlp, rng.normal(size=small_mlp.param_count)),
        gen_two_moons(120, 0.2, seed=31),
    )
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
        "basis_logistic": (
            ModelState(small_logistic, 0.5 * rng.normal(size=12)),
            gen_blobs(3, 30, 3, 0.5, seed=32),
        ),
        "basis_mlp": basis_mlp,
        "basis_quadratic": quadratic_setup(n=120, d=8, seed=33),
        "basis_kinked_mlp": (set_pre_activation(*basis_mlp, 0, 3, 1e-7),
                             basis_mlp[1]),
        "basis_mlp3": (
            ModelState(mlp3, rng.normal(size=mlp3.param_count)),
            gen_blobs(3, 40, 2, 0.5, seed=34),
        ),
    }


@pytest.mark.parametrize("kind", ["logistic", "mlp", "quadratic"])
def test_trace_hc_equals_one_deviation_at_a_time(kind):
    state, batch = trace_instances()[kind]
    trace = gradient_covariance_trace_hc(state, batch)
    assert trace == pytest.approx(fd_trace_loop(state, batch), rel=1e-10)


@pytest.mark.parametrize(
    "kind",
    ["basis_logistic", "basis_mlp", "basis_quadratic", "basis_kinked_mlp",
     "basis_mlp3"],
)
def test_basis_trace_hc_equals_one_deviation_at_a_time(kind):
    # with 2P <= N, H comes from models.hessian's closed form on unmarked
    # rows, and the loop's deviations take finite differences at
    # 1e-5 / ||d_i||, so the two differ by the difference's O(r^2)
    # truncation: measured at 1.0e-13 to 1.4e-11 relative
    state, batch = trace_instances()[kind]
    assert 2 * state.arch.param_count <= batch.size
    trace = gradient_covariance_trace_hc(state, batch)
    assert trace == pytest.approx(fd_trace_loop(state, batch), rel=1e-9)


def hvp_calls(state, batch, monkeypatch):
    """(rows of the batch, shape of the directions) of each HVP call the
    trace makes."""
    calls = []

    def counted(state, batch, v):
        calls.append((batch.size, v.shape))
        return hessian_vector_product(state, batch, v)

    monkeypatch.setattr(oscisel.regprobe, "hessian_vector_product", counted)
    gradient_covariance_trace_hc(state, batch)
    return calls


@pytest.mark.parametrize(
    "kind", ["logistic", "mlp", "quadratic", "basis_logistic", "basis_mlp"]
)
def test_trace_hc_makes_one_hvp_call(kind, monkeypatch):
    # the N deviations over every row when 2P > N; with 2P <= N and no row
    # marked, H is models.hessian's closed form and no HVP call is made
    state, batch = trace_instances()[kind]
    n, d = batch.size, state.arch.param_count
    expected = [(n, (n, d))] if 2 * d > n else []
    assert hvp_calls(state, batch, monkeypatch) == expected


def test_trace_hc_on_the_basis_path_sends_marked_rows_every_deviation(monkeypatch):
    state, batch = trace_instances()["basis_kinked_mlp"]
    n, d = batch.size, state.arch.param_count
    assert fd_kink_rows(state, batch).sum() == 1
    assert hvp_calls(state, batch, monkeypatch) == [(1, (n, d))]


ROW_SPLITS = {
    "no_row": lambda n: np.zeros(n, dtype=bool),
    "row_0": lambda n: np.arange(n) == 0,
    "every_other_row": lambda n: np.arange(n) % 2 == 0,
    "every_row": lambda n: np.ones(n, dtype=bool),
}


@pytest.mark.parametrize("split", sorted(ROW_SPLITS))
@pytest.mark.parametrize(
    "kind", ["basis_logistic", "basis_mlp", "basis_quadratic", "basis_mlp3"]
)
def test_trace_hc_does_not_depend_on_the_row_split(kind, split, monkeypatch):
    # away from a kink the finite-difference rows and the closed-form rows
    # differ by the difference's O(r^2) truncation, so the split the rows
    # take moves the trace by that alone: measured at 0 to 1.8e-11
    # relative. Every row is the split 2P > N takes, run here at a size
    # where the closed form also runs
    state, batch = trace_instances()[kind]
    n = batch.size
    assert 2 * state.arch.param_count <= n
    assert not fd_kink_rows(state, batch).any()
    trace = gradient_covariance_trace_hc(state, batch)
    mask = ROW_SPLITS[split](n)
    monkeypatch.setattr(oscisel.regprobe, "fd_kink_rows", lambda state, batch: mask)
    assert gradient_covariance_trace_hc(state, batch) == pytest.approx(trace, rel=1e-9)


@pytest.mark.parametrize(
    "kind", ["logistic", "mlp", "quadratic", "basis_kinked_mlp"]
)
def test_trace_hc_does_not_depend_on_the_hvp_chunk(kind, monkeypatch):
    # each direction's quotient is its own, so the directions stacked per
    # gradient call change no bit of the trace, whether _STACK or
    # _STACK_FLOATS sets them
    state, batch = trace_instances()[kind]
    traces = set()
    for stack in (2, 6, 8, 32):
        for floats in (2**10, 2**14, 2**18):
            monkeypatch.setattr(oscisel.models, "_STACK", stack)
            monkeypatch.setattr(oscisel.models, "_STACK_FLOATS", floats)
            traces.add(gradient_covariance_trace_hc(state, batch))
    assert len(traces) == 1


def check_finite_difference_across_a_kink(kinked, batch, rel):
    trace = gradient_covariance_trace_hc(kinked, batch)
    assert trace == pytest.approx(fd_trace_loop(kinked, batch), rel=rel)
    # a 100 times smaller step does not reach the kink, and an exact HVP
    # would not see it either: the probe is the finite difference
    assert abs(trace - fd_trace_loop(kinked, batch, step=1e-7)) > 0.5 * abs(trace)


def test_trace_hc_is_a_finite_difference_across_a_relu_kink():
    state, batch = trace_instances()["mlp"]
    # sample 0's pre-activation at hidden unit 3 is 1e-7, inside the 1e-5
    # step, so the ReLU's kink falls between theta - rv and theta + rv
    kinked = set_pre_activation(state, batch, 0, 3, 1e-7)
    check_finite_difference_across_a_kink(kinked, batch, rel=1e-10)


def test_basis_trace_hc_is_a_finite_difference_across_a_relu_kink():
    # the marked row keeps one difference per deviation; the other rows take
    # models.hessian's closed form, which the loop's differences miss by
    # their O(r^2) truncation, hence 1e-9
    check_finite_difference_across_a_kink(
        *trace_instances()["basis_kinked_mlp"], rel=1e-9
    )


def test_trace_hc_degenerate_error():
    state, batch = quadratic_setup()
    single = Batch(batch.inputs[:1], batch.labels[:1])
    with pytest.raises(EmptyDatasetError):
        gradient_covariance_trace_hc(state, single)


def test_estimate_r_assembly_and_scaling():
    lam, r = estimate_r(2.5, 120, 60, 0.01)
    assert lam == 1.0
    assert r == 0.01**2 / (2 * 120) * lam * 2.5
    # exact proportionality in eta^2 and in lambda(m)
    _, r2 = estimate_r(2.5, 120, 60, 0.02)
    assert r2 == pytest.approx(4.0 * r, rel=1e-12)
    _, r19 = estimate_r(2.5, 120, 6, 0.01)
    assert r19 == pytest.approx(19.0 * r, rel=1e-12)
    with pytest.raises(ParameterDomainError):
        estimate_r(2.5, 120, 60, 0.0)
    with pytest.raises(ParameterDomainError):
        estimate_r(2.5, 0, 1, 0.01)


def test_estimate_r_full_data_limit():
    n = 10**6
    _, r = estimate_r(2.5, n, n - 1, 0.01)
    assert 0.0 < r < 1e-11
    # m = N is the limit itself, whatever the sign of the trace
    for trace in (2.5, -2.5):
        lam, r = estimate_r(trace, 120, 120, 0.01)
        assert (lam, r) == (0.0, 0.0)
        assert math.copysign(1.0, r) == 1.0
    for m in (0, 121):
        with pytest.raises(ParameterDomainError):
            estimate_r(2.5, 120, m, 0.01)


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
        verify_one_step_expansion(state, batch, [0.0], 0.01, 10)
    with pytest.raises(ParameterDomainError):
        verify_one_step_expansion(state, batch, [1.2], 0.01, 10)


@pytest.mark.parametrize("eta", [0.0, -0.5, math.nan])
def test_verify_rejects_a_bad_eta_before_any_trial(monkeypatch, eta):
    def no_trial(*args, **kwargs):
        raise AssertionError("verify ran a trial")

    monkeypatch.setattr(oscisel.regprobe, "_losses", no_trial)
    state, batch = quadratic_setup(n=50, d=4)
    with pytest.raises(ParameterDomainError, match="^eta must be > 0"):
        verify_one_step_expansion(state, batch, [0.5, 1.0], eta, 10)


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
        estimate_r(1.0, 50, 25, eta)
    # p = 1 has no R term, but the prediction's deterministic part takes eta**2
    with pytest.raises(NumericError, match=message):
        verify_one_step_expansion(state, batch, [1.0], eta, 2)
    assert estimate_r(1.0, 50, 25, 1.3e154)[1] == 1.3e154**2 / 100.0


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
    m = subset_size(p, n)
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
def test_verify_below_one_row_per_ratio_takes_one_row(kind):
    state, batch = small_instances()[kind]
    n = batch.size
    p = 0.5 / n  # floor(pN) = 0
    report = verify_one_step_expansion(state, batch, [p], 0.05, 19, seed=3)[0]
    assert report["m"] == 1 and report["realized_ratio"] == 1 / n
    assert report["lambda"] == n - 1
    reference = one_trial_at_a_time(state, batch, p, 0.05, 19, seed=3)
    np.testing.assert_allclose(report["trial_losses"], reference,
                               rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("kind", ["quadratic", "logistic", "mlp"])
def test_verify_does_not_depend_on_the_stack_size(kind, monkeypatch):
    # each trial's losses are their own rows of a stacked forward and each
    # HVP direction's quotient is its own, so the thetas per class-major call
    # change no bit of a report; 19 trials leave a partial last stack
    state, batch = small_instances()[kind]
    reports = set()
    for stack in (2, 6, 8, 16, 40):
        monkeypatch.setattr(oscisel.models, "_STACK", stack)
        monkeypatch.setattr(oscisel.regprobe, "_STACK", stack)
        rows = verify_one_step_expansion(state, batch, [0.25, 1.0], 0.05, 19, seed=3)
        reports.add(tuple((row["trial_losses"].tobytes(), row["trace_hc"],
                           row["prediction"]) for row in rows))
    assert len(reports) == 1


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
