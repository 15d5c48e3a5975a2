"""Implicit-regularization probe.

Estimates the subsampling-induced one-step loss penalty
R = eta^2/(2N) * (1-p)/p * Tr(H C), where C is the per-sample gradient
covariance (1/(N-1) normalization, which makes the one-step identity exact
under uniform sampling without replacement). R is taken at the subset size
m = selection.subset_size(p, N) = max(1, floor(pN)) that an epoch at ratio
p trains on, so its (1-p)/p is (N-m)/m, from integers. With P parameters
and N rows, Tr(HC) takes H in closed form (models.hessian) when 2P <= N,
and otherwise hands the N centred per-sample gradients to one
finite-difference Hessian-vector product call. It verifies the second-order
one-step prediction against Monte-Carlo subset draws. The verification
takes a list of ratios: the loss, gradient, H grad, Tr(HC) and per-sample
gradients are computed once for all of them, each trial's subset is drawn
once and shared across ratios as nested prefixes, and the trials' stepped
losses are evaluated _STACK stacked thetas per forward pass, which runs
class-major (scores of shape (K, classes, N); see models._losses). The
trials take those m rows, and the prediction takes R at the same m.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .errors import EmptyDatasetError, NumericError, ParameterDomainError
from .models import (
    Batch,
    ModelState,
    _losses,
    _ROW_BLOCK,
    _STACK,
    fd_kink_rows,
    hessian,
    hessian_vector_product,
    mean_gradient,
    mean_loss,
    per_sample_gradients,
)
from .rng import subseed
from .selection import subset_size


def gradient_covariance_trace_hc(state: ModelState, batch: Batch) -> float:
    """Tr(H C) of the batch-mean loss.

    Tr(HC) = 1/(N-1) * sum_i d_i^T H d_i, with d_i = g_i - gbar the
    deviations of the per-sample gradients over the full dataset, the rows
    of D (N, P). With 2P > N the N deviations go to one
    hessian_vector_product call, whose finite-difference HVPs give H d_i.
    Otherwise the sum is <H, D^T D>, with H from models.hessian in closed
    form over the rows that models.fd_kink_rows leaves unmarked, S. On the
    marked rows K a ReLU pre-activation lies within the difference's reach
    of 0, and they keep one finite difference per deviation, in one call
    over those rows, so the trace there is what the 2P > N path takes:

        Tr = [|S| <H_S, D^T D> + |K| sum_i d_i^T H_K d_i] / (N (N-1)),

    H_S and H_K the mean-loss Hessians over S and K. The two paths agree
    to the difference's O(r^2) truncation. Either holds at most two (N, P)
    arrays: the deviations, centred in place, and the N deviation HVPs.
    D^T D and H are summed over models._ROW_BLOCK rows at a time, and H is
    formed once the deviations are freed.
    """
    n = batch.size
    if n < 2:
        raise EmptyDatasetError(f"covariance needs N >= 2, got {n}")
    dev = per_sample_gradients(state, batch)
    dev -= dev.mean(axis=0)
    d = dev.shape[1]
    if 2 * d > n:
        hv = hessian_vector_product(state, batch, dev)
        return float(np.einsum("kd,kd->", dev, hv)) / (n - 1)
    kinked = fd_kink_rows(state, batch)
    total = 0.0
    if kinked.any():
        rows = Batch(batch.inputs[kinked], batch.labels[kinked])
        hv = hessian_vector_product(state, rows, dev)
        total += rows.size * float(np.einsum("kd,kd->", dev, hv))
        del hv
    if not kinked.all():
        rows = Batch(batch.inputs[~kinked], batch.labels[~kinked])
        gram = np.zeros((d, d))
        for start in range(0, n, _ROW_BLOCK):
            block = dev[start : start + _ROW_BLOCK]
            gram += block.T @ block
        del dev, block  # H is formed without the (N, P) array
        h = hessian(state, rows)
        total += rows.size * float(np.einsum("ij,ij->", h, gram))
    return total / (n * (n - 1))


def _eta_squared(eta: float) -> float:
    try:  # Python's float ** raises a bare OverflowError above 1.34e154
        return float(eta) ** 2
    except OverflowError:
        raise NumericError(f"eta**2 overflows float64 at eta={eta}") from None


def estimate_r(
    trace_hc: float, n: int, m: int, eta: float
) -> tuple[float, float]:
    """(lam, R) for steps on a uniform size-m subset of N rows: lam = (N-m)/m
    and R = eta^2/(2N) * lam * Tr(HC), from a trace already computed.

    A size-m subset's mean gradient has covariance (N-m)/(m N) * C, so lam is
    exact at every m, and equals (1-p)/p at m = pN. Tr(HC) does not depend
    on m, so one trace serves every size. At m = N (full data) every step is
    the full-batch step and lam = R = 0.
    """
    if not eta > 0.0:
        raise ParameterDomainError(f"eta must be > 0, got {eta}")
    if not 1 <= m <= n:
        raise ParameterDomainError(f"subset size must be in [1, {n}], got {m}")
    if m == n:
        return 0.0, 0.0
    lam = (n - m) / m
    return lam, _eta_squared(eta) / (2.0 * n) * lam * trace_hc


def verify_one_step_expansion(
    state: ModelState,
    batch: Batch,
    ratios: Sequence[float],
    eta: float,
    trials: int,
    seed: int = 0,
) -> list[dict]:
    """Monte-Carlo check of the one-step expected-loss prediction: one report
    per ratio of ratios, in order; an empty sequence is a ParameterDomainError.

    Each trial draws a uniform size-m subset, m = subset_size(p, N) =
    max(1, floor(pN)), the rows an epoch at ratio p trains on, takes one SGD
    step with the subset-mean gradient, and evaluates the full-data loss. The
    report compares the MC mean against
    L - eta*||grad L||^2 + eta^2/2 * grad L^T H grad L + R, with R taken at
    the same m (m/N is reported as realized_ratio), which is exact in
    expectation for the quadratic model. Everything but the trials and R is
    computed once per call, since it does not depend on p. Trial i owns
    generator subseed(seed, "trial.i") and draws one permutation, whose first
    m rows are its subset at every p: the draws are independent of
    execution order, and the subsets are nested prefixes across p (which
    makes cross-p comparisons paired).
    """
    if len(ratios) == 0:
        raise ParameterDomainError("ratios names no ratio")
    n = batch.size
    sizes = [subset_size(q, n) for q in ratios]
    if trials < 1:
        raise ParameterDomainError("trials must be >= 1")

    # a loss or a step that overflows shows up as a non-finite reported
    # value, which is checked below; NumPy's warnings would only precede it
    with np.errstate(over="ignore", invalid="ignore"):
        loss0 = mean_loss(state, batch)
        grad = mean_gradient(state, batch)
        hg = hessian_vector_product(state, batch, grad)
        deterministic = (
            loss0 - eta * float(grad @ grad)
            + 0.5 * _eta_squared(eta) * float(grad @ hg)
        )
        trace_hc = gradient_covariance_trace_hc(state, batch)
        # computed before the trials, so a bad eta fails before them
        r_terms = [estimate_r(trace_hc, n, m, eta) for m in sizes]
        grads = per_sample_gradients(state, batch)

        losses = np.empty((len(ratios), trials))
        for start in range(0, trials, _STACK):
            stop = min(start + _STACK, trials)
            # rank[t, j] is row j's position in the permutation of trial
            # start + t, so rank < m selects each trial's first m rows
            rank = np.empty((stop - start, n), dtype=np.intp)
            for i in range(start, stop):
                rng = np.random.default_rng(subseed(seed, f"trial.{i}"))
                rank[i - start, rng.permutation(n)] = np.arange(n)
            for row, m in zip(losses, sizes):
                stepped = state.theta - eta * ((rank < m) @ grads / m)
                if not np.isfinite(stepped).all():  # as ModelState
                    raise NumericError("theta contains non-finite entries")
                row[start:stop] = _losses(state.arch, stepped, batch).mean(axis=1)

        reports = []
        for q, m, (lam, r_term), row in zip(ratios, sizes, r_terms, losses):
            mc_mean = float(row.mean())
            # the spread about row[0] is exactly 0 when every trial loss is
            # equal; the spread about the rounded mean need not be
            spread = (row - row[0]).std(ddof=1) if trials > 1 else 0.0
            mc_se = float(spread / math.sqrt(trials))
            prediction = deterministic + r_term
            gap = mc_mean - prediction
            report = {
                "p": q,
                "realized_ratio": m / n,
                "m": m,
                "trials": trials,
                "seed": seed,
                "eta": eta,
                "mc_mean": mc_mean,
                "mc_se": mc_se,
                "deterministic_part": deterministic,
                "r_term": r_term,
                "trace_hc": trace_hc,
                "lambda": lam,
                "prediction": prediction,
                "gap": gap,
                "gap_in_se": gap / mc_se if mc_se > 0.0 else 0.0,
                "trial_losses": row,
            }
            bad = [key for key, value in report.items()
                   if isinstance(value, float) and not math.isfinite(value)]
            if bad:
                raise NumericError(f"verify at p={q}: {', '.join(bad)} not finite")
            reports.append(report)
    return reports
