"""Implicit-regularization probe.

Estimates the subsampling-induced one-step loss penalty
R = eta^2/(2N) * (1-p)/p * Tr(H C), where C is the per-sample gradient
covariance (1/(N-1) normalization, which makes the one-step identity exact
under uniform sampling without replacement), and verifies the second-order
one-step prediction against Monte-Carlo subset draws. The verification takes
a list of ratios: the loss, gradient, H grad, Tr(HC) and per-sample gradients
are computed once for all of them, each trial's subset is drawn once and
shared across ratios as nested prefixes, and the trials' stepped losses are
evaluated a chunk of stacked thetas per forward pass, which runs class-major
(scores of shape (K, classes, N); see models._losses). The prediction takes R
at the ratio m/N that the trials realize with their m = floor(pN) rows.
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
    hessian_vector_product,
    mean_gradient,
    mean_loss,
    per_sample_gradients,
)
from .rng import subseed

# Deviations per HVP call in the trace. It fixes the summation order, so it
# is a constant. A call stacks 2 thetas per deviation (theta ± r v). At
# MLP-32 the class-major gradient's one large array is the hidden layer's
# input with its ones row, (2·chunk, 33, N) float64, which the
# backpropagated delta then overwrites: 1.1 MB at chunk 4 and N = 500, and
# 4.2 MB at N = 2000. On a 2-vCPU Xeon (OpenBLAS 1 thread, medians of 3
# fresh processes) one trace took 116, 93, 70, 85 and 86 ms at N = 500 and
# chunk 1, 2, 4, 8 and 16, and 1.08, 1.36, 1.23, 1.31 and 1.21 s at
# N = 2000. With a second such array allocated per call for the delta,
# chunks 4 to 16 took about 190 ms at N = 500 against 80 ms at chunk 2: from
# chunk 4 on, each call page-faulted its fresh arrays in anew, about 500
# faults per call at chunk 4 against 2.
_TRACE_CHUNK = 4

# Trials per stacked forward in verify_one_step_expansion, set by memory.
# Each trial adds a class-major (classes, N) block of scores to the stack. At
# N = 600 and 10 classes (oscibench's blobs-verify) the trial loop's 4,000
# trial losses took 350, 300, 261 and 235 ms at 2, 4, 8 and 16 trials a
# chunk (medians of 4 fresh processes, same machine), but at 16 the peak
# resident memory of a benchmark run rose 0.7 to 0.85 MB over 8 and its
# wall_ref did not fall beyond the runs' spread.
_TRIAL_CHUNK = 8


def lambda_factor(p: float) -> float:
    """Volumetric modulation (1-p)/p; strictly decreasing on (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ParameterDomainError(f"p must be in (0, 1), got {p}")
    return (1.0 - p) / p


def gradient_covariance_trace_hc(state: ModelState, batch: Batch) -> float:
    """Tr(H C) via one HVP quadratic form per sample deviation.

    Tr(HC) = 1/(N-1) * sum_i (g_i - gbar)^T H (g_i - gbar), with the
    deviations taken from per-sample gradients over the full dataset, and
    H (g_i - gbar) the finite-difference HVP of the mean gradient, taken
    _TRACE_CHUNK deviations per call.
    """
    n = batch.size
    if n < 2:
        raise EmptyDatasetError(f"covariance needs N >= 2, got {n}")
    grads = per_sample_gradients(state, batch)
    dev = grads - grads.mean(axis=0)
    total = 0.0
    for start in range(0, n, _TRACE_CHUNK):
        block = dev[start : start + _TRACE_CHUNK]
        hv = hessian_vector_product(state, batch, block)
        total += float(np.einsum("kd,kd->", block, hv))
    return total / (n - 1)


def _eta_squared(eta: float) -> float:
    try:  # Python's float ** raises a bare OverflowError above 1.34e154
        return float(eta) ** 2
    except OverflowError:
        raise NumericError(f"eta**2 overflows float64 at eta={eta}") from None


def estimate_r(
    trace_hc: float, n: int, p: float, eta: float
) -> tuple[float, float]:
    """(lam, R): lam = (1-p)/p and R = eta^2/(2N) * lam * Tr(HC), from a
    trace already computed.

    Tr(HC) does not depend on p, so one trace serves every ratio. At p = 1
    (full data) every step is the full-batch step and lam = R = 0.
    """
    if eta <= 0.0:
        raise ParameterDomainError(f"eta must be > 0, got {eta}")
    if n < 1:
        raise ParameterDomainError(f"n must be >= 1, got {n}")
    if p == 1.0:
        return 0.0, 0.0
    lam = lambda_factor(p)
    return lam, _eta_squared(eta) / (2.0 * n) * lam * trace_hc


def trial_subset_size(p: float, n: int) -> int:
    """floor(pN), the subset size of verify_one_step_expansion's trials.

    ParameterDomainError unless p is in (0, 1] and the size in [1, N].
    """
    if not 0.0 < p <= 1.0:
        raise ParameterDomainError(f"p must be in (0, 1], got {p}")
    m = math.floor(p * n + 1e-9)
    if not 1 <= m <= n:
        raise ParameterDomainError(f"subset size {m} outside [1, {n}] for p={p}")
    return m


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

    Each trial draws a uniform size-m subset, m = floor(pN), takes one SGD
    step with the subset-mean gradient, and evaluates the full-data loss. The
    report compares the MC mean against
    L - eta*||grad L||^2 + eta^2/2 * grad L^T H grad L + R, with R taken at
    the realized ratio m/N (reported as realized_ratio), which is exact in
    expectation for the quadratic model. Everything but the trials and R is
    computed once per call, since it does not depend on p. Trial i owns
    generator subseed(seed, "trial.i") and draws one permutation, whose first
    floor(pN) rows are its subset at every p: the draws are independent of
    execution order, and the subsets are nested prefixes across p (which
    makes cross-p comparisons paired).
    """
    if len(ratios) == 0:
        raise ParameterDomainError("ratios names no ratio")
    n = batch.size
    sizes = [trial_subset_size(q, n) for q in ratios]
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
        grads = per_sample_gradients(state, batch)

        losses = np.empty((len(ratios), trials))
        for start in range(0, trials, _TRIAL_CHUNK):
            stop = min(start + _TRIAL_CHUNK, trials)
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
        for q, m, row in zip(ratios, sizes, losses):
            # the trials step with m rows, so the subset-mean gradient's
            # covariance carries (N-m)/m, which (1-p)/p equals only when pN is
            # whole
            lam, r_term = estimate_r(trace_hc, n, m / n, eta)
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
