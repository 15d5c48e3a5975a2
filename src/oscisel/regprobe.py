"""Implicit-regularization probe.

Estimates the subsampling-induced one-step loss penalty
R = eta^2/(2N) * (1-p)/p * Tr(H C), where C is the per-sample gradient
covariance (1/(N-1) normalization, which makes the one-step identity exact
under uniform sampling without replacement), and verifies the second-order
one-step prediction against Monte-Carlo subset draws.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EmptyDatasetError, ParameterDomainError
from .models import (
    Batch,
    ModelState,
    hessian_vector_product,
    mean_gradient,
    mean_loss,
    per_sample_gradients,
)
from .rng import subseed

# Deviations per HVP call in the trace. It fixes the summation order, so it
# is a constant; larger chunks measured slower (memory traffic, not calls).
_TRACE_CHUNK = 2


def lambda_factor(p: float) -> float:
    """Volumetric modulation (1-p)/p; strictly decreasing on (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ParameterDomainError(f"p must be in (0, 1), got {p}")
    return (1.0 - p) / p


def full_batch(dataset) -> Batch:
    return Batch(
        inputs=dataset.inputs,
        labels=dataset.labels,
        indices=np.arange(dataset.n, dtype=np.int64),
    )


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
    return lam, eta**2 / (2.0 * n) * lam * trace_hc


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
    p: float,
    eta: float,
    trials: int,
    seed: int = 0,
) -> dict:
    """Monte-Carlo check of the one-step expected-loss prediction.

    Each trial draws a uniform size-floor(pN) subset, takes one SGD step with
    the subset-mean gradient, and evaluates the full-data loss. The report
    compares the MC mean against
    L - eta*||grad L||^2 + eta^2/2 * grad L^T H grad L + R.
    Trial i owns generator subseed(seed, "trial.i"), so the draws are
    independent of execution order and identical across p values (which makes
    cross-p comparisons paired through nested subset prefixes).
    """
    n = batch.size
    m = trial_subset_size(p, n)
    if trials < 1:
        raise ParameterDomainError("trials must be >= 1")

    loss0 = mean_loss(state, batch)
    grad = mean_gradient(state, batch)
    hg = hessian_vector_product(state, batch, grad)
    deterministic = (
        loss0 - eta * float(grad @ grad) + 0.5 * eta**2 * float(grad @ hg)
    )
    trace_hc = gradient_covariance_trace_hc(state, batch)
    lam, r_term = estimate_r(trace_hc, n, p, eta)

    grads = per_sample_gradients(state, batch)
    losses = np.empty(trials)
    for i in range(trials):
        trial_rng = np.random.default_rng(subseed(seed, f"trial.{i}"))
        subset = trial_rng.permutation(n)[:m]
        ghat = grads[subset].mean(axis=0)
        stepped = ModelState(state.arch, state.theta - eta * ghat)
        losses[i] = mean_loss(stepped, batch)

    mc_mean = float(losses.mean())
    mc_se = float(losses.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    prediction = deterministic + r_term
    gap = mc_mean - prediction
    return {
        "p": p,
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
        "trial_losses": losses,
    }
