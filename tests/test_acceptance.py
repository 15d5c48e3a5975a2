"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`. The statistical criteria
(4-7) use fixed seeds, so their outcomes are reproducible.
"""

import json
import math
import time

import numpy as np

from oscisel.cli import main
from oscisel.data import gen_gauss_linear
from oscisel.ledger import BudgetLedger
from oscisel.models import (
    Arch,
    Batch,
    ModelState,
    mean_gradient,
    mean_loss,
    per_sample_gradients,
)
from oscisel.regprobe import (
    gradient_covariance_trace_hc,
    lambda_factor,
    verify_one_step_expansion,
)
from oscisel.schedule import RatioTrajectory, derive_params
from oscisel.selection import subset_size
from oscisel.trainer import RunConfig, run_training

GRID_P = [round(0.10 + 0.05 * i, 2) for i in range(17)]
GRID_EPS = [0.01, 0.05, 0.1, 0.2]
GRID = [(p, e) for p in GRID_P for e in GRID_EPS if e < p < 1.0 - e]


def report(criterion, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_schedule_formula_fidelity():
    start = time.monotonic()
    for p, eps in GRID:
        params = derive_params(p, eps)
        assert params.p_high == 1.0 - eps
        if p < 0.5:
            assert params.p_low == eps
            assert params.k == max(
                1, math.ceil((params.p_high - p) / (p - params.p_low) - 1e-12)
            )
        else:
            assert params.k == 1
            assert abs(params.p_low - (2 * p - params.p_high)) < 1e-15
        # linear-scan minimal-k oracle
        k_min = next(
            k for k in range(1, 100_000)
            if (k * params.p_low + params.p_high) / (k + 1) <= p + 1e-12
        )
        assert params.k == k_min
        assert params.period_average() <= p + 1e-12
    elapsed = time.monotonic() - start
    report(1, elapsed < 1.0,
           f"{len(GRID)} grid points, formulas exact, k minimal, {elapsed:.3f}s")


def test_criterion_2_budget_safety():
    start = time.monotonic()
    violations = 0
    for p, eps in GRID:
        traj = RatioTrajectory(derive_params(p, eps), 200)
        for n in (20, 1000):
            ledger = BudgetLedger(n=n, target_ratio=p)
            for epoch in range(200):  # record_epoch re-checks every prefix
                ledger.record_epoch(subset_size(traj.ratio_at(epoch), n))
    elapsed = time.monotonic() - start
    report(2, violations == 0 and elapsed < 10.0,
           f"{len(GRID)}x2 ledgers, T=1..200 prefixes, "
           f"0 violations, {elapsed:.2f}s")


def test_criterion_3_gradient_correctness():
    start = time.monotonic()
    archs = [
        Arch("quadratic", 6),
        Arch("logistic", 4, classes=3),
        Arch("mlp", 3, hidden=5, classes=3),
    ]
    rng = np.random.default_rng(2024)
    worst_fd, worst_consistency = 0.0, 0.0
    for arch in archs:
        for _ in range(20):
            theta = rng.normal(size=arch.param_count)
            m = int(rng.integers(2, 9))
            x = rng.normal(size=(m, arch.d_in))
            if arch.kind == "quadratic":
                y = rng.normal(size=m)
            else:
                y = rng.integers(0, arch.classes, size=m)
            state = ModelState(arch, theta)
            batch = Batch(x, y)
            g = mean_gradient(state, batch)
            fd = np.zeros_like(g)
            h = 1e-6
            for i in range(len(g)):
                tp = theta.copy(); tp[i] += h
                tm = theta.copy(); tm[i] -= h
                fd[i] = (
                    mean_loss(ModelState(arch, tp), batch)
                    - mean_loss(ModelState(arch, tm), batch)
                ) / (2 * h)
            scale = max(np.abs(g).max(), 1e-8)
            worst_fd = max(worst_fd, np.abs(g - fd).max() / scale)
            rows = per_sample_gradients(state, batch)
            worst_consistency = max(
                worst_consistency, np.abs(rows.mean(axis=0) - g).max()
            )
    elapsed = time.monotonic() - start
    report(
        3,
        worst_fd < 1e-5 and worst_consistency < 1e-12 and elapsed < 30.0,
        f"max FD rel err {worst_fd:.2e}, max per-sample/mean gap "
        f"{worst_consistency:.2e}, {elapsed:.1f}s",
    )


def quadratic_instance():
    ds = gen_gauss_linear(200, 20, 0.5, seed=41)
    theta = np.random.default_rng(42).normal(size=20)
    return ModelState(Arch("quadratic", 20), theta), ds


def test_criterion_4_one_step_prediction():
    start = time.monotonic()
    state, batch = quadratic_instance()
    # dense-matrix oracle for Tr(HC)
    x = batch.inputs
    hessian = x.T @ x / batch.size
    grads = per_sample_gradients(state, batch)
    dev = grads - grads.mean(axis=0)
    cov = dev.T @ dev / (batch.size - 1)
    oracle = float(np.trace(hessian @ cov))
    est = gradient_covariance_trace_hc(state, batch)
    trace_ok = abs(est - oracle) / abs(oracle) < 1e-6
    gaps = {}
    for p in (0.1, 0.25, 0.5, 0.75, 0.9):
        rep = verify_one_step_expansion(state, batch, [p], 0.01, 10_000, seed=7)[0]
        gaps[p] = rep["gap_in_se"]
    mc_ok = all(abs(g) <= 3.0 for g in gaps.values())
    elapsed = time.monotonic() - start
    report(
        4,
        trace_ok and mc_ok and elapsed < 120.0,
        f"Tr(HC) rel err {abs(est - oracle) / abs(oracle):.2e}, gaps/SE "
        + ", ".join(f"p={p}:{g:+.2f}" for p, g in gaps.items())
        + f", {elapsed:.1f}s",
    )


def test_criterion_5_penalty_monotonicity():
    start = time.monotonic()
    grid = [i / 100 for i in range(1, 100)]
    lams = [lambda_factor(p) for p in grid]
    strict = all(a > b for a, b in zip(lams, lams[1:]))
    state, batch = quadratic_instance()
    # shared seed => per-trial subsets are nested prefixes: paired comparison
    lo = verify_one_step_expansion(state, batch, [0.25], 0.05, 10_000, seed=11)[0]
    hi = verify_one_step_expansion(state, batch, [0.75], 0.05, 10_000, seed=11)[0]
    diff = lo["trial_losses"] - hi["trial_losses"]
    se = diff.std(ddof=1) / math.sqrt(len(diff))
    ordered = (
        lo["trace_hc"] > 0.0
        and lo["r_term"] > hi["r_term"]
        and diff.mean() > -3.0 * se
        and abs(diff.mean() - (lo["r_term"] - hi["r_term"])) <= 3.0 * se
    )
    elapsed = time.monotonic() - start
    report(
        5,
        strict and ordered and elapsed < 120.0,
        f"lambda strictly decreasing on {len(grid)} points; paired MC gap "
        f"{diff.mean():.3e} vs R gap {lo['r_term'] - hi['r_term']:.3e} "
        f"(se {se:.1e}), {elapsed:.1f}s",
    )


def test_criterion_6_phase_aligned_r_oscillation():
    start = time.monotonic()
    cfg = RunConfig(
        dataset={"kind": "two_moons", "n_train": 2000, "n_test": 500,
                 "noise": 0.2},
        model={"kind": "mlp", "hidden": 32},
        epochs=40, batch_size=32, learning_rate=0.3,
        target_ratio=0.5, margin=0.05, policy="hard_mining",
        seed=0, eval_every=40, probe_every=1,
    )
    result = run_training(cfg)
    rs = [m.R_estimate for m in result.metrics]
    ps = [m.p_t for m in result.metrics]
    assert all(r is not None for r in rs)
    # tau = 2 at p=0.5: epochs pair up as (low, high)
    periods = [(rs[t], rs[t + 1]) for t in range(0, 40, 2)]
    assert all(ps[t] < ps[t + 1] for t in range(0, 40, 2))
    wins = sum(1 for low, high in periods if low > high)
    elapsed = time.monotonic() - start
    report(
        6,
        wins >= 0.9 * len(periods) and elapsed < 300.0,
        f"R(low) > R(high) in {wins}/{len(periods)} periods, {elapsed:.0f}s",
    )


def test_criterion_7_efficiency_generalization_tradeoff():
    start = time.monotonic()
    dataset = {"kind": "two_moons", "n_train": 1000, "n_test": 1000,
               "noise": 0.2, "label_noise": 0.1}
    common = dict(
        dataset=dataset, model={"kind": "mlp", "hidden": 32}, epochs=60,
        batch_size=32, learning_rate=0.3, margin=0.05, eval_every=60,
    )
    variants = {
        "full": dict(target_ratio=1.0, schedule_mode="fixed", policy="random"),
        "neither": dict(target_ratio=0.5, schedule_mode="fixed", policy="random"),
        "mining_only": dict(target_ratio=0.5, schedule_mode="fixed",
                            policy="hard_mining"),
        "osc_only": dict(target_ratio=0.5, schedule_mode="oscillatory",
                         policy="random"),
        "combined": dict(target_ratio=0.5, schedule_mode="oscillatory",
                     policy="hard_mining"),
    }
    accs = {}
    for name, overrides in variants.items():
        runs = [
            run_training(RunConfig(seed=seed, **common, **overrides))
            for seed in range(5)
        ]
        accs[name] = np.array([r.metrics[-1].test_accuracy for r in runs])
        for r in runs:  # every variant honors its budget
            assert r.ledger.summary()["realized_ratio"] <= (
                overrides["target_ratio"] + 1.0 / 1000
            )

    def pooled_std(a, b):
        return math.sqrt((a.var(ddof=1) + b.var(ddof=1)) / 2.0)

    def geq(a, b):  # ordering may not break beyond one pooled std
        return accs[a].mean() >= accs[b].mean() - pooled_std(accs[a], accs[b])

    ok = (
        geq("combined", "neither")
        and accs["full"].mean() - accs["combined"].mean()
        <= 0.01 + pooled_std(accs["full"], accs["combined"])
        and geq("combined", "mining_only")
        and geq("combined", "osc_only")
        and geq("mining_only", "neither")
        and geq("osc_only", "neither")
    )
    elapsed = time.monotonic() - start
    detail = ", ".join(
        f"{k}={v.mean():.4f}+-{v.std(ddof=1):.4f}" for k, v in accs.items()
    )
    report(7, ok and elapsed < 600.0, detail + f", {elapsed:.0f}s")


def test_criterion_8_determinism(tmp_path):
    doc = {
        "schema_version": "v1",
        "name": "determinism",
        "dataset": {"kind": "two_moons", "n_train": 200, "n_test": 100,
                    "noise": 0.2},
        "model": {"kind": "mlp", "hidden": 8},
        "epochs": 6, "batch_size": 32, "learning_rate": 0.5,
        "target_ratio": 0.5, "margin": 0.05, "seed": 9,
        "out_dir": str(tmp_path / "a"),
    }
    cfg_a = tmp_path / "a.json"
    cfg_a.write_text(json.dumps(doc))
    doc["out_dir"] = str(tmp_path / "b")
    cfg_b = tmp_path / "b.json"
    cfg_b.write_text(json.dumps(doc))
    assert main(["run", "--config", str(cfg_a)]) == 0
    assert main(["run", "--config", str(cfg_b)]) == 0
    bytes_a = (tmp_path / "a" / "metrics.jsonl").read_bytes()
    bytes_b = (tmp_path / "b" / "metrics.jsonl").read_bytes()
    report(8, bytes_a == bytes_b,
           f"metrics files byte-identical ({len(bytes_a)} bytes)")
