"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:

    python3 -m pytest -q oscibench/test_oscibench.py
"""

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402  (pins BLAS threads, finds src/)

run.import_oscisel()

import oscisel.trainer  # noqa: E402
from bench_trace import (  # noqa: E402
    HOOKS,
    LAYER_METRICS,
    PARENT,
    Tracer,
    layer_metrics,
    self_times,
)
from bench_workloads import WORKLOADS, Case, Outcome, attempt  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def tiny(name: str):
    """The named workload with its data, epochs and trials cut down."""
    workload = WORKLOADS[name]
    config = json.loads(json.dumps(workload.config))
    if workload.kind == "train":
        config["dataset"].update(n_train=2_000, n_test=200)
    elif workload.kind == "probe":
        config["dataset"].update(n_train=40, n_test=20)
        config["epochs"] = 2
    else:
        config["dataset"].update(per_class=5)
    return dataclasses.replace(workload, config=config, trials=min(workload.trials, 20))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_each_workload_runs_at_tiny_size(name, tmp_path):
    case = Case(tiny(name), 3, tmp_path)
    tracer = Tracer()
    _, plain, problems = attempt(case)
    assert problems == []
    tracer.install()
    try:
        traced_wall, traced, problems = attempt(case)
    finally:
        tracer.uninstall()
    assert problems == []
    assert plain.work > 0
    # the wrappers do not change the arithmetic
    assert traced.digest == plain.digest
    assert tracer.missing == []
    assert len(tracer.roots()) == 1
    values, withheld = layer_metrics(tracer)
    assert withheld == []
    assert set(values) == set(LAYER_METRICS)
    # the self times of the layers partition the traced operation
    self_sum = sum(values[n]["value"] for n, (unit, _) in LAYER_METRICS.items()
                   if unit == "s")
    assert self_sum == pytest.approx(traced_wall, rel=0.05)


def test_self_times_sum_to_the_parent_span():
    fake = types.ModuleType("fake_layers")
    # callers resolve each other through the module's globals, as in oscisel
    exec(
        "def inner(k):\n    return sum(range(k))\n"
        "def middle(k):\n    return inner(k) + inner(2 * k)\n"
        "def outer(k):\n    return middle(k) + inner(k)\n",
        fake.__dict__,
    )
    outer = fake.outer
    sys.modules["fake_layers"] = fake
    tracer = Tracer([("fake_layers", n, n, None) for n in ("outer", "middle", "inner")])
    tracer.install()
    try:
        fake.outer(20_000)
    finally:
        tracer.uninstall()
        del sys.modules["fake_layers"]
    assert fake.outer is outer
    spans = tracer.spans
    assert [s[0] for s in spans] == ["outer", "middle", "inner", "inner", "inner"]
    own = self_times(spans)
    assert all(t >= 0.0 for t in own)
    root = spans[0][2] - spans[0][1]
    assert sum(own) == pytest.approx(root, rel=1e-9)
    # middle's self time excludes exactly its two children
    children = [s for s in spans if s[PARENT] == 1]
    assert own[1] == pytest.approx(
        spans[1][2] - spans[1][1] - sum(s[2] - s[1] for s in children), abs=1e-12
    )


def test_missing_hook_is_reported_by_name():
    original = oscisel.trainer.mean_gradient
    tracer = Tracer(HOOKS + [
        ("oscisel.trainer", "no_such_kernel", "models.mean_gradient", None),
        ("oscisel.no_such_module", "f", "regprobe.trace_hc", None),
    ])
    tracer.install()
    try:
        assert oscisel.trainer.mean_gradient is not original
    finally:
        tracer.uninstall()
    assert oscisel.trainer.mean_gradient is original
    assert tracer.missing == [
        "oscisel.trainer.no_such_kernel", "oscisel.no_such_module.f",
    ]
    tracer.spans.append(["cli.main", 0.0, 1.0, -1, 0, 0])
    values, withheld = layer_metrics(tracer)
    for name in ("models.mean_gradient_s", "models.minibatch_calls",
                 "regprobe.trace_hc_s", "regprobe.trace_grad_rows"):
        assert name in withheld
        assert name not in values
    assert values["cli.self_s"]["value"] == 1.0


def test_hook_whose_counter_no_longer_fits_is_reported_missing():
    fake = types.ModuleType("fake_kernel")
    exec("def kernel(batch):\n    return batch\n", fake.__dict__)
    sys.modules["fake_kernel"] = fake
    # the counter expects a second positional argument the kernel lost
    tracer = Tracer([("fake_kernel", "kernel", "models.mean_gradient",
                      lambda args, kwargs, out: (args[1].size, 0))])
    tracer.install()
    try:
        assert fake.kernel(3) == 3
    finally:
        tracer.uninstall()
        del sys.modules["fake_kernel"]
    assert tracer.missing == ["fake_kernel.kernel"]
    assert "models.mean_gradient_s" in layer_metrics(tracer)[1]


def test_reference_mismatch_is_a_failure(tmp_path):
    workload = WORKLOADS["blobs-verify"]
    entry = {"fingerprint": workload.fingerprint(),
             "values": {"trace_hc": [0.5, 0.5], "sha": "ab"}}
    case = Case(workload, 0, tmp_path)
    close = {"trace_hc": [0.5 * (1 + 1e-10), 0.5], "sha": "ab"}
    assert case.reference_problems(close, {workload.name: entry}) == []
    far = {"trace_hc": [0.5 * (1 + 1e-6), 0.5], "sha": "ac"}
    assert len(case.reference_problems(far, {workload.name: entry})) == 2
    # other seeds are checked for determinism and invariants only
    other = Case(workload, 1, tmp_path / "other")
    assert other.reference_problems(far, {workload.name: entry}) == []


def test_times_are_counted_in_reference_loops():
    def op(wall, ref, work):
        outcome = Outcome(wall_s=wall, work=work, digest="d", values={})
        return {"wall_s": wall, "ref_s": ref, "traced": False,
                "outcome": outcome, "problems": []}

    # the first operation warms the caches and is not timed
    ops = [op(9.0, 0.1, 100), op(2.0, 0.1, 100), op(3.0, 0.2, 100), op(2.4, 0.1, 100)]
    metrics, _ = run.end_to_end(ops, [0.5, 0.7, 0.6], WORKLOADS["moons-hardmine"])
    # wall over ref: 20, 15, 24; work over that: 5, 6.67, 4.17
    assert metrics["wall_ref"]["value"] == pytest.approx(20.0)
    assert metrics["items_per_ref"]["value"] == pytest.approx(5.0)
    assert metrics["setup_s"]["value"] == pytest.approx(0.6)
    assert run.reference_loop() > 0.0


@pytest.mark.parametrize("trace", [0, 1])
def test_last_line_holds_the_declared_metrics(trace, tmp_path, monkeypatch):
    monkeypatch.setitem(WORKLOADS, "moons-probe", tiny("moons-probe"))
    monkeypatch.setattr(run, "WORK_DIR", tmp_path)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run.main(["--workload", "moons-probe", "--seed", "5",
                         "--seconds", "0.1", "--trace", str(trace)])
    assert code == 0
    result = json.loads(stdout.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1 + trace
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(BENCH_DIR.parent / path, tmp_path / path,
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "moons-probe",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
