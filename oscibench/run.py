"""Benchmark for oscisel: one workload per invocation, in a closed loop.

Run from the repository root, which must hold the oscisel sources in src/:

    python3 oscibench/run.py --workload moons-hardmine --seed 0 --seconds 30 --trace 0

One caller in this process issues one operation at a time, and starts
operations until --seconds have passed. Every operation's outputs are
checked (see bench_workloads.py).

With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics; set-up is timed first, in fresh interpreters, and a
fixed reference loop is timed before and after every operation. With
--trace 1, untraced and traced operations alternate and the JSON object holds
the per-layer metrics of the traced ones (see bench_trace.py). The lines
before it give every metric by name and unit, and the environment. A result
file, and with --trace 1 the spans, are written to oscibench/.work/.
"""

import os

# Pinned before NumPy loads: one caller issues one operation at a time, and
# the workloads were sized on a 2-core machine.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
WORK_DIR = BENCH_DIR / ".work"
SETUP_REPEATS = 7
REFERENCE_STEPS = 1000  # about 0.2 s on the machine described in README.md

# import plus build_datasets plus build_model, timed inside a fresh interpreter
_SETUP_CODE = """
import time
t0 = time.perf_counter()
import json, sys
sys.path.insert(0, sys.argv[1])
from oscisel.config import parse_config
from oscisel.trainer import build_datasets, build_model
run = parse_config(json.loads(sys.argv[2])).run
train, _ = build_datasets(run)
build_model(run, train)
print(time.perf_counter() - t0)
"""


def import_oscisel() -> None:
    """Import oscisel from the checkout's src/, never from elsewhere."""
    package = SRC / "oscisel"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no oscisel sources in {package}")
    sys.path.insert(0, str(SRC))
    import oscisel

    if Path(oscisel.__file__).resolve().parent != package:
        sys.exit(f"error: imported oscisel from {oscisel.__file__}, not {package}")


def environment(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # NumPy before 1.25 prints only
        blas = {}
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "load": "closed loop, 1 caller, 1 process",
    }


def setup_seconds(doc: dict) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_CODE, str(SRC), json.dumps(doc)],
        capture_output=True, text=True, timeout=150, check=True,
    )
    return float(proc.stdout.split()[-1])


def reference_loop() -> float:
    """Seconds taken by a fixed loop that shares no code with oscisel.

    A small network's forward and backward pass on a 32-row and a 512-row
    batch, a copy of 100k floats and pure-Python arithmetic: the mix of
    interpreter, small- and medium-kernel and memory work that the
    operations do. Timed before and after every operation, it measures how
    fast the machine runs at that moment.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    batches = (rng.standard_normal((32, 2)), rng.standard_normal((512, 2)))
    w1 = 0.1 * rng.standard_normal((2, 32))
    w2 = 0.1 * rng.standard_normal((32, 1))
    src = rng.standard_normal(100_000)
    dst = np.empty_like(src)
    acc = 0.0
    start = time.perf_counter()
    for _ in range(REFERENCE_STEPS):
        for x in batches:
            h = np.tanh(x @ w1)
            out = h @ w2
            w1 -= 1e-6 * (x.T @ ((out @ w2.T) * (1.0 - h * h)))
            w2 -= 1e-6 * (h.T @ out)
        dst[:] = src
        for j in range(50):
            acc += j * 0.5
    return time.perf_counter() - start


def run_loop(case, seconds: float, tracer) -> list[dict]:
    """Closed loop; with a tracer, every second operation is traced.

    The reference loop runs before the first operation and after each one,
    so every operation is bracketed by two reference timings.
    """
    from bench_workloads import attempt

    ops = []
    deadline = time.perf_counter() + seconds
    reference_loop()  # untimed: the first call runs with cold caches
    ref_before = reference_loop()
    while True:
        traced = tracer is not None and len(ops) % 2 == 1
        if traced:
            tracer.install()
        try:
            wall, outcome, problems = attempt(case)
        finally:
            if traced:
                tracer.uninstall()
        ref_after = reference_loop()
        ops.append({"wall_s": wall, "ref_s": (ref_before + ref_after) / 2.0,
                    "traced": traced, "outcome": outcome, "problems": problems})
        ref_before = ref_after
        enough = tracer is None or len(ops) >= 2
        if enough and time.perf_counter() >= deadline:
            return ops


def check_across(case, ops: list[dict], reference: dict) -> None:
    """Byte-identity across the operations of a run, and the reference."""
    done = [op for op in ops if op["outcome"] is not None]
    if not done:
        return
    first = done[0]["outcome"].digest
    for op in done:
        if op["outcome"].digest != first:
            op["problems"].append("outputs differ from the run's first operation")
        op["problems"] += case.reference_problems(op["outcome"].values, reference)


def tail_percentile(values: list[float]):
    """Highest whole percentile with at least ten samples above it, or None."""
    n = len(values)
    if n < 20:
        return None
    q = math.floor(100 * (n - 10) / n)
    return q, statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(ops, setups, workload) -> tuple[dict, list[str]]:
    """The BENCHMARK.json end-to-end metrics, and readable lines for all eight.

    `wall_ref` is an operation's wall time over the mean of the two reference
    loops around it, `items_per_ref` its work over `wall_ref`; each is the
    median over the run's operations. On a host shared with other tenants the
    machine's speed drifts by 40% or more for minutes at a time; the
    operations and the reference loop slow down together, so their ratio
    stays put while the seconds do not. The seconds are printed too.
    """
    done = [op for op in ops if op["outcome"] is not None]
    # the first operation runs with cold caches; a run where every operation
    # failed still reports its times, though `correct` is false
    timed = done[1:] or done or ops
    walls = [op["wall_s"] for op in timed]
    ratios = [op["wall_s"] / op["ref_s"] for op in timed]
    failed = sum(1 for op in ops if op["problems"])
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "wall_ref": _metric(statistics.median(ratios), "ref"),
        "items_per_ref": _metric(
            statistics.median(op["outcome"].work / r for op, r in zip(timed, ratios))
            if done else 0.0, "1/ref"
        ),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }
    rates = [op["outcome"].work / op["wall_s"] for op in timed if op["outcome"]]
    accuracy = [op["outcome"].test_accuracy for op in done
                if op["outcome"].test_accuracy is not None]
    tail = tail_percentile(walls)
    lines = [
        f"setup_s              {metrics['setup_s']['value']:.4f} s"
        f"  (median of {len(setups)} fresh interpreters)",
        f"wall_ref             {metrics['wall_ref']['value']:.4f} ref"
        f"  (median of {len(ratios)} operations; one ref is the reference loop,"
        f" median {statistics.median(op['ref_s'] for op in timed):.4f} s)",
        f"items_per_ref        {metrics['items_per_ref']['value']:.2f} 1/ref"
        f"  (the work of items_per_s per ref)",
        f"wall_s               {statistics.median(walls):.4f} s"
        f"  (median of {len(walls)} operations; "
        + (f"p{tail[0]} {tail[1]:.4f} s)" if tail else
           "too few for a tail percentile)"),
        f"items_per_s          {statistics.median(rates) if rates else 0.0:.2f} 1/s"
        f"  ({workload.item})",
        f"peak_rss_mb          {metrics['peak_rss_mb']['value']:.1f} MB",
        "test_accuracy        "
        + (f"{statistics.median(accuracy):.6f}" if accuracy else
           "n/a (the operation reports no trained model)"),
        f"error_rate           {failed / len(ops):.4f}  ({failed}/{len(ops)})",
    ]
    return metrics, lines


def per_layer(ops, tracer) -> tuple[dict, list[str]]:
    from bench_trace import LAYER_METRICS, layer_metrics

    metrics, withheld = layer_metrics(tracer)
    traced = [op["wall_s"] for op in ops if op["traced"]]
    plain = [op["wall_s"] for op in ops if not op["traced"]]
    plain = plain[1:] or plain  # the first operation runs with cold caches
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics["trace.overhead_s"] = _metric(overhead, "s")
    self_sum = sum(m["value"] for name, m in metrics.items()
                   if name in LAYER_METRICS and LAYER_METRICS[name][0] == "s")
    lines = [f"{name:34s} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append(
        f"self times sum to {self_sum:.4f} s; untraced wall_s "
        f"{statistics.median(plain):.4f} s over {len(plain)} operations, "
        f"traced {statistics.median(traced):.4f} s over {len(traced)}"
    )
    if withheld:
        lines.append(f"missing hooks: {', '.join(tracer.missing)}")
        lines.append(f"withheld metrics: {', '.join(withheld)}")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_oscisel()
    sys.path.insert(0, str(BENCH_DIR))
    from bench_trace import Tracer
    from bench_workloads import WORKLOADS, Case, load_reference

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    env = environment(args)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    case_dir = WORK_DIR / f"{tag}-{os.getpid()}"
    try:
        case = Case(workload, args.seed, case_dir)
        setups = []
        if not args.trace:
            doc = workload.doc(args.seed, case.out_dir)
            setups = [setup_seconds(doc) for _ in range(SETUP_REPEATS)]
        tracer = Tracer() if args.trace else None
        ops = run_loop(case, args.seconds, tracer)
        check_across(case, ops, load_reference())
    finally:
        shutil.rmtree(case_dir, ignore_errors=True)

    if args.trace:
        metrics, lines = per_layer(ops, tracer)
        tracer.write(WORK_DIR / f"spans-{tag}.json")
    else:
        metrics, lines = end_to_end(ops, setups, workload)
    failures = [p for op in ops for p in op["problems"]]
    (WORK_DIR / f"result-{tag}.json").write_text(json.dumps({
        "environment": env,
        "walls_s": [op["wall_s"] for op in ops],
        "refs_s": [op["ref_s"] for op in ops],
        "traced": [op["traced"] for op in ops],
        "setups_s": setups,
        "metrics": metrics,
        "failures": failures,
        "missing_hooks": tracer.missing if tracer else [],
    }, indent=1))

    print(f"oscibench {tag}")
    print("environment " + json.dumps(env))
    for line in lines:
        print(line)
    for problem in failures:
        print(f"FAILED: {problem}", file=sys.stderr)
    failed = sum(1 for op in ops if op["problems"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
