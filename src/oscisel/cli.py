"""Command-line entry point.

Subcommands: derive, run, probe, verify, gen-data, report. Exit status is 0
on success, 1 on usage errors (bad flags, missing files, invalid configs),
2 on runtime errors. All randomness comes from the config seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import (
    SCHEMA_VERSION, SPEC_KEYS, is_number, json_object, load_config, read_text,
)
from .data import DATASETS, datasets_from_spec, is_finite, save_osds
from .errors import ConfigError, FormatError, NumericError, ParameterDomainError
from .regprobe import estimate_r, verify_one_step_expansion
from .schedule import RatioTrajectory, derive_params
from .selection import subset_size
from .trainer import (
    build_datasets,
    build_model,
    run_training,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want exit 1
        raise _UsageError(message)


# gen-data's dataset flags, each named after the dataset key it sets
# (--n-train -> n_train), with its type and default
_GEN_DATA_FLAGS = {
    "n_train": (int, 1000),
    "n_test": (int, 500),
    "noise": (float, 0.2),
    "label_noise": (float, 0.0),
    "classes": (int, 2),
    "per_class": (int, 100),
    "d_in": (int, 2),
    "spread": (float, 0.2),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _build_parser() -> _Parser:
    parser = _Parser(prog="oscisel", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", help="derive oscillation parameters")
    p.add_argument("--target-ratio", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--epochs", type=int, default=None)

    p = sub.add_parser("run", help="train under a budgeted schedule")
    p.add_argument("--config", required=True)

    p = sub.add_parser("probe", help="retrain, taking Tr(HC) per probed epoch and R per ratio")
    p.add_argument("--config", required=True)
    p.add_argument("--p", required=True, help="comma-separated ratios")

    p = sub.add_parser("verify", help="Monte-Carlo check of the one-step expansion")
    p.add_argument("--config", required=True)
    p.add_argument("--p", required=True, help="comma-separated ratios")
    p.add_argument("--trials", type=int, default=10000)

    p = sub.add_parser("gen-data", help="write a generated dataset to disk")
    p.add_argument("--kind", required=True,
                   choices=[kind for kind, (required, _, _) in DATASETS.items()
                            if required <= _GEN_DATA_FLAGS.keys()])
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    for key, (cast, default) in _GEN_DATA_FLAGS.items():
        # unset flags stay off the namespace, so gen-data sees which were given
        p.add_argument(_flag(key), type=cast, default=argparse.SUPPRESS,
                       help=f"default {default}")

    p = sub.add_parser("report", help="aggregate completed runs into a CSV table")
    p.add_argument("--in", dest="in_dirs", nargs="+", required=True)

    return parser


def _parse_ratio_list(text: str) -> list[float]:
    try:
        ratios = [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise _UsageError(f"bad ratio list {text!r}") from exc
    if not ratios:
        raise _UsageError(f"--p names no ratio: {text!r}")
    return ratios


def _json_line(record: dict) -> str:
    """record as one line of JSON, which holds no NaN or infinity: a
    non-finite value is a NumericError that names its keys."""
    try:
        return json.dumps(record, sort_keys=False, allow_nan=False) + "\n"
    except ValueError:
        bad = [key for key, value in record.items()
               if isinstance(value, float) and not math.isfinite(value)]
        raise NumericError(
            f"cannot write non-finite {', '.join(bad)} as JSON"
        ) from None


def _check_out_dir(path: Path, *files: str) -> None:
    """Reject an output directory that cannot be made, or one of the files a
    command writes into it that cannot be written, before any work runs: the
    path or its nearest existing parent is not a directory, or a file is one.
    Nothing is created, so a failed command leaves no output behind."""
    for existing in (path, *path.parents):
        if existing.exists():
            if existing.is_dir():
                break
            if existing == path:
                raise _UsageError(f"output directory {path} exists and is not "
                                  f"a directory")
            raise _UsageError(f"output directory {path} cannot be made: "
                              f"{existing} is not a directory")
    for name in files:
        if (path / name).is_dir():
            raise _UsageError(f"output file {path / name} is a directory")


def _write(out_dir: Path, texts: dict[str, str]) -> None:
    """Make out_dir and write each named text into it. Callers build every
    text first, so a record that cannot be written leaves no file behind."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (out_dir / name).write_text(text)


def _cmd_derive(args) -> int:
    params = derive_params(args.target_ratio, args.epsilon)
    # built before anything is printed, so a bad --epochs prints nothing
    traj = None
    if args.epochs is not None:
        traj = RatioTrajectory(params=params, total_epochs=args.epochs)
    print(
        f"target_ratio={params.target_ratio} margin={params.margin} "
        f"p_low={params.p_low} p_high={params.p_high} "
        f"k={params.k} period={params.period}"
    )
    if traj is not None:
        print(",".join(repr(r) for r in traj.ratios()))
    return 0


def _cmd_run(args) -> int:
    loaded = load_config(args.config)
    out = loaded.out_dir
    _check_out_dir(out, "metrics.jsonl", "summary.json", "final_theta.npy")
    start = time.monotonic()
    result = run_training(loaded.run)
    summary = {**result.ledger.summary(), "schema_version": SCHEMA_VERSION,
               "name": loaded.name, "seed": loaded.run.seed,
               "wall_time_s": time.monotonic() - start}
    _write(out, {
        "metrics.jsonl": "".join(_json_line(m.to_record()) for m in result.metrics),
        "summary.json": json.dumps(summary, indent=2) + "\n",
    })
    np.save(out / "final_theta.npy", result.final_state.theta)
    print(
        f"run complete: {out} realized_ratio={summary['realized_ratio']:.4f} "
        f"test_accuracy={result.metrics[-1].test_accuracy}"
    )
    return 0


def _cmd_probe(args) -> int:
    loaded = load_config(args.config)
    _check_out_dir(loaded.out_dir, "regprobe.jsonl")
    ratios = _parse_ratio_list(args.p)
    for p in ratios:  # (0, 1] at every N, so each is checked before training
        subset_size(p, 1)
    cfg = loaded.run
    if cfg.probe_every == 0:
        cfg = replace(cfg, probe_every=1)
    result = run_training(cfg)
    n = result.ledger.n
    lines = []
    for p in ratios:
        m = subset_size(p, n)
        # one Tr(HC) per snapshot, from the run
        for epoch, _, trace_hc in result.snapshots:
            # the epoch's learning rate, as in the run's own R_estimate
            lam, r = estimate_r(trace_hc, n, m, cfg.learning_rate_at(epoch))
            lines.append(_json_line({
                "p": p, "m": m, "epoch": epoch, "trace_HC": trace_hc,
                "lambda": lam, "R": r, "probes": n, "seed": cfg.seed,
            }))
    _write(loaded.out_dir, {"regprobe.jsonl": "".join(lines)})
    print(f"probe complete: {loaded.out_dir / 'regprobe.jsonl'}")
    return 0


def _cmd_verify(args) -> int:
    loaded = load_config(args.config)
    _check_out_dir(loaded.out_dir, "regprobe.jsonl")
    ratios = _parse_ratio_list(args.p)
    cfg = loaded.run
    train, _ = build_datasets(cfg)
    state = build_model(cfg, train)
    reports = verify_one_step_expansion(
        state, train, ratios, cfg.learning_rate, args.trials,
        seed=cfg.seed,
    )
    for report in reports:
        report.pop("trial_losses")
    _write(loaded.out_dir, {"regprobe.jsonl": "".join(
        _json_line({"epoch": 0, **report}) for report in reports)})
    for report in reports:
        # with no spread (p = 1 steps every trial alike) a gap in standard
        # errors would read 0 whatever the gap
        gap = (
            f"gap_in_se={report['gap_in_se']:.2f}" if report["mc_se"] > 0.0
            else f"gap={report['gap']:.3g}"
        )
        print(
            f"p={report['p']}: mc_mean={report['mc_mean']:.8g} "
            f"prediction={report['prediction']:.8g} {gap}"
        )
    return 0


def _cmd_gen_data(args) -> int:
    required, optional = SPEC_KEYS["dataset"][args.kind]
    read = required | optional
    ignored = [_flag(k) for k in _GEN_DATA_FLAGS if k not in read and hasattr(args, k)]
    if ignored:
        raise _UsageError(f"--kind {args.kind} does not read {', '.join(ignored)}")
    spec = {"kind": args.kind}
    spec.update({k: getattr(args, k, default)
                 for k, (_, default) in _GEN_DATA_FLAGS.items() if k in read})
    out = Path(args.out)
    _check_out_dir(out, "train.osds", "test.osds")
    train, test = datasets_from_spec(spec, args.seed)
    out.mkdir(parents=True, exist_ok=True)
    save_osds(train, out / "train.osds")
    save_osds(test, out / "test.osds")
    print(f"wrote {out / 'train.osds'} ({train.n} rows), "
          f"{out / 'test.osds'} ({test.n} rows)")
    return 0


def _load_run_dir(run_dir: Path) -> dict:
    path = run_dir / "summary.json"
    summary = json_object(read_text(path, FormatError), path, FormatError)
    if summary.get("schema_version") != SCHEMA_VERSION:
        raise FormatError(
            f"{path}: schema_version {summary.get('schema_version')!r} "
            f"does not match {SCHEMA_VERSION!r}"
        )
    if "realized_ratio" not in summary:
        raise FormatError(f"{path}: missing key 'realized_ratio'")
    for key in ("realized_ratio", "wall_time_s"):
        value = summary.get(key, 0.0)
        if not is_number(value):
            raise FormatError(f"{path}: {key} must be a number, got {value!r}")
        if not is_finite(value):
            raise FormatError(f"{path}: {key} must be finite, got {value!r}")
    if not 0.0 < summary["realized_ratio"] <= 1.0:
        raise FormatError(f"{path}: realized_ratio must lie in (0, 1], "
                          f"got {summary['realized_ratio']!r}")
    if summary.get("wall_time_s", 0.0) < 0.0:
        raise FormatError(f"{path}: wall_time_s must be >= 0, "
                          f"got {summary['wall_time_s']!r}")
    if not isinstance(summary.get("name", ""), str):
        raise FormatError(f"{path}: name must be a string, got {summary['name']!r}")
    final_acc = None
    path = run_dir / "metrics.jsonl"
    for lineno, line in enumerate(read_text(path, FormatError).split("\n"), start=1):
        if not line.strip():
            continue
        record = json_object(line, f"{path}:{lineno}", FormatError)
        acc = record.get("test_accuracy")
        if acc is None:
            continue
        if not is_number(acc):
            raise FormatError(f"{path}:{lineno}: test_accuracy must be a number "
                              f"or null, got {acc!r}")
        if not 0.0 <= acc <= 1.0:  # NaN included
            raise FormatError(f"{path}:{lineno}: test_accuracy must lie in "
                              f"[0, 1], got {acc!r}")
        final_acc = acc
    return {
        "name": summary.get("name", run_dir.name),
        "final_accuracy": final_acc,
        "realized_ratio": summary["realized_ratio"],
        "wall_time_s": summary.get("wall_time_s", 0.0),
    }


def _cmd_report(args) -> int:
    # resolved path -> run directory, in first-seen order, so a run that
    # --in names twice (or names and contains) counts once
    run_dirs: dict[Path, Path] = {}
    for d in args.in_dirs:
        d = Path(d)
        found = [d] if (d / "summary.json").exists() else sorted(
            p.parent for p in d.glob("*/summary.json"))
        for run_dir in found:
            run_dirs.setdefault(run_dir.resolve(), run_dir)
    if not run_dirs:
        raise _UsageError(f"no completed runs under {args.in_dirs}")
    groups: dict[str, list[dict]] = {}
    for run_dir in run_dirs.values():
        row = _load_run_dir(run_dir)
        groups.setdefault(row["name"], []).append(row)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["name", "runs", "test_accuracy_mean", "test_accuracy_std",
         "realized_ratio_mean", "wall_time_s_mean"]
    )
    for name in sorted(groups):
        rows = groups[name]
        accs = [r["final_accuracy"] for r in rows if r["final_accuracy"] is not None]
        acc_mean = float(np.mean(accs)) if accs else float("nan")
        acc_std = float(np.std(accs, ddof=1)) if len(accs) > 1 else 0.0
        writer.writerow(
            [
                name, len(rows), f"{acc_mean:.6f}", f"{acc_std:.6f}",
                f"{float(np.mean([r['realized_ratio'] for r in rows])):.6f}",
                f"{float(np.mean([r['wall_time_s'] for r in rows])):.3f}",
            ]
        )
    sys.stdout.write(buf.getvalue())
    return 0


_COMMANDS = {
    "derive": _cmd_derive,
    "run": _cmd_run,
    "probe": _cmd_probe,
    "verify": _cmd_verify,
    "gen-data": _cmd_gen_data,
    "report": _cmd_report,
}

_USAGE_ERRORS = (_UsageError, FileNotFoundError, ConfigError, ParameterDomainError)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
