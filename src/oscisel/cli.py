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

from .config import SCHEMA_VERSION, LoadedConfig, load_config
from .data import save_osds
from .errors import ConfigError, FormatError, NumericError, ParameterDomainError
from .regprobe import (
    estimate_r,
    trial_subset_size,
    verify_one_step_expansion,
)
from .schedule import RatioTrajectory, derive_params
from .trainer import (
    SPEC_KEYS,
    _is_number,
    build_datasets,
    build_model,
    datasets_from_spec,
    epoch_lr,
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

    p = sub.add_parser("probe", help="estimate R over saved training snapshots")
    p.add_argument("--config", required=True)
    p.add_argument("--p", required=True, help="comma-separated ratios")

    p = sub.add_parser("verify", help="Monte-Carlo check of the one-step expansion")
    p.add_argument("--config", required=True)
    p.add_argument("--p", required=True, help="comma-separated ratios")
    p.add_argument("--trials", type=int, default=10000)

    p = sub.add_parser("gen-data", help="write a generated dataset to disk")
    p.add_argument("--kind", required=True,
                   choices=["two_moons", "blobs", "gauss_linear"])
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


def _write_run_outputs(loaded: LoadedConfig, result, wall_time: float) -> None:
    out = loaded.out_dir
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "metrics.jsonl", "w") as f:
        for m in result.metrics:
            f.write(_json_line(m.to_record()))
    summary = dict(result.ledger.summary())
    summary.update(
        {
            "schema_version": SCHEMA_VERSION,
            "name": loaded.name,
            "seed": loaded.run.seed,
            "wall_time_s": wall_time,
        }
    )
    with open(out / "summary.json", "w") as f:
        json.dump(summary, f, indent=2)
        f.write("\n")
    np.save(out / "final_theta.npy", result.final_state.theta)


def _cmd_run(args) -> int:
    loaded = load_config(args.config)
    start = time.monotonic()
    result = run_training(loaded.run)
    _write_run_outputs(loaded, result, time.monotonic() - start)
    final = result.metrics[-1]
    print(
        f"run complete: {loaded.out_dir} "
        f"realized_ratio={result.ledger.summary()['realized_ratio']:.4f} "
        f"test_accuracy={final.test_accuracy}"
    )
    return 0


def _cmd_probe(args) -> int:
    loaded = load_config(args.config)
    ratios = _parse_ratio_list(args.p)
    bad = [p for p in ratios if not 0.0 < p < 1.0]
    if bad:
        raise ParameterDomainError(f"--p values must be in (0, 1), got {bad}")
    cfg = loaded.run
    if cfg.probe_every == 0:
        cfg = replace(cfg, probe_every=1)
    result = run_training(cfg)
    n = result.ledger.n

    loaded.out_dir.mkdir(parents=True, exist_ok=True)
    with open(loaded.out_dir / "regprobe.jsonl", "w") as f:
        for p in ratios:
            # one Tr(HC) per snapshot, from the run; only (1-p)/p varies with p
            for epoch, _, trace_hc in result.snapshots:
                # the epoch's learning rate, as in the run's own R_estimate
                lam, r = estimate_r(trace_hc, n, p, epoch_lr(cfg, epoch))
                f.write(
                    _json_line(
                        {
                            "p": p, "epoch": epoch, "trace_HC": trace_hc,
                            "lambda": lam, "R": r, "probes": n, "seed": cfg.seed,
                        }
                    )
                )
    print(f"probe complete: {loaded.out_dir / 'regprobe.jsonl'}")
    return 0


def _cmd_verify(args) -> int:
    loaded = load_config(args.config)
    ratios = _parse_ratio_list(args.p)
    if args.trials < 1:
        raise ParameterDomainError(f"--trials must be >= 1, got {args.trials}")
    cfg = loaded.run
    train, _ = build_datasets(cfg)
    for p in ratios:  # all of them, before regprobe.jsonl is opened
        trial_subset_size(p, train.n)
    state = build_model(cfg, train)
    reports = verify_one_step_expansion(
        state, train, ratios, cfg.learning_rate, args.trials,
        seed=cfg.seed,
    )
    loaded.out_dir.mkdir(parents=True, exist_ok=True)
    with open(loaded.out_dir / "regprobe.jsonl", "w") as f:
        for report in reports:
            report.pop("trial_losses")
            f.write(_json_line({"epoch": 0, **report}))
            # with no spread (p = 1 steps every trial alike) a gap in
            # standard errors would read 0 whatever the gap
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
    train, test = datasets_from_spec(spec, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_osds(train, out / "train.osds")
    save_osds(test, out / "test.osds")
    print(f"wrote {out / 'train.osds'} ({train.n} rows), "
          f"{out / 'test.osds'} ({test.n} rows)")
    return 0


def _load_run_dir(run_dir: Path) -> dict:
    path = run_dir / "summary.json"
    with open(path) as f:
        try:
            summary = json.load(f)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: parse error: {exc}") from exc
    if not isinstance(summary, dict):
        raise FormatError(f"{path}: not a JSON object")
    if summary.get("schema_version") != SCHEMA_VERSION:
        raise FormatError(
            f"{path}: schema_version {summary.get('schema_version')!r} "
            f"does not match {SCHEMA_VERSION!r}"
        )
    if "realized_ratio" not in summary:
        raise FormatError(f"{path}: missing key 'realized_ratio'")
    for key in ("realized_ratio", "wall_time_s"):
        if not _is_number(summary.get(key, 0.0)):
            raise FormatError(f"{path}: {key} must be a number, got {summary[key]!r}")
    if not isinstance(summary.get("name", ""), str):
        raise FormatError(f"{path}: name must be a string, got {summary['name']!r}")
    final_acc = None
    with open(run_dir / "metrics.jsonl") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(
                    f"{run_dir / 'metrics.jsonl'}:{lineno}: parse error: {exc}"
                ) from exc
            if record.get("test_accuracy") is not None:
                final_acc = record["test_accuracy"]
    return {
        "name": summary.get("name", run_dir.name),
        "final_accuracy": final_acc,
        "realized_ratio": summary["realized_ratio"],
        "wall_time_s": summary.get("wall_time_s", 0.0),
    }


def _cmd_report(args) -> int:
    run_dirs = []
    for d in args.in_dirs:
        d = Path(d)
        if (d / "summary.json").exists():
            run_dirs.append(d)
        else:
            run_dirs.extend(
                sorted(p.parent for p in d.glob("*/summary.json"))
            )
    if not run_dirs:
        raise _UsageError(f"no completed runs under {args.in_dirs}")
    groups: dict[str, list[dict]] = {}
    for run_dir in run_dirs:
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
