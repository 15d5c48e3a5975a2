"""Workloads of the oscisel benchmark: configs, one operation each, output checks.

Each workload is one user-level operation repeated in a closed loop:
`run_training` for a hard-mined oscillatory run, `oscisel probe` and
`oscisel verify` through the CLI entry point. The benchmark seed becomes the
config's `seed`; the program sees only the config. Every operation's outputs
are checked: invariants always, byte-identity across the operations of a
run, and, at the pinned reference seed, the values recorded in
`reference.json`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import oscisel.cli
import oscisel.config
import oscisel.trainer

REFERENCE_SEED = 0
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"
RTOL = 1e-8  # trace and prediction values against the reference


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "train" | "probe" | "verify"
    config: dict  # schema-v1 run config without seed and out_dir
    ratios: tuple = ()
    trials: int = 0
    item: str = ""  # what one unit of items_per_s counts

    def doc(self, seed: int, out_dir: Path) -> dict:
        return {"schema_version": "v1", **self.config, "seed": seed,
                "out_dir": str(out_dir)}

    def fingerprint(self) -> str:
        """Digest of everything but the seed that decides the outputs."""
        spec = {"kind": self.kind, "config": self.config,
                "ratios": list(self.ratios), "trials": self.trials}
        return _sha(json.dumps(spec, sort_keys=True).encode())


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="moons-hardmine",
            why="the paper's headline run (hard mining, oscillatory 0.3 budget) "
                "at N=100k, where per-minibatch costs dominate",
            kind="train",
            config={
                "dataset": {"kind": "two_moons", "n_train": 100_000,
                            "n_test": 2_000, "noise": 0.2},
                "model": {"kind": "mlp", "hidden": 32},
                # 4 epochs are one whole period of k=3 low epochs plus one
                # high epoch, so the run ends on a recovery epoch
                "epochs": 4, "batch_size": 32, "learning_rate": 0.3,
                "target_ratio": 0.3, "margin": 0.05, "policy": "hard_mining",
                "schedule_mode": "oscillatory",
            },
            item="train_samples_per_s: ledger training passes",
        ),
        Workload(
            name="moons-probe",
            why="oscisel probe: nearly all time is Tr(HC) per snapshot and p, "
                "while training is tiny",
            kind="probe",
            config={
                "dataset": {"kind": "two_moons", "n_train": 500,
                            "n_test": 500, "noise": 0.2},
                "model": {"kind": "mlp", "hidden": 32},
                "epochs": 3, "batch_size": 32, "learning_rate": 0.3,
                "target_ratio": 0.3,
            },
            ratios=(0.05, 0.95),
            item="probe_rows_per_s: regprobe.jsonl rows",
        ),
        Workload(
            name="blobs-verify",
            why="oscisel verify: full-batch forwards and the Monte-Carlo trial "
                "loop on the logistic model and blobs data",
            kind="verify",
            config={
                "dataset": {"kind": "blobs", "classes": 10, "per_class": 60,
                            "d_in": 16, "spread": 0.5},
                "model": {"kind": "logistic"},
                "epochs": 1, "batch_size": 32, "learning_rate": 0.5,
                "target_ratio": 0.5,
            },
            ratios=(0.25, 0.75),
            trials=2_000,
            item="verify_trials_per_s: trials times p values",
        ),
    ]
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class OpError(Exception):
    """An operation exited non-zero or left no output."""


@dataclass
class Outcome:
    """What one operation produced, reduced to what the checks compare."""

    wall_s: float  # the program call alone, without the output checks
    work: int  # items done, the numerator of items_per_ref
    digest: str  # sha256 over all output bytes, equal across a run
    values: dict  # compared against the reference at the reference seed
    test_accuracy: float | None = None
    problems: list = field(default_factory=list)


class Case:
    """One workload at one seed, with its config file and output directory."""

    def __init__(self, workload: Workload, seed: int, work_dir: Path):
        self.workload = workload
        self.seed = seed
        self.out_dir = work_dir / "out"
        self.config_path = work_dir / "config.json"
        doc = workload.doc(seed, self.out_dir)
        work_dir.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(json.dumps(doc, indent=1))
        self.run_config = oscisel.config.parse_config(doc).run
        self.n_train = oscisel.trainer.build_datasets(self.run_config)[0].n

    def argv(self) -> list[str]:
        w = self.workload
        argv = [w.kind, "--config", str(self.config_path),
                "--p", ",".join(repr(p) for p in w.ratios)]
        if w.kind == "verify":
            argv += ["--trials", str(w.trials)]
        return argv

    def run_op(self) -> Outcome:
        if self.workload.kind == "train":
            return self._train()
        return self._cli()

    def _train(self) -> Outcome:
        start = time.perf_counter()
        # resolved at call time, so a traced run enters through the hook
        result = oscisel.trainer.run_training(self.run_config)
        wall = time.perf_counter() - start
        records = "".join(json.dumps(m.to_record()) + "\n" for m in result.metrics)
        theta = result.final_state.theta
        values = {
            "metrics_sha256": _sha(records.encode()),
            "final_theta_sha256": _sha(theta.tobytes()),
        }
        realized = result.ledger.summary()["realized_ratio"]
        problems = []
        if realized > self.run_config.target_ratio:
            problems.append(
                f"realized_ratio {realized} exceeds target "
                f"{self.run_config.target_ratio}"
            )
        if len(result.metrics) != self.run_config.epochs:
            problems.append(f"{len(result.metrics)} epochs recorded")
        accuracy = result.metrics[-1].test_accuracy
        if accuracy is None or not 0.0 <= accuracy <= 1.0:
            problems.append(f"final test_accuracy {accuracy!r}")
        return Outcome(
            wall_s=wall,
            work=result.ledger.total_passes(),
            digest=_sha(json.dumps(values, sort_keys=True).encode()),
            values=values,
            test_accuracy=accuracy,
            problems=problems,
        )

    def _cli(self) -> Outcome:
        out = self.out_dir / "regprobe.jsonl"
        out.unlink(missing_ok=True)
        console = io.StringIO()
        argv = self.argv()
        start = time.perf_counter()
        with contextlib.redirect_stdout(console), contextlib.redirect_stderr(console):
            code = oscisel.cli.main(argv)
        wall = time.perf_counter() - start
        if code != 0:
            raise OpError(f"exit {code}: {console.getvalue().strip()}")
        if not out.exists():
            raise OpError(f"{out.name} not written")
        data = out.read_bytes()
        rows = [json.loads(line) for line in data.decode().splitlines()]
        check = self._probe_rows if self.workload.kind == "probe" else self._verify_rows
        values, problems = check(rows)
        return Outcome(wall_s=wall, work=self._items(rows), digest=_sha(data),
                       values=values, problems=problems)

    def _items(self, rows) -> int:
        if self.workload.kind == "verify":
            return self.workload.trials * len(rows)
        return len(rows)

    def _probe_rows(self, rows):
        w, cfg = self.workload, self.run_config
        problems = []
        expected = [(p, e) for p in w.ratios for e in range(cfg.epochs)]
        if [(r["p"], r["epoch"]) for r in rows] != expected:
            problems.append(f"rows {[(r['p'], r['epoch']) for r in rows]} != {expected}")
            return {}, problems
        for r in rows:
            if not math.isfinite(r["trace_HC"]):
                problems.append(f"non-finite trace_HC {r}")
            if not _close(r["lambda"], (1.0 - r["p"]) / r["p"], 1e-12):
                problems.append(f"lambda {r['lambda']} for p={r['p']}")
            # R = eta^2/(2N) * lambda * Tr(HC), with the base learning rate
            r_expected = cfg.learning_rate**2 / (2.0 * self.n_train) * r["lambda"] * r["trace_HC"]
            if not _close(r["R"], r_expected, 1e-12):
                problems.append(f"R {r['R']} != {r_expected}")
        traces = [r["trace_HC"] for r in rows]
        # Tr(HC) depends on the snapshot, not on p
        per_p = [traces[i : i + cfg.epochs] for i in range(0, len(traces), cfg.epochs)]
        for other in per_p[1:]:
            if not all(_close(a, b, RTOL) for a, b in zip(per_p[0], other)):
                problems.append(f"trace_HC differs across p: {per_p}")
        return {"trace_HC": traces}, problems

    def _verify_rows(self, rows):
        w = self.workload
        problems = []
        if [r["p"] for r in rows] != list(w.ratios):
            problems.append(f"p values {[r['p'] for r in rows]} != {list(w.ratios)}")
            return {}, problems
        for r in rows:
            if r["trials"] != w.trials:
                problems.append(f"trials {r['trials']} != {w.trials}")
            if r["m"] != math.floor(r["p"] * self.n_train + 1e-9):
                problems.append(f"subset size {r['m']} for p={r['p']}")
            for key in ("mc_mean", "mc_se", "prediction", "trace_hc"):
                if not math.isfinite(r[key]):
                    problems.append(f"non-finite {key} for p={r['p']}")
        if not all(_close(r["trace_hc"], rows[0]["trace_hc"], RTOL) for r in rows):
            problems.append("trace_hc differs across p")
        values = {key: [r[key] for r in rows]
                  for key in ("trace_hc", "mc_mean", "prediction")}
        return values, problems

    def reference_problems(self, values: dict, reference: dict) -> list[str]:
        """Differences from the recorded reference, if it applies to this case."""
        entry = reference.get(self.workload.name)
        if (
            self.seed != REFERENCE_SEED
            or entry is None
            or entry["fingerprint"] != self.workload.fingerprint()
        ):
            return []
        problems = []
        for key, want in entry["values"].items():
            got = values.get(key)
            if isinstance(want, str):
                ok = got == want
            else:
                ok = got is not None and len(got) == len(want) and all(
                    _close(a, b, RTOL) for a, b in zip(got, want)
                )
            if not ok:
                problems.append(f"{key} {got!r} != reference {want!r}")
        return problems


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def load_reference() -> dict:
    if not REFERENCE_FILE.exists():
        return {}
    return json.loads(REFERENCE_FILE.read_text())


def attempt(case: Case) -> tuple[float, Outcome | None, list[str]]:
    """Run one operation; return (wall seconds, outcome or None, problems)."""
    start = time.perf_counter()
    try:
        outcome = case.run_op()
    except Exception as exc:  # noqa: BLE001 - any raise fails the operation
        return time.perf_counter() - start, None, [f"{type(exc).__name__}: {exc}"]
    return outcome.wall_s, outcome, list(outcome.problems)
