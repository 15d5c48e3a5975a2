"""Record the reference outputs that run.py checks at the reference seed.

Run from the repository root after a change that is meant to alter outputs:

    python3 oscibench/record_reference.py

It runs one operation of every workload at REFERENCE_SEED and rewrites
reference.json. Each entry carries the workload's fingerprint, so an entry
stops applying when the workload's config changes.
"""

import json
import shutil
import sys

import run  # pins BLAS threads before NumPy loads


def main() -> int:
    run.import_oscisel()
    from bench_workloads import REFERENCE_FILE, REFERENCE_SEED, WORKLOADS, Case

    reference = {}
    work = run.WORK_DIR / "reference"
    try:
        for name, workload in WORKLOADS.items():
            outcome = Case(workload, REFERENCE_SEED, work / name).run_op()
            if outcome.problems:
                sys.exit(f"{name}: {outcome.problems}")
            reference[name] = {
                "seed": REFERENCE_SEED,
                "fingerprint": workload.fingerprint(),
                "values": outcome.values,
            }
            print(f"{name}: {outcome.values}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
