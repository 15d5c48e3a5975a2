"""Golden outputs of pinned configs, compared across commits.

The determinism tests elsewhere compare two runs inside one process; these
compare against digests recorded once, so a refactor that claims "same
behaviour" is checked byte for byte. Pinned: the SHA-256 of `final_theta.npy`
and of `metrics.jsonl` (without `R_estimate`) for three small runs, the bytes
of the OSDS files `gen-data` writes, and `oscisel probe` values. R estimates
and Tr(HC) go through finite-difference Hessian-vector products whose
summation order may change, so they are compared to 1e-8 relative instead.
Recorded with Python 3.11 and NumPy 2.4 on x86-64.
"""

import hashlib
import json

import pytest

from oscisel.cli import main

RTOL = 1e-8

RUNS = {
    "mlp-hardmine-oscillatory": {
        "dataset": {"kind": "two_moons", "n_train": 120, "n_test": 60,
                    "noise": 0.2},
        "model": {"kind": "mlp", "hidden": 8},
        "epochs": 4, "batch_size": 16, "learning_rate": 0.5,
        "target_ratio": 0.3, "margin": 0.05, "policy": "hard_mining",
        "schedule_mode": "oscillatory", "probe_every": 1, "seed": 3,
    },
    "logistic-random-fixed": {
        "dataset": {"kind": "blobs", "classes": 3, "per_class": 40, "d_in": 4,
                    "spread": 0.5},
        "model": {"kind": "logistic"},
        "epochs": 3, "batch_size": 16, "learning_rate": 0.3,
        "target_ratio": 0.5, "policy": "random", "schedule_mode": "fixed",
        "momentum": 0.5, "probe_every": 2, "seed": 4,
    },
    "quadratic-gauss-linear": {
        "dataset": {"kind": "gauss_linear", "n_train": 100, "n_test": 50,
                    "d_in": 5, "noise": 0.1},
        "model": {"kind": "quadratic"},
        "epochs": 3, "batch_size": 10, "learning_rate": 0.05,
        "target_ratio": 0.5, "lr_schedule": "cosine", "probe_every": 1,
        "seed": 5,
    },
}

GEN_DATA = {
    "two_moons": ["--n-train", "50", "--n-test", "20", "--noise", "0.3",
                  "--label-noise", "0.1", "--seed", "2"],
    "blobs": ["--classes", "3", "--per-class", "8", "--d-in", "3",
              "--spread", "0.4", "--seed", "1"],
    "gauss_linear": ["--n-train", "30", "--n-test", "10", "--d-in", "4",
                     "--noise", "0.2", "--seed", "7"],
}

PROBE = {
    "dataset": {"kind": "two_moons", "n_train": 60, "n_test": 30, "noise": 0.2},
    "model": {"kind": "mlp", "hidden": 8},
    "epochs": 3, "batch_size": 16, "learning_rate": 0.5, "target_ratio": 0.5,
    "seed": 5,
}
PROBE_RATIOS = "0.05,0.5"

GOLDEN_RUNS = {
    "logistic-random-fixed": {
        "metrics_sha256":
            "658b9222fb893625c1df5d6c45686c58b17a3455c186d6eef46486b48d10a776",
        "final_theta_sha256":
            "1f13e5152aa1583cd7590f64b1b8d86d5acccde46e1d2b17fa565bb99eb4501a",
        "R_estimate": [0.0001541975814252433, None, 3.948247888339525e-05],
    },
    "mlp-hardmine-oscillatory": {
        "metrics_sha256":
            "fd37dd7d1a44a9bdbc2f12af2aed81610b8db4575317cbeca07d2936e1b0d2b6",
        "final_theta_sha256":
            "8104391441ca26a6f8eb7f51a760daaeb575e3adaae4242f8db1b9a8f3e7ba81",
        "R_estimate": [0.01438221607626797, 0.014268351976642106,
                       0.015319340558882953, 4.699029551645792e-05],
    },
    "quadratic-gauss-linear": {
        "metrics_sha256":
            "dcb21ea1d8283bd32bf65579643ab6536b5a2637a509a9f3240b2326ca1e3a19",
        "final_theta_sha256":
            "0d695daf3bff89d1d53d3cce6fafb6fa3e1cd5caf6509af6f11cb2368d724b4a",
        "R_estimate": [0.0051981628078291275, 7.397147728488671e-06,
                       0.00011338993176081905],
    },
}
GOLDEN_GEN_DATA = {
    "blobs": (
        "06cb3596cde3808b6a3f94fa4554d558c82cd856433e1f36a36942c7981511d7",
        "a7f26c6df6c6d416360b6a1d449a2837e5f183b6ba112ccd21bcaf0259ecebd9",
    ),
    "gauss_linear": (
        "e471a5ab39b891302901cfe16426b14141fa83da475d79a24737e460913db0b0",
        "fb39c1cfb03f274f89c8e687d9ac8b45b873238f986c0402400044adf0eba9a1",
    ),
    "two_moons": (
        "19aa020178d06a3978d578a48ed73a862203f16781180a16130ba65494039ad0",
        "db1b8053b13a101670be496b283b2b0b6b11c10048319625a51cf6dfb3ed3377",
    ),
}
GOLDEN_PROBE = {
    "trace_HC": [0.46162530727920154, 0.4669630635218644, 0.4816636944593098,
                 0.46162530727920154, 0.4669630635218644, 0.4816636944593098],
    "R": [0.018272668413135056, 0.01848395459774046, 0.019065854572347676,
          0.0009617193901650032, 0.0009728397156705508, 0.001003466030123562],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_config(tmp_path, doc, out_dir):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"schema_version": "v1", **doc,
                                "out_dir": str(out_dir)}))
    return str(path)


def run_outputs(tmp_path, name):
    """(metrics digest without R_estimate, final_theta digest, R_estimates)."""
    out = tmp_path / name
    assert main(["run", "--config", _write_config(tmp_path, RUNS[name], out)]) == 0
    records = [json.loads(line)
               for line in (out / "metrics.jsonl").read_text().splitlines()]
    r_estimates = [record.pop("R_estimate") for record in records]
    metrics = "".join(json.dumps(record) + "\n" for record in records)
    return (_sha(metrics.encode()), _sha((out / "final_theta.npy").read_bytes()),
            r_estimates)


def gen_data_outputs(tmp_path, kind):
    out = tmp_path / kind
    assert main(["gen-data", "--kind", kind, "--out", str(out),
                 *GEN_DATA[kind]]) == 0
    return (_sha((out / "train.osds").read_bytes()),
            _sha((out / "test.osds").read_bytes()))


def probe_outputs(tmp_path):
    """(trace_HC, R) of every regprobe.jsonl row, in file order."""
    out = tmp_path / "probe"
    assert main(["probe", "--config", _write_config(tmp_path, PROBE, out),
                 "--p", PROBE_RATIOS]) == 0
    rows = [json.loads(line)
            for line in (out / "regprobe.jsonl").read_text().splitlines()]
    return [row["trace_HC"] for row in rows], [row["R"] for row in rows]


def _close(values, expected):
    if len(values) != len(expected):
        return False
    return all(
        (v is None and e is None)
        or (v is not None and e is not None and v == pytest.approx(e, rel=RTOL))
        for v, e in zip(values, expected)
    )


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_outputs_match_golden(tmp_path, name):
    metrics_sha, theta_sha, r_estimates = run_outputs(tmp_path, name)
    golden = GOLDEN_RUNS[name]
    assert metrics_sha == golden["metrics_sha256"]
    assert theta_sha == golden["final_theta_sha256"]
    assert _close(r_estimates, golden["R_estimate"])


@pytest.mark.parametrize("kind", sorted(GEN_DATA))
def test_gen_data_outputs_match_golden(tmp_path, kind):
    assert gen_data_outputs(tmp_path, kind) == GOLDEN_GEN_DATA[kind]


def test_probe_outputs_match_golden(tmp_path):
    traces, rs = probe_outputs(tmp_path)
    assert _close(traces, GOLDEN_PROBE["trace_HC"])
    assert _close(rs, GOLDEN_PROBE["R"])
