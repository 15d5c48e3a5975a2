import argparse
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oscisel.cli
import oscisel.regprobe
import oscisel.trainer
from oscisel.cli import main
from oscisel.config import load_config, parse_config
from oscisel.errors import ConfigError, NumericError
from oscisel.models import ModelState
from oscisel.rng import subseed


# a JSON integer past Python's 4,300-digit limit for str-to-int conversion,
# and the error json.loads raises on it
HUGE_INT = "1" + "0" * 5000
DIGIT_LIMIT = ("invalid JSON: Exceeds the limit (4300 digits) for integer string "
               "conversion: value has 5001 digits; use sys.set_int_max_str_digits() "
               "to increase the limit")


def base_config(out_dir, **overrides):
    doc = {
        "schema_version": "v1",
        "name": "test-run",
        "dataset": {"kind": "two_moons", "n_train": 120, "n_test": 60,
                    "noise": 0.2},
        "model": {"kind": "mlp", "hidden": 8},
        "epochs": 4,
        "batch_size": 32,
        "learning_rate": 0.5,
        "target_ratio": 0.5,
        "margin": 0.05,
        "policy": "hard_mining",
        "seed": 5,
        "out_dir": str(out_dir),
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_derive_prints_params(capsys):
    assert main(["derive", "--target-ratio", "0.3", "--epsilon", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "p_low=0.05" in out
    assert "p_high=0.95" in out
    assert "k=3" in out


def test_derive_with_trajectory(capsys):
    assert main(["derive", "--target-ratio", "0.5", "--epsilon", "0.05",
                 "--epochs", "4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines[1].split(",")) == 4


def test_derive_bad_ratio_is_usage_error(capsys):
    assert main(["derive", "--target-ratio", "1.5", "--epsilon", "0.05"]) == 1


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1


def test_run_missing_config(capsys):
    assert main(["run", "--config", "missing.json"]) == 1
    assert "missing.json" in capsys.readouterr().err


def test_run_writes_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config(tmp_path / "runA"))
    assert main(["run", "--config", str(cfg)]) == 0
    metrics = (tmp_path / "runA" / "metrics.jsonl").read_text().splitlines()
    assert len(metrics) == 4
    record = json.loads(metrics[0])
    assert set(record) == {
        "epoch", "p_t", "n_selected", "cumulative_ratio", "train_loss",
        "test_loss", "test_accuracy", "R_estimate",
    }
    summary = json.loads((tmp_path / "runA" / "summary.json").read_text())
    assert summary["schema_version"] == "v1"
    assert summary["name"] == "test-run"


def test_run_metrics_byte_identical_across_repeats(tmp_path):
    cfg_a = write_config(tmp_path, base_config(tmp_path / "a"), "a.json")
    cfg_b = write_config(tmp_path, base_config(tmp_path / "b"), "b.json")
    assert main(["run", "--config", str(cfg_a)]) == 0
    assert main(["run", "--config", str(cfg_b)]) == 0
    assert (tmp_path / "a" / "metrics.jsonl").read_bytes() == (
        tmp_path / "b" / "metrics.jsonl"
    ).read_bytes()


def test_metrics_round_trip_fixpoint(tmp_path):
    cfg = write_config(tmp_path, base_config(tmp_path / "run"))
    main(["run", "--config", str(cfg)])
    for line in (tmp_path / "run" / "metrics.jsonl").read_text().splitlines():
        assert json.dumps(json.loads(line)) == line


def test_report_single_and_group(tmp_path, capsys):
    for seed in (1, 2, 3):
        doc = base_config(tmp_path / f"s{seed}", seed=seed)
        main(["run", "--config", str(write_config(tmp_path, doc, f"c{seed}.json"))])
    capsys.readouterr()
    assert main(["report", "--in", str(tmp_path)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0].startswith("name,runs,")
    assert out[1].startswith("test-run,3,")
    # mean/std check against the three final accuracies
    accs = []
    for seed in (1, 2, 3):
        lines = (tmp_path / f"s{seed}" / "metrics.jsonl").read_text().splitlines()
        accs.append(json.loads(lines[-1])["test_accuracy"])
    import numpy as np

    fields = out[1].split(",")
    assert float(fields[2]) == pytest.approx(np.mean(accs), abs=1e-6)
    assert float(fields[3]) == pytest.approx(np.std(accs, ddof=1), abs=1e-6)


def test_report_counts_each_run_directory_once(tmp_path, capsys):
    out = tmp_path / "out"
    for seed in (1, 2):
        doc = base_config(out / f"r{seed}", seed=seed)
        main(["run", "--config", str(write_config(tmp_path, doc, f"c{seed}.json"))])

    def report(*dirs):
        capsys.readouterr()
        assert main(["report", "--in", *map(str, dirs)]) == 0
        return capsys.readouterr().out

    both, one = report(out), report(out / "r1")
    assert both.splitlines()[1].startswith("test-run,2,")
    assert one.splitlines()[1].startswith("test-run,1,")
    # a run named twice, or named and found under a directory, counts once
    assert report(out, out / "r1") == report(out / "r1", out) == both
    assert report(out / "r1", out / ".." / "out" / "r1") == one


def test_report_mixed_schema_versions_error(tmp_path, capsys):
    doc = base_config(tmp_path / "run")
    main(["run", "--config", str(write_config(tmp_path, doc))])
    summary_path = tmp_path / "run" / "summary.json"
    summary = json.loads(summary_path.read_text())
    summary["schema_version"] = "v0"
    summary_path.write_text(json.dumps(summary))
    assert main(["report", "--in", str(tmp_path / "run")]) == 2


def test_report_corrupt_metrics_line(tmp_path, capsys):
    doc = base_config(tmp_path / "run")
    main(["run", "--config", str(write_config(tmp_path, doc))])
    metrics_path = tmp_path / "run" / "metrics.jsonl"
    lines = metrics_path.read_text().splitlines()
    lines[2] = "{not json"
    metrics_path.write_text("\n".join(lines) + "\n")
    assert main(["report", "--in", str(tmp_path / "run")]) == 2
    assert ":3:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda s: {k: v for k, v in s.items() if k != "realized_ratio"},
         "missing key 'realized_ratio'"),
        (lambda s: [s], "not a JSON object"),
        (lambda s: "{not json", "invalid JSON: Expecting property name"),
        (lambda s: '{"realized_ratio": ' + HUGE_INT + "}", DIGIT_LIMIT),
        (lambda s: None, "Is a directory"),
        (lambda s: {**s, "realized_ratio": "0.3"}, "realized_ratio must be a number"),
        (lambda s: {**s, "wall_time_s": None}, "wall_time_s must be a number"),
        (lambda s: {**s, "realized_ratio": float("nan")},
         "realized_ratio must be finite, got nan"),
        (lambda s: {**s, "wall_time_s": float("inf")},
         "wall_time_s must be finite, got inf"),
        (lambda s: {**s, "realized_ratio": 10**400},
         "realized_ratio must be finite, got 1000"),
        (lambda s: {**s, "realized_ratio": -5},
         "realized_ratio must lie in (0, 1], got -5"),
        (lambda s: {**s, "realized_ratio": 0},
         "realized_ratio must lie in (0, 1], got 0"),
        (lambda s: {**s, "realized_ratio": 1.5},
         "realized_ratio must lie in (0, 1], got 1.5"),
        (lambda s: {**s, "wall_time_s": -2.0}, "wall_time_s must be >= 0, got -2.0"),
        (lambda s: {**s, "name": 3}, "name must be a string"),
        (lambda s: b"\xff" + json.dumps(s).encode(), "not UTF-8 text: 'utf-8' codec "
         "can't decode byte 0xff in position 0: invalid start byte"),
    ],
    ids=["missing-key", "not-object", "not-json", "int-past-digit-limit", "directory",
         "ratio-str", "wall-null", "ratio-nan",
         "wall-inf", "ratio-huge-int", "ratio-negative", "ratio-zero",
         "ratio-above-one", "wall-negative", "name-int", "not-utf8"],
)
def test_report_malformed_summary_names_the_file(tmp_path, capsys, edit, message):
    doc = base_config(tmp_path / "run")
    main(["run", "--config", str(write_config(tmp_path, doc))])
    summary_path = tmp_path / "run" / "summary.json"
    edited = edit(json.loads(summary_path.read_text()))
    if edited is None:
        summary_path.unlink()
        summary_path.mkdir()
    elif isinstance(edited, bytes):
        summary_path.write_bytes(edited)
    else:
        text = edited if isinstance(edited, str) else json.dumps(edited)
        summary_path.write_text(text)
    capsys.readouterr()
    assert main(["report", "--in", str(tmp_path / "run")]) == 2
    assert f"{summary_path}: {message}" in capsys.readouterr().err


def test_gen_data_roundtrip(tmp_path, capsys):
    assert main(["gen-data", "--kind", "blobs", "--out", str(tmp_path / "ds"),
                 "--classes", "3", "--per-class", "10"]) == 0
    from oscisel.data import load_osds

    train = load_osds(tmp_path / "ds" / "train.osds")
    assert train.n == 30 and train.n_classes == 3


def test_run_on_osds_dataset(tmp_path):
    main(["gen-data", "--kind", "two_moons", "--out", str(tmp_path / "ds"),
          "--n-train", "100", "--n-test", "40"])
    doc = base_config(
        tmp_path / "run",
        dataset={"kind": "osds", "train": str(tmp_path / "ds" / "train.osds"),
                 "test": str(tmp_path / "ds" / "test.osds")},
    )
    assert main(["run", "--config", str(write_config(tmp_path, doc))]) == 0


@pytest.mark.parametrize(
    "fault, model, error",
    [
        ("train inputs", {"kind": "mlp", "hidden": 4},
         "train split: inputs contain non-finite values"),
        ("train targets", {"kind": "quadratic"},
         "train split: targets contain non-finite values"),
        ("test inputs", {"kind": "logistic"},
         "test split: inputs contain non-finite values"),
        ("test labels", {"kind": "logistic"},
         "test split: class labels out of range"),
        ("test width", {"kind": "logistic"},
         "test split: inputs shape (20, 3) incompatible with d_in=2"),
        ("test rows", {"kind": "quadratic"}, "test set is empty"),
    ],
    ids=["train-inputs", "train-targets", "test-inputs", "test-labels", "test-width",
         "test-empty"],
)
def test_run_rejects_a_bad_split_before_any_step(tmp_path, capsys, monkeypatch,
                                                 fault, model, error):
    from oscisel.data import Dataset, save_osds

    rng = np.random.default_rng(4)
    regression = model["kind"] == "quadratic"
    for split, n in (("train", 40), ("test", 0 if fault == "test rows" else 20)):
        inputs = rng.normal(size=(n, 3 if fault == f"{split} width" else 2))
        labels = rng.normal(size=n) if regression else np.arange(n) % 2
        if fault == f"{split} inputs":
            inputs[n // 2, 1] = np.nan
        elif fault == f"{split} targets":
            labels[n // 2] = np.nan
        elif fault == f"{split} labels":
            labels[n // 2] = 2
        save_osds(Dataset(inputs, labels, split, 0 if regression else 2),
                  tmp_path / f"{split}.osds")

    def no_step(*args, **kwargs):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(oscisel.trainer, "mean_gradient", no_step)
    doc = base_config(
        tmp_path / "run", model=model,
        dataset={"kind": "osds", "train": str(tmp_path / "train.osds"),
                 "test": str(tmp_path / "test.osds")},
    )
    assert main(["run", "--config", str(write_config(tmp_path, doc))]) == 2
    assert f"runtime error: {error}\n" in capsys.readouterr().err


def test_verify_rejects_a_bad_train_split_before_any_trial(tmp_path, capsys,
                                                         monkeypatch):
    from oscisel.data import Dataset, save_osds

    rng = np.random.default_rng(6)
    for split in ("train", "test"):
        targets = rng.normal(size=40)
        if split == "train":
            targets[20] = np.nan
        save_osds(Dataset(rng.normal(size=(40, 2)), targets, split, 0),
                  tmp_path / f"{split}.osds")

    def no_verify(*args, **kwargs):
        raise AssertionError("verify_one_step_expansion called")

    monkeypatch.setattr(oscisel.cli, "verify_one_step_expansion", no_verify)
    doc = base_config(
        tmp_path / "verify", model={"kind": "quadratic"},
        dataset={"kind": "osds", "train": str(tmp_path / "train.osds"),
                 "test": str(tmp_path / "test.osds")},
    )
    cfg = write_config(tmp_path, doc)
    assert main(["verify", "--config", str(cfg), "--p", "0.5", "--trials", "20"]) == 2
    assert ("runtime error: train split: targets contain non-finite values\n"
            in capsys.readouterr().err)
    assert not (tmp_path / "verify" / "regprobe.jsonl").exists()


@pytest.mark.parametrize("command", [["run"], ["probe", "--p", "0.5"],
                                     ["verify", "--p", "0.5"]],
                         ids=["run", "probe", "verify"])
def test_an_empty_train_split_fails_every_command_alike(tmp_path, capsys, command):
    from oscisel.data import Dataset, save_osds

    rng = np.random.default_rng(7)
    for split, n in (("train", 0), ("test", 20)):
        save_osds(Dataset(rng.normal(size=(n, 2)), rng.normal(size=n), split, 0),
                  tmp_path / f"{split}.osds")
    doc = base_config(
        tmp_path / "out", model={"kind": "quadratic"},
        dataset={"kind": "osds", "train": str(tmp_path / "train.osds"),
                 "test": str(tmp_path / "test.osds")},
    )
    assert main([command[0], "--config", str(write_config(tmp_path, doc)),
                 *command[1:]]) == 2
    assert capsys.readouterr().err == "runtime error: train set is empty\n"
    assert not (tmp_path / "out").exists()


def test_verify_subcommand(tmp_path, capsys):
    doc = base_config(
        tmp_path / "verify",
        dataset={"kind": "gauss_linear", "n_train": 100, "d_in": 8,
                 "noise": 0.5},
        model={"kind": "quadratic"},
        learning_rate=0.01,
    )
    cfg = write_config(tmp_path, doc)
    assert main(["verify", "--config", str(cfg), "--p", "0.5",
                 "--trials", "500"]) == 0
    records = [
        json.loads(line)
        for line in (tmp_path / "verify" / "regprobe.jsonl").read_text().splitlines()
    ]
    assert records[0]["p"] == 0.5
    assert abs(records[0]["gap_in_se"]) <= 3.0


def test_verify_below_one_row_per_ratio_takes_one_row(tmp_path):
    # 100 rows: p = 0.005 gives floor(0.5) = 0, and an epoch at that ratio
    # trains on max(1, 0) = 1 row
    doc = base_config(
        tmp_path / "verify",
        dataset={"kind": "gauss_linear", "n_train": 100, "d_in": 2},
        model={"kind": "quadratic"},
    )
    cfg = write_config(tmp_path, doc)
    assert main(["verify", "--config", str(cfg), "--p", "0.005",
                 "--trials", "5"]) == 0
    [record] = [
        json.loads(line)
        for line in (tmp_path / "verify" / "regprobe.jsonl").read_text().splitlines()
    ]
    assert (record["p"], record["m"]) == (0.005, 1)
    assert (record["realized_ratio"], record["lambda"]) == (0.01, 99.0)


def test_verify_prints_the_raw_gap_when_trials_do_not_spread(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config(tmp_path / "verify"))
    assert main(["verify", "--config", str(cfg), "--p", "1,0.5",
                 "--trials", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    full, half = [
        json.loads(line)
        for line in (tmp_path / "verify" / "regprobe.jsonl").read_text().splitlines()
    ]
    # at p = 1 every trial takes the full step: no spread, but a gap
    assert full["mc_se"] == 0.0 and full["gap"] != 0.0
    assert full["gap_in_se"] == 0.0
    assert lines[0].endswith(f" gap={full['gap']:.3g}")
    assert lines[1].endswith(f" gap_in_se={half['gap_in_se']:.2f}")


def test_probe_subcommand(tmp_path):
    doc = base_config(tmp_path / "probe", epochs=3,
                      dataset={"kind": "two_moons", "n_train": 60, "n_test": 30,
                               "noise": 0.2})
    cfg = write_config(tmp_path, doc)
    assert main(["probe", "--config", str(cfg), "--p", "0.05,0.95"]) == 0
    records = [
        json.loads(line)
        for line in (tmp_path / "probe" / "regprobe.jsonl").read_text().splitlines()
    ]
    assert len(records) == 6  # 2 ratios x 3 epochs
    assert {r["p"] for r in records} == {0.05, 0.95}


def test_probe_computes_one_trace_per_snapshot(tmp_path, monkeypatch):
    calls = []
    trace = oscisel.regprobe.gradient_covariance_trace_hc

    def counting(state, batch):
        calls.append(state)
        return trace(state, batch)

    monkeypatch.setattr(oscisel.regprobe, "gradient_covariance_trace_hc", counting)
    doc = base_config(tmp_path / "probe", epochs=3,
                      dataset={"kind": "two_moons", "n_train": 60, "n_test": 30,
                               "noise": 0.2})
    cfg = write_config(tmp_path, doc)
    assert main(["probe", "--config", str(cfg), "--p", "0.05,0.95"]) == 0
    assert len(calls) == 3  # 3 snapshots, not 3 x (1 + 2 ratios)
    rows = [json.loads(line) for line in
            (tmp_path / "probe" / "regprobe.jsonl").read_text().splitlines()]
    by_p = {p: [r["trace_HC"] for r in rows if r["p"] == p] for p in (0.05, 0.95)}
    assert by_p[0.05] == by_p[0.95]  # bit-equal: Tr(HC) does not depend on p
    assert len(set(by_p[0.05])) == 3


def test_verify_computes_one_trace_and_one_subset_per_trial(tmp_path, monkeypatch):
    traces, seeds = [], []
    trace = oscisel.regprobe.gradient_covariance_trace_hc
    default_rng = np.random.default_rng

    def counting_trace(state, batch):
        traces.append(state)
        return trace(state, batch)

    def counting_rng(seed=None):
        seeds.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(oscisel.regprobe, "gradient_covariance_trace_hc",
                        counting_trace)
    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    doc = base_config(
        tmp_path / "verify",
        dataset={"kind": "gauss_linear", "n_train": 40, "d_in": 3},
        model={"kind": "quadratic"},
        learning_rate=0.01,
    )
    cfg = write_config(tmp_path, doc)
    assert main(["verify", "--config", str(cfg), "--p", "0.25,0.75",
                 "--trials", "20"]) == 0
    # one trace and one generator per trial for both ratios, not 2 and 2 x 20
    assert len(traces) == 1
    assert seeds == [subseed(5, f"trial.{i}") for i in range(20)]
    rows = [json.loads(line) for line in
            (tmp_path / "verify" / "regprobe.jsonl").read_text().splitlines()]
    assert [row["p"] for row in rows] == [0.25, 0.75]
    assert rows[0]["trace_hc"] == rows[1]["trace_hc"]


@pytest.mark.parametrize("ratios", ["0.5,1.5", "0.0", "nan"])
def test_probe_rejects_bad_ratios_before_training(tmp_path, monkeypatch, capsys,
                                                   ratios):
    def no_training(cfg):
        raise AssertionError("run_training called")

    monkeypatch.setattr(oscisel.cli, "run_training", no_training)
    cfg = write_config(tmp_path, base_config(tmp_path / "probe"))
    assert main(["probe", "--config", str(cfg), "--p", ratios]) == 1
    assert "(0, 1]" in capsys.readouterr().err
    assert not (tmp_path / "probe" / "regprobe.jsonl").exists()


def test_probe_at_full_data_reports_r_zero(tmp_path):
    # p = 1 is in the domain of selection, verify and a fixed-mode run
    cfg = write_config(tmp_path, base_config(tmp_path / "probe", epochs=2))
    assert main(["probe", "--config", str(cfg), "--p", "1.0"]) == 0
    rows = [json.loads(line) for line in
            (tmp_path / "probe" / "regprobe.jsonl").read_text().splitlines()]
    assert [(row["m"], row["lambda"], row["R"]) for row in rows] == [(120, 0.0, 0.0)] * 2


# every file each command writes into its output directory
OUTPUT_FILES = {"run": ["metrics.jsonl", "summary.json", "final_theta.npy"],
                "probe": ["regprobe.jsonl"], "verify": ["regprobe.jsonl"],
                "gen-data": ["train.osds", "test.osds"]}


@pytest.mark.parametrize("command", ["run", "probe", "verify", "gen-data"])
@pytest.mark.parametrize("blocked", ["a-file", "under-a-file", "file-is-a-directory"])
def test_an_output_path_that_cannot_be_a_directory_fails_before_any_work(
        tmp_path, monkeypatch, capsys, command, blocked):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("run_training", "build_datasets", "datasets_from_spec"):
        monkeypatch.setattr(oscisel.cli, name, no_work)

    def fails_creating_nothing(out, message):
        if command == "gen-data":
            argv = ["gen-data", "--kind", "blobs", "--out", str(out)]
        else:
            cfg = write_config(tmp_path, base_config(out))
            flags = {"run": [], "probe": ["--p", "0.5"], "verify": ["--p", "0.5"]}
            argv = [command, "--config", str(cfg), *flags[command]]
        before = sorted(tmp_path.rglob("*"))
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(tmp_path.rglob("*")) == before

    if blocked == "file-is-a-directory":
        # each file in turn, with the files written before it free
        for name in OUTPUT_FILES[command]:
            out = tmp_path / f"out-{name}"
            (out / name).mkdir(parents=True)
            fails_creating_nothing(out, f"output file {out / name} is a directory")
        return
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "out" if blocked == "under-a-file" else blocker
    reason = (f"cannot be made: {blocker} is not a directory"
              if blocked == "under-a-file" else "exists and is not a directory")
    fails_creating_nothing(out, f"output directory {out} {reason}")
    assert blocker.read_text() == ""


@pytest.mark.parametrize(
    "flags", [["--p", "0.5,1.5"], ["--p", "0.5,-0.005"], ["--p", "nan"],
              ["--p", "0.0"], ["--p", "0.5", "--trials", "0"]],
)
def test_verify_rejects_bad_arguments_before_writing(tmp_path, monkeypatch, flags):
    def no_loss(*args, **kwargs):
        raise AssertionError("verify computed a loss")

    # the first computation inside verify_one_step_expansion
    monkeypatch.setattr(oscisel.regprobe, "mean_loss", no_loss)
    doc = base_config(
        tmp_path / "verify",
        dataset={"kind": "gauss_linear", "n_train": 100, "d_in": 2},
        model={"kind": "quadratic"},
    )
    cfg = write_config(tmp_path, doc)
    assert main(["verify", "--config", str(cfg), *flags]) == 1
    assert not (tmp_path / "verify" / "regprobe.jsonl").exists()


@pytest.mark.parametrize("command", ["probe", "verify"])
@pytest.mark.parametrize("ratios", [",", " "])
def test_empty_ratio_list_is_a_usage_error(tmp_path, capsys, command, ratios):
    cfg = write_config(tmp_path, base_config(tmp_path / "out"))
    assert main([command, "--config", str(cfg), "--p", ratios]) == 1
    assert "names no ratio" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_unknown_key_rejected(tmp_path):
    doc = base_config(tmp_path / "run", typo_key=1)
    with pytest.raises(ConfigError, match="unknown keys"):
        load_config(write_config(tmp_path, doc))


def test_config_missing_key_rejected():
    with pytest.raises(ConfigError, match="missing required"):
        parse_config({"schema_version": "v1"})


def test_config_bad_schema_version(tmp_path):
    doc = base_config(tmp_path / "run", schema_version="v2")
    with pytest.raises(ConfigError, match="schema_version"):
        load_config(write_config(tmp_path, doc))


@pytest.mark.parametrize("key", ["out_dir", "name"])
def test_config_file_keys_must_be_strings(tmp_path, capsys, key):
    doc = base_config(tmp_path / "run")
    doc[key] = 5
    assert main(["run", "--config", str(write_config(tmp_path, doc))]) == 1
    assert capsys.readouterr().err == f"error: {key} must be a string, got 5\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "key, value, message",
    [("epochs", 1.5, "epochs must be an integer, got 1.5"),
     ("seed", "0", "seed must be an integer, got '0'"),
     ("momentum", "0.5", "momentum must be a number, got '0.5'"),
     ("eval_every", True, "eval_every must be an integer, got True")],
    ids=["epochs=float", "seed=str", "momentum=str", "eval_every=bool"],
)
def test_bad_root_value_types_name_themselves(tmp_path, capsys, key, value,
                                              message):
    doc = base_config(tmp_path / "run", **{key: value})
    assert main(["run", "--config", str(write_config(tmp_path, doc))]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "run").exists()


def test_a_bad_object_fails_before_the_output_path_and_ratio_checks(tmp_path,
                                                                   capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    doc = base_config(blocker, dataset={"kind": "blobz"})
    cfg = write_config(tmp_path, doc)
    assert main(["probe", "--config", str(cfg), "--p", "1.5"]) == 1
    assert capsys.readouterr().err == "error: unknown dataset kind 'blobz'\n"


def test_config_invalid_is_usage_exit(tmp_path, capsys):
    doc = base_config(tmp_path / "run")
    del doc["epochs"]
    assert main(["run", "--config", str(write_config(tmp_path, doc))]) == 1


@pytest.mark.parametrize(
    "overrides",
    [{"eval_every": 0}, {"probe_every": -1}, {"momentum": -0.5},
     {"momentum": 1.0}, {"epochs": 2.5}, {"batch_size": "32"},
     {"seed": True}, {"learning_rate": "0.5"}],
    ids=["eval_every=0", "probe_every=-1", "momentum=-0.5", "momentum=1",
         "epochs=2.5", "batch_size=str", "seed=bool", "learning_rate=str"],
)
def test_bad_run_values_are_usage_errors(tmp_path, capsys, overrides):
    doc = base_config(tmp_path / "run", **overrides)
    assert main(["run", "--config", str(write_config(tmp_path, doc))]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides",
    [
        {"dataset": {"kind": "two_moons", "n_train": 120, "n_test": 60,
                     "noise": 0.2, "bogus": 1}},
        {"dataset": {"kind": "two_moons", "n_train": 120, "noise": 0.2}},
        {"dataset": {"kind": "gauss_linear", "d_in": 3}},
        {"dataset": {"kind": "nope"}},
        {"dataset": ["two_moons"]},
        {"model": {"kind": "mlp", "hidden": 8, "bogus": 1}},
        {"model": {"kind": "mlp"}},
        {"model": {"kind": "logistic", "hidden": 8}},
    ],
    ids=["dataset-unknown-key", "dataset-missing-n_test",
         "dataset-missing-n_train", "dataset-unknown-kind", "dataset-not-object",
         "model-unknown-key", "model-missing-hidden", "model-extra-hidden"],
)
def test_bad_dataset_and_model_keys_are_usage_errors(tmp_path, capsys, overrides):
    doc = base_config(tmp_path / "run", **overrides)
    assert main(["run", "--config", str(write_config(tmp_path, doc))]) == 1
    assert "error:" in capsys.readouterr().err


def test_optional_dataset_keys_take_defaults(tmp_path):
    for dataset in (
        {"kind": "blobs", "classes": 2, "per_class": 20, "spread": 0.3},
        {"kind": "gauss_linear", "n_train": 40, "d_in": 3},
    ):
        model = {"kind": "quadratic" if dataset["kind"] == "gauss_linear"
                 else "logistic"}
        doc = base_config(tmp_path / dataset["kind"], dataset=dataset, model=model)
        path = write_config(tmp_path, doc, f"{dataset['kind']}.json")
        assert main(["run", "--config", str(path)]) == 0


def test_probe_uses_the_epoch_learning_rate(tmp_path):
    doc = base_config(tmp_path / "run", epochs=3, lr_schedule="cosine",
                      probe_every=1,
                      dataset={"kind": "two_moons", "n_train": 60, "n_test": 30,
                               "noise": 0.2})
    assert main(["run", "--config", str(write_config(tmp_path, doc))]) == 0
    metrics = [json.loads(line) for line in
               (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()]
    ratios = sorted({m["p_t"] for m in metrics})
    assert len(ratios) == 2  # the low and the high phase
    doc["out_dir"] = str(tmp_path / "probe")
    cfg = write_config(tmp_path, doc, "probe.json")
    assert main(["probe", "--config", str(cfg),
                 "--p", ",".join(repr(p) for p in ratios)]) == 0
    rows = [json.loads(line) for line in
            (tmp_path / "probe" / "regprobe.jsonl").read_text().splitlines()]
    for m in metrics:
        row = next(r for r in rows if r["epoch"] == m["epoch"] and r["p"] == m["p_t"])
        assert row["R"] == pytest.approx(m["R_estimate"], rel=1e-12)


def _write_tiny_idx(directory):
    """Two 2x2 IDX image files and their label files, 4 rows each."""
    for stem in ("images", "test_images"):
        (directory / stem).write_bytes(struct.pack(">IIII", 0x803, 4, 2, 2) + bytes(16))
    for stem in ("labels", "test_labels"):
        (directory / stem).write_bytes(struct.pack(">II", 0x801, 4) + bytes([0, 1, 0, 1]))
    return {"kind": "idx", **{stem: str(directory / stem) for stem in
                              ("images", "labels", "test_images", "test_labels")}}


MOONS = {"kind": "two_moons", "n_train": 120, "n_test": 60, "noise": 0.2}
BLOBS = {"kind": "blobs", "classes": 2, "per_class": 20, "spread": 0.3}
GAUSS = {"kind": "gauss_linear", "n_train": 40, "d_in": 3}


@pytest.mark.parametrize(
    "overrides",
    [
        {"learning_rate": float("nan")},
        {"learning_rate": float("inf")},
        {"dataset": {**MOONS, "n_train": 120.0}},
        {"dataset": {**MOONS, "n_test": "60"}},
        {"dataset": {**MOONS, "noise": "0.2"}},
        {"dataset": {**MOONS, "label_noise": "0.1"}},
        {"dataset": {**BLOBS, "classes": 2.0}},
        {"dataset": {**BLOBS, "per_class": "20"}},
        {"dataset": {**BLOBS, "spread": "0.3"}},
        {"dataset": {**BLOBS, "test_per_class": 10.5}},
        {"dataset": {**GAUSS, "d_in": 3.0}, "model": {"kind": "quadratic"}},
        {"model": {"kind": "mlp", "hidden": 8.0}},
        {"model": {"kind": "mlp", "hidden": True}},
        {"dataset": {"kind": "osds", "train": 999_999, "test": 999_999}},
        # "idx" keys go into an idx dataset whose files exist
        {"idx": {"images": 999_999}},
        {"idx": {"limit": 2.5}},
        {"idx": {"test_limit": "2"}},
    ],
    ids=["learning_rate=NaN", "learning_rate=Infinity", "n_train=float",
         "n_test=str", "noise=str", "label_noise=str", "classes=float",
         "per_class=str", "spread=str", "test_per_class=float", "d_in=float",
         "hidden=float", "hidden=bool", "osds-path=int", "idx-path=int",
         "limit=float", "test_limit=str"],
)
def test_bad_value_types_are_usage_errors(tmp_path, capsys, overrides):
    if "idx" in overrides:
        dataset = {**_write_tiny_idx(tmp_path), **overrides["idx"]}
        overrides = {"dataset": dataset, "model": {"kind": "logistic"}}
    doc = base_config(tmp_path / "run", **overrides)
    assert main(["run", "--config", str(write_config(tmp_path, doc))]) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key", ["limit", "test_limit"])
@pytest.mark.parametrize("value", [-1, 0])
def test_idx_limits_below_one_are_usage_errors(tmp_path, capsys, key, value):
    dataset = {**_write_tiny_idx(tmp_path), key: value}
    doc = base_config(tmp_path / "run", dataset=dataset, model={"kind": "logistic"})
    assert main(["run", "--config", str(write_config(tmp_path, doc))]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and f"limit must be >= 1, got {value}" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "flags",
    [["--kind", "gauss_linear", "--d-in", "0"],
     ["--kind", "gauss_linear", "--noise", "nan"],
     ["--kind", "two_moons", "--noise", "-0.1"],
     ["--kind", "blobs", "--spread", "nan"],
     ["--kind", "two_moons", "--noise", "1e308"]],
    ids=["gauss_linear-d_in=0", "gauss_linear-noise=nan", "two_moons-noise<0",
         "blobs-spread=nan", "two_moons-noise-overflows-its-draws"],
)
def test_gen_data_rejects_out_of_domain_values(tmp_path, capsys, flags):
    assert main(["gen-data", "--out", str(tmp_path / "ds"), *flags]) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize(
    "dataset, message",
    [({"kind": "blobs", "classes": 3, "per_class": 7, "spread": 10**400},
      "spread must be finite and >= 0"),
     ({"kind": "two_moons", "n_train": 120, "n_test": 60, "noise": 1e308},
      "noise=1e+308 overflows float64")],
    ids=["spread-int-past-float64", "noise-overflows-its-draws"],
)
def test_run_rejects_a_scale_past_float64(tmp_path, capsys, dataset, message):
    doc = base_config(tmp_path / "run", dataset=dataset)
    assert main(["run", "--config", str(write_config(tmp_path, doc))]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.out == ""
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "flags, ignored",
    [(["--kind", "blobs", "--noise", "5", "--n-train", "7"], "--n-train, --noise"),
     (["--kind", "two_moons", "--classes", "3"], "--classes"),
     (["--kind", "gauss_linear", "--spread", "0.2", "--per-class", "4"],
      "--per-class, --spread")],
    ids=["blobs", "two_moons", "gauss_linear"],
)
def test_gen_data_rejects_flags_its_kind_does_not_read(tmp_path, capsys, flags,
                                                       ignored):
    assert main(["gen-data", "--out", str(tmp_path / "ds"), *flags]) == 1
    assert f"does not read {ignored}" in capsys.readouterr().err
    assert not (tmp_path / "ds").exists()


def test_gen_data_defaults_fill_the_flags_left_out(tmp_path):
    from oscisel.data import load_osds

    assert main(["gen-data", "--kind", "gauss_linear", "--out", str(tmp_path / "ds"),
                 "--n-train", "30"]) == 0
    train = load_osds(tmp_path / "ds" / "train.osds")
    test = load_osds(tmp_path / "ds" / "test.osds", "test")
    # --n-test 500 and --d-in 2 by default
    assert (train.n, test.n, train.d_in) == (30, 500, 2)


@pytest.mark.parametrize("epochs", ["-3", "0"])
def test_derive_rejects_epochs_below_one(capsys, epochs):
    assert main(["derive", "--target-ratio", "0.3", "--epsilon", "0.05",
                 "--epochs", epochs]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "total_epochs" in err


@pytest.mark.parametrize("command", [["probe", "--p", "0.5"],
                                     ["verify", "--p", "0.5", "--trials", "4"]],
                         ids=["probe", "verify"])
def test_a_learning_rate_whose_square_overflows_is_a_numeric_error(tmp_path, capsys,
                                                                   command):
    # Python's float ** raises a bare OverflowError once eta passes 1.34e154
    doc = base_config(tmp_path / "out", learning_rate=1e200)
    cfg = write_config(tmp_path, doc)
    assert main([command[0], "--config", str(cfg), *command[1:]]) == 2
    assert (capsys.readouterr().err
            == "runtime error: eta**2 overflows float64 at eta=1e+200\n")
    assert not (tmp_path / "out").exists()


def test_verify_with_a_non_finite_report_is_a_numeric_error(tmp_path, capsys):
    from oscisel.data import Dataset, save_osds

    # the losses overflow to inf while the gradients and the step stay
    # finite (as in test_regprobe's instance), so only the report would hold
    # inf and NaN, which JSON cannot
    for split in ("train", "test"):
        save_osds(Dataset(np.full((6, 1), 0.5), np.full(6, 2e154), split, 0),
                  tmp_path / f"{split}.osds")
    doc = base_config(
        tmp_path / "verify", model={"kind": "quadratic"}, learning_rate=1e-160,
        dataset={"kind": "osds", "train": str(tmp_path / "train.osds"),
                 "test": str(tmp_path / "test.osds")},
    )
    cfg = write_config(tmp_path, doc)
    assert main(["verify", "--config", str(cfg), "--p", "0.5", "--trials", "4"]) == 2
    assert capsys.readouterr().err == (
        "runtime error: verify at p=0.5: mc_mean, mc_se, deterministic_part, "
        "prediction, gap not finite\n"
    )
    assert not (tmp_path / "verify" / "regprobe.jsonl").exists()


def test_json_lines_refuse_non_finite_values():
    record = {"p": 0.5, "trace_HC": float("nan"), "R": float("-inf")}
    with pytest.raises(NumericError,
                       match="^cannot write non-finite trace_HC, R as JSON$"):
        oscisel.cli._json_line(record)


def test_a_run_that_overflows_prints_only_its_typed_error(tmp_path):
    # the first step leaves theta near 1e200, the next forward overflows and
    # its gradient is NaN; the run is a subprocess, so that stderr is what a
    # user sees, NumPy's warnings included
    doc = base_config(tmp_path / "run", learning_rate=1e200)
    src = str(Path(oscisel.cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "oscisel.cli", "run",
         "--config", str(write_config(tmp_path, doc))],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 2
    assert done.stderr == "runtime error: theta contains non-finite entries\n"


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"policy": "nope"}, "unknown policy 'nope'"),
        ({"schedule_mode": "nope"}, "unknown schedule_mode 'nope'"),
        ({"lr_schedule": "step"}, "unknown lr_schedule 'step'"),
        ({"epochs": 0}, "epochs must be >= 1"),
        ({"batch_size": 0}, "batch_size must be >= 1"),
        ({"model": {"kind": "mlp", "hidden": 0}}, "mlp needs hidden >= 1"),
        # JSON reads 1 followed by 400 zeros as an int, beyond float range
        ({"learning_rate": 10**400}, "learning_rate must be finite and > 0"),
    ],
    ids=["policy", "schedule_mode", "lr_schedule", "epochs=0", "batch_size=0",
         "hidden=0", "learning_rate=int-beyond-float"],
)
def test_bad_run_values_name_themselves(tmp_path, capsys, overrides, message):
    doc = base_config(tmp_path / "run", **overrides)
    assert main(["run", "--config", str(write_config(tmp_path, doc))]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "run").exists()


def test_a_one_class_osds_header_is_a_usage_error(tmp_path, capsys):
    from oscisel.data import Dataset, save_osds

    for split in ("train", "test"):
        save_osds(Dataset(np.zeros((4, 2)), np.zeros(4, dtype=np.int64), split, 1),
                  tmp_path / f"{split}.osds")
    doc = base_config(
        tmp_path / "run", model={"kind": "logistic"},
        dataset={"kind": "osds", "train": str(tmp_path / "train.osds"),
                 "test": str(tmp_path / "test.osds")},
    )
    assert main(["run", "--config", str(write_config(tmp_path, doc))]) == 1
    assert capsys.readouterr().err == "error: classifiers need classes >= 2\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "text, message",
    [("[1, 2]", "{path}: not a JSON object"),
     ("{not json", "{path}: invalid JSON: Expecting property name enclosed in "
                   "double quotes: line 1 column 2 (char 1)"),
     ('{"epochs": ' + HUGE_INT + "}", "{path}: " + DIGIT_LIMIT),
     ('{"epochs": ' + "[" * 100_000,
      "{path}: invalid JSON: maximum recursion depth exceeded while decoding a "
      "JSON array from a unicode string"),
     (None, "{path}: Is a directory"),
     (b'{"name": "\xff"}', "{path}: not UTF-8 text: 'utf-8' codec can't decode byte "
                           "0xff in position 10: invalid start byte")],
    ids=["not-object", "not-json", "int-past-digit-limit", "nested-past-recursion-limit",
         "directory", "not-utf8"],
)
def test_a_malformed_config_file_is_a_usage_error(tmp_path, capsys, text, message):
    # text is the file's text, its bytes, or None for a directory
    path = tmp_path / "cfg.json"
    if text is None:
        path.mkdir()
    elif isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    assert main(["run", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"


def test_a_relative_out_dir_resolves_under_oscisel_out(tmp_path, capsys,
                                                       monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("OSCISEL_OUT", str(tmp_path / "root"))
    doc = base_config("rel/run", epochs=1)
    assert main(["run", "--config", str(write_config(tmp_path, doc))]) == 0
    out = tmp_path / "root" / "rel" / "run"
    assert capsys.readouterr().out.startswith(f"run complete: {out} ")
    assert sorted(p.name for p in out.iterdir()) == [
        "final_theta.npy", "metrics.jsonl", "summary.json"]


@pytest.mark.parametrize("command", ["probe", "verify"])
def test_a_ratio_that_is_not_a_number_is_a_usage_error(tmp_path, capsys, command):
    cfg = write_config(tmp_path, base_config(tmp_path / "out"))
    assert main([command, "--config", str(cfg), "--p", "0.5,abc"]) == 1
    assert capsys.readouterr().err == "error: bad ratio list '0.5,abc'\n"
    assert not (tmp_path / "out").exists()


def test_report_with_no_completed_runs_is_a_usage_error(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    assert main(["report", "--in", str(tmp_path / "empty")]) == 1
    assert (capsys.readouterr().err
            == f"error: no completed runs under [{str(tmp_path / 'empty')!r}]\n")


@pytest.mark.parametrize("command", [["run"], ["probe", "--p", "0.5"],
                                     ["verify", "--p", "0.5"]])
@pytest.mark.parametrize(
    "overrides, message",
    [({"target_ratio": 1.5},
      "target ratio must satisfy eps < p < 1 - eps, got p=1.5, eps=0.05"),
     ({"margin": 0.7}, "margin must satisfy 0 < eps < 0.5, got 0.7"),
     ({"target_ratio": 0, "schedule_mode": "fixed"},
      "fixed ratio must be in (0, 1], got 0")],
    ids=["target=1.5", "margin=0.7", "fixed-target=0"],
)
def test_a_bad_schedule_fails_when_the_config_is_read(tmp_path, capsys, monkeypatch,
                                                      command, overrides, message):
    def no_data(*args, **kwargs):
        raise AssertionError("datasets built")

    for module in (oscisel.cli, oscisel.trainer):
        monkeypatch.setattr(module, "build_datasets", no_data)
    cfg = write_config(tmp_path, base_config(tmp_path / "out", **overrides))
    assert main([command[0], "--config", str(cfg), *command[1:]]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_a_quadratic_model_on_class_data_records_no_accuracy(tmp_path):
    doc = base_config(tmp_path / "run", model={"kind": "quadratic"}, epochs=2)
    assert main(["run", "--config", str(write_config(tmp_path, doc))]) == 0
    records = [json.loads(line) for line in
               (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()]
    assert [r["test_accuracy"] for r in records] == [None, None]
    assert all(r["test_loss"] is not None for r in records)


def test_gen_data_offers_each_kind_its_flags_can_build():
    parser = oscisel.cli._build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
    kind = next(a for a in commands.choices["gen-data"]._actions if a.dest == "kind")
    assert kind.choices == ["two_moons", "blobs", "gauss_linear"]


@pytest.mark.parametrize("classes", [0, 1])
def test_label_noise_on_fewer_than_two_classes_is_a_usage_error(tmp_path, capsys,
                                                               classes):
    from oscisel.data import Dataset, save_osds

    for split in ("train", "test"):
        save_osds(Dataset(np.zeros((4, 2)), np.zeros(4, dtype=np.int64), split,
                          classes), tmp_path / f"{split}.osds")
    doc = base_config(
        tmp_path / "run", model={"kind": "logistic"},
        dataset={"kind": "osds", "train": str(tmp_path / "train.osds"),
                 "test": str(tmp_path / "test.osds"), "label_noise": 0.2},
    )
    assert main(["run", "--config", str(write_config(tmp_path, doc))]) == 1
    assert (capsys.readouterr().err
            == f"error: label noise needs classes >= 2, got {classes}\n")
    assert not (tmp_path / "run").exists()


def test_a_probe_ratio_below_one_row_takes_one_row(tmp_path):
    # (1-p)/p overflows at p = 1e-310, but the subset holds one row, so
    # lambda is N - 1
    cfg = write_config(tmp_path, base_config(tmp_path / "probe", epochs=2))
    assert main(["probe", "--config", str(cfg), "--p", "0.5,1e-310"]) == 0
    rows = [json.loads(line) for line in
            (tmp_path / "probe" / "regprobe.jsonl").read_text().splitlines()]
    assert [(row["p"], row["m"], row["lambda"]) for row in rows] == [
        (0.5, 60, 1.0), (0.5, 60, 1.0), (1e-310, 1, 119.0), (1e-310, 1, 119.0)]
    assert all(math.isfinite(row["R"]) and row["R"] != 0.0 for row in rows)


def test_a_run_ratio_below_one_row_trains_one_row(tmp_path):
    doc = base_config(tmp_path / "run", schedule_mode="fixed", target_ratio=1e-310,
                      probe_every=1, epochs=2)
    assert main(["run", "--config", str(write_config(tmp_path, doc))]) == 0
    metrics = [json.loads(line) for line in
               (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()]
    assert [m["n_selected"] for m in metrics] == [1, 1]
    assert all(math.isfinite(m["R_estimate"]) and m["R_estimate"] != 0.0
               for m in metrics)


def test_r_estimate_is_taken_at_the_rows_the_epoch_trains_on(tmp_path):
    # 0.33 of 50 rows selects 16, whose lambda is (50-16)/16 = 2.125, not
    # (1-p)/p = 2.03: the run, verify and probe agree on R to the bit
    doc = base_config(
        tmp_path / "probe",
        dataset={"kind": "gauss_linear", "n_train": 50, "d_in": 4, "noise": 0.5},
        model={"kind": "quadratic"},
        learning_rate=0.05, schedule_mode="fixed", target_ratio=0.33,
        probe_every=1, epochs=2,
    )
    cfg = write_config(tmp_path, doc)
    run = load_config(cfg).run
    result = oscisel.trainer.run_training(run)
    first = result.metrics[0]
    assert (first.p_t, first.n_selected) == (0.33, 16)
    epoch, theta, _ = result.snapshots[0]
    train, _ = oscisel.trainer.build_datasets(run)
    state = ModelState(oscisel.trainer.build_model(run, train).arch, theta)
    [report] = oscisel.regprobe.verify_one_step_expansion(
        state, train, [first.p_t], run.learning_rate, 2)
    assert (report["m"], report["lambda"]) == (16, 2.125)
    assert first.R_estimate == report["r_term"]
    assert main(["probe", "--config", str(cfg), "--p", repr(first.p_t)]) == 0
    rows = [json.loads(line) for line in
            (tmp_path / "probe" / "regprobe.jsonl").read_text().splitlines()]
    assert (rows[epoch]["m"], rows[epoch]["R"]) == (16, first.R_estimate)


def test_a_probe_record_that_cannot_be_written_leaves_no_file(tmp_path,
                                                             monkeypatch, capsys):
    real = oscisel.cli.estimate_r

    def inf_at_the_second_ratio(trace_hc, n, m, eta):
        lam, r = real(trace_hc, n, m, eta)
        return lam, (float("inf") if m == 30 else r)

    monkeypatch.setattr(oscisel.cli, "estimate_r", inf_at_the_second_ratio)
    cfg = write_config(tmp_path, base_config(tmp_path / "probe", epochs=2))
    assert main(["probe", "--config", str(cfg), "--p", "0.5,0.25"]) == 2
    assert (capsys.readouterr().err
            == "runtime error: cannot write non-finite R as JSON\n")
    assert not (tmp_path / "probe" / "regprobe.jsonl").exists()


def test_a_run_record_that_cannot_be_written_leaves_no_file(tmp_path, monkeypatch,
                                                           capsys):
    real = oscisel.cli.run_training

    def last_estimate_inf(cfg):
        result = real(cfg)
        result.metrics[-1].R_estimate = float("inf")
        return result

    monkeypatch.setattr(oscisel.cli, "run_training", last_estimate_inf)
    cfg = write_config(tmp_path, base_config(tmp_path / "run", epochs=2))
    assert main(["run", "--config", str(cfg)]) == 2
    assert (capsys.readouterr().err
            == "runtime error: cannot write non-finite R_estimate as JSON\n")
    assert not (tmp_path / "run").exists()


def test_a_verify_record_that_cannot_be_written_leaves_no_file(tmp_path,
                                                              monkeypatch, capsys):
    real = oscisel.cli.verify_one_step_expansion

    def inf_at_the_second_ratio(*args, **kwargs):
        reports = real(*args, **kwargs)
        reports[1]["mc_mean"] = float("inf")
        return reports

    monkeypatch.setattr(oscisel.cli, "verify_one_step_expansion",
                        inf_at_the_second_ratio)
    cfg = write_config(tmp_path, base_config(tmp_path / "verify"))
    assert main(["verify", "--config", str(cfg), "--p", "0.5,0.25",
                 "--trials", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "runtime error: cannot write non-finite mc_mean as JSON\n"
    assert captured.out == ""
    assert not (tmp_path / "verify" / "regprobe.jsonl").exists()


@pytest.mark.parametrize(
    "line, message",
    [("[1, 2]", "not a JSON object"),
     ('{"test_accuracy": "high"}', "test_accuracy must be a number or null, "
                                   "got 'high'"),
     ('{"test_accuracy": true}', "test_accuracy must be a number or null, "
                                 "got True"),
     ('{"test_accuracy": NaN}', "test_accuracy must lie in [0, 1], got nan"),
     ('{"test_accuracy": Infinity}', "test_accuracy must lie in [0, 1], got inf"),
     ('{"test_accuracy": 7.5}', "test_accuracy must lie in [0, 1], got 7.5"),
     ('{"test_accuracy": -0.1}', "test_accuracy must lie in [0, 1], got -0.1"),
     ('{"test_accuracy": ' + HUGE_INT + "}", DIGIT_LIMIT)],
    ids=["list", "string", "bool", "nan", "inf", "above-one", "below-zero",
         "int-past-digit-limit"],
)
def test_report_rejects_a_malformed_metrics_record(tmp_path, capsys, line, message):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "summary.json").write_text(json.dumps(
        {"schema_version": "v1", "name": "r", "realized_ratio": 0.5,
         "wall_time_s": 1.0}))
    metrics = run_dir / "metrics.jsonl"
    metrics.write_text('{"test_accuracy": 0.5}\n' + line + "\n")
    assert main(["report", "--in", str(run_dir)]) == 2
    assert capsys.readouterr().err == f"runtime error: {metrics}:2: {message}\n"

