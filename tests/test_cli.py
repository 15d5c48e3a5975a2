import json
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
from oscisel.rng import subseed


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
        (lambda s: "{not json", "parse error"),
        (lambda s: {**s, "realized_ratio": "0.3"}, "realized_ratio must be a number"),
        (lambda s: {**s, "wall_time_s": None}, "wall_time_s must be a number"),
        (lambda s: {**s, "name": 3}, "name must be a string"),
    ],
    ids=["missing-key", "not-object", "not-json", "ratio-str", "wall-null", "name-int"],
)
def test_report_malformed_summary_names_the_file(tmp_path, capsys, edit, message):
    doc = base_config(tmp_path / "run")
    main(["run", "--config", str(write_config(tmp_path, doc))])
    summary_path = tmp_path / "run" / "summary.json"
    edited = edit(json.loads(summary_path.read_text()))
    summary_path.write_text(edited if isinstance(edited, str) else json.dumps(edited))
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


@pytest.mark.parametrize("ratios", ["0.5,1.5", "0.0", "1.0", "nan"])
def test_probe_rejects_bad_ratios_before_training(tmp_path, monkeypatch, capsys,
                                                   ratios):
    def no_training(cfg):
        raise AssertionError("run_training called")

    monkeypatch.setattr(oscisel.cli, "run_training", no_training)
    cfg = write_config(tmp_path, base_config(tmp_path / "probe"))
    assert main(["probe", "--config", str(cfg), "--p", ratios]) == 1
    assert "(0, 1)" in capsys.readouterr().err
    assert not (tmp_path / "probe" / "regprobe.jsonl").exists()


@pytest.mark.parametrize(
    "flags", [["--p", "0.5,1.5"], ["--p", "0.5,0.005"], ["--p", "nan"],
              ["--p", "0.0"], ["--p", "0.5", "--trials", "0"]],
)
def test_verify_rejects_bad_arguments_before_writing(tmp_path, monkeypatch, flags):
    def no_verify(*args, **kwargs):
        raise AssertionError("verify_one_step_expansion called")

    monkeypatch.setattr(oscisel.cli, "verify_one_step_expansion", no_verify)
    # 100 rows: p = 0.005 selects floor(0.5) = 0 of them
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
     ["--kind", "blobs", "--spread", "nan"]],
    ids=["gauss_linear-d_in=0", "gauss_linear-noise=nan", "two_moons-noise<0",
         "blobs-spread=nan"],
)
def test_gen_data_rejects_out_of_domain_values(tmp_path, capsys, flags):
    assert main(["gen-data", "--out", str(tmp_path / "ds"), *flags]) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "ds").exists()


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
    [("[1, 2]", "config root must be an object"),
     ("{not json", "{path}: invalid JSON: Expecting property name enclosed in "
                   "double quotes: line 1 column 2 (char 1)")],
    ids=["not-object", "not-json"],
)
def test_a_malformed_config_file_is_a_usage_error(tmp_path, capsys, text, message):
    path = tmp_path / "cfg.json"
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
