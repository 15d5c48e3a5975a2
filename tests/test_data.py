import hashlib
import math
import re
import struct

import numpy as np
import pytest

import oscisel.data
from oscisel.data import (
    Dataset,
    gen_blobs,
    gen_gauss_linear,
    gen_two_moons,
    inject_label_noise,
    load_idx,
    load_osds,
    save_osds,
    IDX_MAGIC_LABELS,
)
from oscisel.errors import FormatError, ParameterDomainError
from oscisel.rng import PortableRNG
from oscisel.trainer import datasets_from_spec


def test_two_moons_counts_and_balance():
    ds = gen_two_moons(401, 0.1, seed=0)
    assert ds.n == 401
    assert (ds.labels == 0).sum() == 201
    assert (ds.labels == 1).sum() == 200


def test_two_moons_noiseless_arcs():
    ds = gen_two_moons(400, 0.0, seed=0)
    upper = ds.inputs[ds.labels == 0]
    lower = ds.inputs[ds.labels == 1]
    assert np.abs(upper[:, 0] ** 2 + upper[:, 1] ** 2 - 1.0).max() < 1e-12
    assert np.abs(
        (lower[:, 0] - 1.0) ** 2 + (lower[:, 1] - 0.5) ** 2 - 1.0
    ).max() < 1e-12
    assert np.all(upper[:, 1] >= -1e-12)
    assert np.all(lower[:, 1] <= 0.5 + 1e-12)


def test_known_answer_two_moons_across_noise_blocks():
    # 20,002 normals, drawn in three blocks; the digest was recorded when the
    # noise came in 4,096-row chunks, and pins that blocking never moved a bit
    ds = gen_two_moons(10_001, 0.3, 7)
    assert hashlib.sha256(ds.inputs.tobytes() + ds.labels.tobytes()).hexdigest() == (
        "d43928bbfb17ecf8b617623511a2ce3c134faf3d332d642ed3d735b806bb1108"
    )


def test_generators_deterministic():
    for make in (
        lambda s: gen_two_moons(50, 0.2, s),
        lambda s: gen_blobs(3, 10, 4, 0.3, s),
        lambda s: gen_gauss_linear(20, 5, 0.1, s),
    ):
        a, b = make(123), make(123)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)
        c = make(124)
        assert not np.array_equal(a.inputs, c.inputs)


def test_blobs_counts_and_means():
    ds = gen_blobs(2, 100, 2, 0.01, seed=5)
    assert ds.n == 200
    assert (ds.labels == 0).sum() == 100
    # tiny spread: per-class means sit near the unit-circle anchors
    mean0 = ds.inputs[ds.labels == 0].mean(axis=0)
    mean1 = ds.inputs[ds.labels == 1].mean(axis=0)
    assert mean0 == pytest.approx([1.0, 0.0], abs=0.01)
    assert mean1 == pytest.approx([-1.0, 0.0], abs=0.01)


@pytest.mark.parametrize(
    "classes, per_class, d_in",
    [(7, 1, 3), (3, 5, 3), (2, 11, 9), (3, 101, 7), (2, 60, 16)],
)
def test_blobs_equal_one_normals_draw_per_class(classes, per_class, d_in):
    # the reference draws each class's noise in its own normals() call; an
    # odd per_class * d_in leaves a spare sine that the next class takes first
    rng = PortableRNG(17)
    rows = []
    for j in range(classes):
        angle = 2.0 * math.pi * j / classes
        mean = np.zeros(d_in)
        mean[0], mean[1] = math.cos(angle), math.sin(angle)
        noise = rng.normals(per_class * d_in).reshape(per_class, d_in)
        rows.append(mean + 0.3 * noise)
    ds = gen_blobs(classes, per_class, d_in, 0.3, seed=17)
    assert ds.inputs.tobytes() == np.concatenate(rows).tobytes()
    assert ds.labels.tolist() == [j for j in range(classes)
                                  for _ in range(per_class)]


def test_blobs_domain_errors():
    with pytest.raises(ParameterDomainError):
        gen_blobs(1, 10, 2, 0.1, 0)
    with pytest.raises(ParameterDomainError):
        gen_blobs(2, 0, 2, 0.1, 0)
    with pytest.raises(ParameterDomainError):
        gen_two_moons(1, 0.1, 0)


@pytest.mark.parametrize(
    "bad",
    # an int that no float64 holds, as a JSON config may give, fails the
    # range check rather than the float conversion inside the product
    [float("nan"), -0.1, float("inf"), pytest.param(10**400, id="int-past-float64"),
     pytest.param(np.float32("inf"), id="float32-inf")],
)
def test_generators_reject_bad_noise_and_spread(bad):
    with pytest.raises(ParameterDomainError, match="noise"):
        gen_two_moons(10, bad, 0)
    with pytest.raises(ParameterDomainError, match="noise"):
        gen_gauss_linear(10, 2, bad, 0)
    with pytest.raises(ParameterDomainError, match="spread"):
        gen_blobs(2, 5, 2, bad, 0)


@pytest.mark.parametrize(
    "generate",
    [lambda scale: gen_two_moons(10, scale, 0),
     lambda scale: gen_gauss_linear(10, 2, scale, 0),
     lambda scale: gen_blobs(2, 5, 2, scale, 0)],
    ids=["two_moons-noise", "gauss_linear-noise", "blobs-spread"],
)
def test_a_float32_scale_is_the_float64_of_its_value(generate):
    # checked against float64's range with no overflow warning, and the
    # draws are scaled by its value as a float64
    scale = np.float32(0.2)
    narrow, wide = generate(scale), generate(float(scale))
    assert narrow.inputs.tobytes() == wide.inputs.tobytes()
    assert narrow.labels.tobytes() == wide.labels.tobytes()


def test_generators_reject_a_scale_whose_draws_overflow():
    # 1e308 is a float64, but its product with a normal beyond 1.8 in size is
    # not, and 100 draws hold some; no overflow warning precedes the error
    with pytest.raises(ParameterDomainError, match=r"^noise=1e\+308 overflows"):
        gen_two_moons(50, 1e308, 0)
    with pytest.raises(ParameterDomainError, match=r"^noise=1e\+308 overflows"):
        gen_gauss_linear(100, 2, 1e308, 0)
    with pytest.raises(ParameterDomainError, match=r"^spread=1e\+308 overflows"):
        gen_blobs(2, 25, 2, 1e308, 0)


def test_gauss_linear_rejects_zero_width():
    with pytest.raises(ParameterDomainError, match="d_in"):
        gen_gauss_linear(10, 0, 0.1, 0)


def test_label_noise_exact_count_and_inequality():
    ds = gen_blobs(4, 250, 2, 0.2, seed=1)  # N = 1000
    noisy = inject_label_noise(ds, 0.1, seed=2)
    changed = noisy.labels != ds.labels
    assert changed.sum() == 100  # every flip lands on a different class
    assert np.array_equal(noisy.inputs, ds.inputs)


def test_label_noise_identity_and_determinism():
    ds = gen_blobs(3, 20, 2, 0.2, seed=1)
    assert inject_label_noise(ds, 0.0, seed=9) is ds
    a = inject_label_noise(ds, 0.2, seed=9)
    b = inject_label_noise(ds, 0.2, seed=9)
    assert np.array_equal(a.labels, b.labels)
    with pytest.raises(ParameterDomainError):
        inject_label_noise(ds, 1.0, seed=0)


def write_idx_pair(tmp_path, images, labels, image_magic=0x00000803,
                   label_magic=IDX_MAGIC_LABELS, label_count=None):
    n, rows, cols = images.shape
    img_path = tmp_path / "img.idx"
    lbl_path = tmp_path / "lbl.idx"
    with open(img_path, "wb") as f:
        f.write(struct.pack(">IIII", image_magic, n, rows, cols))
        f.write(images.astype(np.uint8).tobytes())
    with open(lbl_path, "wb") as f:
        f.write(struct.pack(">II", label_magic,
                            n if label_count is None else label_count))
        f.write(labels.astype(np.uint8).tobytes())
    return img_path, lbl_path


def test_idx_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(7, 4, 3), dtype=np.uint8)
    labels = rng.integers(0, 10, size=7, dtype=np.uint8)
    img, lbl = write_idx_pair(tmp_path, images, labels)
    ds = load_idx(img, lbl)
    assert ds.n == 7 and ds.d_in == 12
    assert np.array_equal(ds.inputs, images.reshape(7, 12) / 255.0)
    assert np.array_equal(ds.labels, labels.astype(np.int64))


def test_idx_limit_prefix(tmp_path):
    images = np.arange(5 * 2 * 2, dtype=np.uint8).reshape(5, 2, 2)
    labels = np.arange(5, dtype=np.uint8)
    img, lbl = write_idx_pair(tmp_path, images, labels)
    ds = load_idx(img, lbl, limit=3)
    assert ds.n == 3
    assert np.array_equal(ds.labels, [0, 1, 2])


def test_idx_split_label(tmp_path):
    images = np.arange(4 * 2 * 2, dtype=np.uint8).reshape(4, 2, 2)
    labels = np.array([0, 1, 2, 1], dtype=np.uint8)
    (tmp_path / "train").mkdir()
    (tmp_path / "test").mkdir()
    img, lbl = write_idx_pair(tmp_path / "train", images, labels)
    test_img, test_lbl = write_idx_pair(tmp_path / "test", images[:2], labels[:2])
    assert load_idx(img, lbl).split == "train"
    assert load_idx(img, lbl, split="test").split == "test"
    train, test = datasets_from_spec(
        {"kind": "idx", "images": str(img), "labels": str(lbl),
         "test_images": str(test_img), "test_labels": str(test_lbl)},
        seed=0,
    )
    assert (train.split, train.n) == ("train", 4)
    assert (test.split, test.n) == ("test", 2)


def test_idx_bad_magic(tmp_path):
    images = np.zeros((2, 2, 2), dtype=np.uint8)
    labels = np.zeros(2, dtype=np.uint8)
    img, lbl = write_idx_pair(tmp_path, images, labels, image_magic=0x00000802)
    with pytest.raises(FormatError, match="unexpected magic"):
        load_idx(img, lbl)


def test_idx_count_mismatch(tmp_path):
    images = np.zeros((3, 2, 2), dtype=np.uint8)
    labels = np.zeros(3, dtype=np.uint8)
    img, lbl = write_idx_pair(tmp_path, images, labels, label_count=4)
    with pytest.raises(FormatError, match="mismatch"):
        load_idx(img, lbl)


def test_idx_truncated(tmp_path):
    img = tmp_path / "short.idx"
    img.write_bytes(struct.pack(">II", 0x00000803, 5))
    with pytest.raises(FormatError, match="truncated"):
        load_idx(img, img)


@pytest.mark.parametrize(
    "fmt, header, payload, wanted",
    [
        # headers whose sizes do not fit in memory, or in a read length
        ("OSDS", b"OSDS" + struct.pack("<IIIQI", 1, 0, 2, 2**60, 1), b"",
         f"wanted {2**63} bytes for inputs at offset 28, 0 left"),
        ("IDX", struct.pack(">IIII", 0x00000803, 2**32 - 1, 2**16, 2**16), b"\0",
         f"wanted {(2**32 - 1) * 2**32} bytes for pixel data at offset 16, 1 left"),
        # payloads cut short
        ("OSDS", b"OSDS" + struct.pack("<IIIQI", 1, 1, 0, 3, 2), bytes(50),
         "wanted 24 bytes for labels at offset 76, 2 left"),
        ("IDX", struct.pack(">IIII", 0x00000803, 2, 2, 2), bytes(7),
         "wanted 8 bytes for pixel data at offset 16, 7 left"),
    ],
)
def test_truncated_file_fails_before_reading(tmp_path, fmt, header, payload, wanted):
    path = tmp_path / "data.bin"
    path.write_bytes(header + payload)
    load = load_osds if fmt == "OSDS" else (lambda p: load_idx(p, p))
    message = f"truncated {fmt} file {path}: {wanted}"
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        load(path)


def test_osds_round_trip_classification(tmp_path):
    ds = gen_blobs(3, 5, 4, 0.2, seed=3)
    path = tmp_path / "ds.osds"
    save_osds(ds, path)
    loaded = load_osds(path)
    assert np.array_equal(loaded.inputs, ds.inputs)
    assert np.array_equal(loaded.labels, ds.labels)
    assert loaded.labels.dtype.kind == "i"
    assert loaded.n_classes == 3


def test_osds_round_trip_empty_classification_split(tmp_path):
    ds = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), "test", 2)
    path = tmp_path / "empty.osds"
    save_osds(ds, path)
    loaded = load_osds(path, "test")
    assert (loaded.n, loaded.d_in, loaded.n_classes) == (0, 2, 2)
    assert loaded.labels.dtype == np.int64


def test_osds_round_trip_regression(tmp_path):
    ds = gen_gauss_linear(10, 3, 0.1, seed=4)
    path = tmp_path / "ds.osds"
    save_osds(ds, path)
    loaded = load_osds(path)
    assert np.array_equal(loaded.inputs, ds.inputs)
    assert np.array_equal(loaded.labels, ds.labels)
    assert loaded.labels.dtype.kind == "f"


def test_osds_bad_magic(tmp_path):
    path = tmp_path / "bad.osds"
    path.write_bytes(b"NOPE" + b"\x00" * 24)
    with pytest.raises(FormatError, match="magic"):
        load_osds(path)


def write_osds(path, task, classes, labels):
    """Write an OSDS file with one input column directly, bypassing save_osds."""
    labels = np.asarray(labels, dtype="<f8")
    header = struct.pack("<IIIQI", 1, task, classes, labels.size, 1)
    path.write_bytes(b"OSDS" + header + np.zeros(labels.size).tobytes()
                     + labels.tobytes())


def test_osds_rejects_an_unknown_task_flag(tmp_path):
    path = tmp_path / "task7.osds"
    write_osds(path, 7, 3, [0.0, 1.0])
    with pytest.raises(FormatError, match=f"^OSDS file {re.escape(str(path))}: "
                                          "task flag 7 is not 0 or 1$"):
        load_osds(path)


def test_osds_rejects_a_regression_header_with_classes(tmp_path):
    path = tmp_path / "regression3.osds"
    write_osds(path, 1, 3, [0.5, 2.0])
    with pytest.raises(FormatError, match=f"^OSDS file {re.escape(str(path))}: "
                                          "regression header has class count 3"):
        load_osds(path)


@pytest.mark.parametrize("bad", [0.5, 1.5, np.nan, np.inf, -np.inf, 2.0**63, 1e300])
def test_osds_rejects_a_class_label_that_is_not_an_int64_whole_number(tmp_path, bad):
    path = tmp_path / "labels.osds"
    write_osds(path, 0, 2, [0.0, bad, 1.0])
    with pytest.raises(FormatError, match=f"^OSDS file {re.escape(str(path))}: "
                                          "class labels must be int64 whole numbers$"):
        load_osds(path)


def test_osds_hand_written_file_loads(tmp_path):
    path = tmp_path / "good.osds"
    write_osds(path, 0, 2, [1.0, -0.0, 0.0, -2.0**63 + 1024])
    loaded = load_osds(path)
    assert loaded.labels.tolist() == [1, 0, 0, -2**63 + 1024]
    assert loaded.labels.dtype == np.int64


def _split_bytes(spec: dict) -> list:
    return [(ds.split, ds.n_classes, ds.inputs.tobytes(), ds.labels.tobytes())
            for ds in oscisel.data.datasets_from_spec(spec, seed=3)]


BLOBS = {"kind": "blobs", "classes": 3, "per_class": 7, "spread": 0.4}
GAUSS_LINEAR = {"kind": "gauss_linear", "n_train": 9, "d_in": 3}
TWO_MOONS = {"kind": "two_moons", "n_train": 9, "n_test": 5, "noise": 0.1}


# each optional key with the default that docs/config.md states
@pytest.mark.parametrize(
    "spec, key, default",
    [(BLOBS, "d_in", 2), (BLOBS, "test_per_class", 7),
     (GAUSS_LINEAR, "noise", 0.0), (GAUSS_LINEAR, "n_test", 9),
     (TWO_MOONS, "label_noise", 0.0), (BLOBS, "label_noise", 0.0),
     (GAUSS_LINEAR, "label_noise", 0.0)],
    ids=["blobs-d_in", "blobs-test_per_class", "gauss_linear-noise",
         "gauss_linear-n_test", "two_moons-label_noise", "blobs-label_noise",
         "gauss_linear-label_noise"],
)
def test_an_optional_key_left_out_takes_its_documented_default(spec, key, default):
    assert _split_bytes(spec) == _split_bytes({**spec, key: default})


def test_idx_without_limits_keeps_every_row(tmp_path):
    images = np.arange(5 * 2 * 2, dtype=np.uint8).reshape(5, 2, 2)
    labels = np.array([0, 1, 2, 1, 0], dtype=np.uint8)
    (tmp_path / "train").mkdir()
    (tmp_path / "test").mkdir()
    img, lbl = write_idx_pair(tmp_path / "train", images, labels)
    test_img, test_lbl = write_idx_pair(tmp_path / "test", images[:3], labels[:3])
    spec = {"kind": "idx", "images": str(img), "labels": str(lbl),
            "test_images": str(test_img), "test_labels": str(test_lbl)}
    train, test = oscisel.data.datasets_from_spec(spec, seed=0)
    assert (train.n, test.n) == (5, 3)
    assert _split_bytes(spec) == _split_bytes({**spec, "limit": 5, "test_limit": 3})
