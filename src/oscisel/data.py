"""Deterministic dataset generation and loading.

A Dataset is a named split and also a Batch, the rows the model functions
take, so a whole split goes to them as it is.

Synthetic generators (Gaussian blobs, two moons, Gaussian linear regression),
label-noise injection, an IDX-format image loader, and a small binary
container ("OSDS") for writing generated datasets to disk. All generators are
pure functions of (parameters, seed) using the pinned portable RNG, so the
arrays are bit-identical within one numeric environment.
"""

from __future__ import annotations

import math
import os
import struct
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import FormatError, ParameterDomainError
from .rng import PortableRNG, subseed

IDX_MAGIC_IMAGES = 0x00000803
IDX_MAGIC_LABELS = 0x00000801
OSDS_MAGIC = b"OSDS"
OSDS_VERSION = 1


@dataclass(frozen=True)
class Batch:
    inputs: np.ndarray  # (m, d_in) float64
    labels: np.ndarray  # int64 classes or float64 targets, (m,)

    @property
    def size(self) -> int:
        return self.inputs.shape[0]


@dataclass(frozen=True)
class Dataset(Batch):
    split: str  # "train" | "test"
    n_classes: int  # classes a classifier over this data needs; 0 for regression

    @property
    def n(self) -> int:
        return self.size

    @property
    def d_in(self) -> int:
        return self.inputs.shape[1]

    @property
    def is_classification(self) -> bool:
        return self.labels.dtype.kind == "i"


def is_finite(value) -> bool:
    """value, a number of any NumPy width, is finite within float64's range:
    NaN, an infinity, and an int or a longdouble past float64 are not."""
    with np.errstate(over="ignore"):  # a float32 overflows the bound to inf
        return bool(abs(value) < math.inf and abs(value) <= sys.float_info.max)


def _check_scale(name: str, value: float) -> None:
    """A noise scale must be >= 0 and finite (see is_finite)."""
    if not (value >= 0.0 and is_finite(value)):
        raise ParameterDomainError(f"{name} must be finite and >= 0, got {value}")


def _scaled(name: str, scale: float, draws: np.ndarray) -> np.ndarray:
    """draws times scale, in place; a product past float64 range is a
    ParameterDomainError naming the key, not a dataset with infinite rows."""
    with np.errstate(over="ignore"):
        draws *= scale
    if not np.isfinite(draws).all():
        raise ParameterDomainError(f"{name}={scale} overflows float64 when it "
                                   "scales the normal draws")
    return draws


def gen_blobs(
    classes: int,
    per_class: int,
    d_in: int,
    spread: float,
    seed: int,
    split: str = "train",
) -> Dataset:
    """Isotropic Gaussian blobs with class means on the unit circle.

    Means sit at angle 2*pi*j/classes in the first two coordinates, zero
    elsewhere; points are mean + spread * standard normal.
    """
    if classes < 2:
        raise ParameterDomainError(f"classes must be >= 2, got {classes}")
    if per_class < 1:
        raise ParameterDomainError(f"per_class must be >= 1, got {per_class}")
    if d_in < 2:
        raise ParameterDomainError(f"blobs need d_in >= 2, got {d_in}")
    _check_scale("spread", spread)
    means = np.zeros((classes, d_in))
    for j in range(classes):
        angle = 2.0 * math.pi * j / classes
        means[j, :2] = math.cos(angle), math.sin(angle)
    labels = np.repeat(np.arange(classes, dtype=np.int64), per_class)
    # every row's d_in normals in one draw, rows in class order: the order
    # that docs/config.md pins
    noise = _scaled("spread", spread, PortableRNG(seed).normals(labels.size * d_in))
    return Dataset(means[labels] + noise.reshape(-1, d_in), labels, split, classes)


def gen_two_moons(n: int, noise: float, seed: int, split: str = "train") -> Dataset:
    """Two interleaving half circles with additive normal noise.

    Class 0 is the upper arc (cos t, sin t), class 1 the lower arc
    (1 - cos t, 0.5 - sin t), t evenly spaced on [0, pi]. ceil(n/2) points go
    to class 0.
    """
    if n < 2:
        raise ParameterDomainError(f"n must be >= 2, got {n}")
    _check_scale("noise", noise)
    n0 = (n + 1) // 2
    n1 = n - n0
    # row-major draws: x then y noise of row 0, then of row 1, ...; the arcs
    # are added onto them in place, so no second (n, 2) array is made
    inputs = _scaled("noise", noise, PortableRNG(seed).normals(2 * n)).reshape(n, 2)
    labels = np.zeros(n, dtype=np.int64)
    t0 = np.linspace(0.0, math.pi, n0)
    inputs[:n0, 0] += np.cos(t0)
    inputs[:n0, 1] += np.sin(t0)
    t1 = np.linspace(0.0, math.pi, n1)
    inputs[n0:, 0] += 1.0 - np.cos(t1)
    inputs[n0:, 1] += 0.5 - np.sin(t1)
    labels[n0:] = 1
    return Dataset(inputs, labels, split, 2)


def gen_gauss_linear(
    n: int, d_in: int, noise: float, seed: int, split: str = "train"
) -> Dataset:
    """Standard-normal inputs with linear real targets, for the quadratic model."""
    if n < 1:
        raise ParameterDomainError(f"n must be >= 1, got {n}")
    if d_in < 1:
        raise ParameterDomainError(f"d_in must be >= 1, got {d_in}")
    _check_scale("noise", noise)
    rng = PortableRNG(seed)
    inputs = rng.normals(n * d_in).reshape(n, d_in)
    truth = rng.normals(d_in)
    targets = inputs @ truth + _scaled("noise", noise, rng.normals(n))
    return Dataset(inputs, targets, split, 0)


def inject_label_noise(ds: Dataset, rate: float, seed: int) -> Dataset:
    """Flip exactly floor(rate*N) labels to a different uniformly-drawn class;
    rate 0 returns ds as it is, regression data and any class count included.
    A positive rate needs a class to flip to: at least 2 classes."""
    if not 0.0 <= rate < 1.0:
        raise ParameterDomainError(f"noise rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return ds
    if not ds.is_classification:
        raise ParameterDomainError("label noise applies to classification only")
    if ds.n_classes < 2:
        raise ParameterDomainError(
            f"label noise needs classes >= 2, got {ds.n_classes}")
    rng = PortableRNG(seed)
    n_flip = math.floor(rate * ds.n + 1e-9)
    flip = rng.sample_without_replacement(ds.n, n_flip)
    classes = ds.n_classes
    labels = ds.labels.copy()
    # in ascending index order, row i moves up by 1 + below(classes - 1)
    flip = np.sort(flip)
    offsets = np.fromiter(rng.belows([classes - 1] * n_flip), np.int64, n_flip)
    labels[flip] = (labels[flip] + 1 + offsets) % classes
    return replace(ds, labels=labels)


def _read_exact(f, count: int, what: str, fmt: str) -> bytes:
    """The next count bytes of the open file f, in format fmt.

    The count is checked against the bytes left in the file before anything
    is read, so a header that claims more data than the file holds fails
    without allocating.
    """
    offset = f.tell()
    left = os.fstat(f.fileno()).st_size - offset
    if count > left:
        raise FormatError(
            f"truncated {fmt} file {f.name}: wanted {count} bytes for {what} "
            f"at offset {offset}, {left} left"
        )
    return f.read(count)


def load_idx(
    images_path, labels_path, limit: int | None = None, split: str = "train"
) -> Dataset:
    """Load an IDX u8 image/label pair (MNIST-style), pixels scaled to [0, 1].

    limit, if given, keeps the first limit rows and must be at least 1.
    """
    if limit is not None and limit < 1:
        raise ParameterDomainError(f"{split} row limit must be >= 1, got {limit}")
    with open(images_path, "rb") as f:
        header = _read_exact(f, 16, "image header", "IDX")
        magic, n, rows, cols = struct.unpack(">IIII", header)
        if magic != IDX_MAGIC_IMAGES:
            raise FormatError(
                f"unexpected magic 0x{magic:08x} at offset 0 of {images_path} "
                f"(want 0x{IDX_MAGIC_IMAGES:08x})"
            )
        count = n if limit is None else min(limit, n)
        raw = _read_exact(f, count * rows * cols, "pixel data", "IDX")
        images = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows * cols)
    with open(labels_path, "rb") as f:
        header = _read_exact(f, 8, "label header", "IDX")
        magic, n_labels = struct.unpack(">II", header)
        if magic != IDX_MAGIC_LABELS:
            raise FormatError(
                f"unexpected magic 0x{magic:08x} at offset 0 of {labels_path} "
                f"(want 0x{IDX_MAGIC_LABELS:08x})"
            )
        if n_labels != n:
            raise FormatError(
                f"image/label count mismatch: {n} images vs {n_labels} labels"
            )
        raw = _read_exact(f, count, "label data", "IDX")
        labels = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
    return Dataset(images.astype(np.float64) / 255.0, labels, split, 10)


def save_osds(ds: Dataset, path) -> None:
    """Write the OSDS container: magic, version, task flag, dims, f64 payload."""
    task = 0 if ds.is_classification else 1
    with open(path, "wb") as f:
        f.write(OSDS_MAGIC)
        f.write(struct.pack("<IIIQI", OSDS_VERSION, task, ds.n_classes, ds.n, ds.d_in))
        f.write(np.ascontiguousarray(ds.inputs, dtype="<f8").tobytes())
        f.write(np.ascontiguousarray(ds.labels, dtype="<f8").tobytes())


def load_osds(path, split: str = "train") -> Dataset:
    """Read an OSDS file; a version other than OSDS_VERSION, a task flag
    other than 0 or 1, a regression class count other than 0 or a class
    label that is not a whole number within int64 is a FormatError naming
    the file."""
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != OSDS_MAGIC:
            raise FormatError(f"unexpected magic {magic!r} at offset 0 of {path}")
        header = _read_exact(f, 24, "header", "OSDS")
        version, task, classes, n, d_in = struct.unpack("<IIIQI", header)
        if version != OSDS_VERSION:
            raise FormatError(f"OSDS file {path}: unsupported version {version}")
        if task not in (0, 1):
            raise FormatError(f"OSDS file {path}: task flag {task} is not 0 or 1")
        if task == 1 and classes != 0:
            raise FormatError(
                f"OSDS file {path}: regression header has class count {classes}, not 0"
            )
        inputs = np.frombuffer(
            _read_exact(f, n * d_in * 8, "inputs", "OSDS"), dtype="<f8"
        ).reshape(n, d_in).copy()
        raw_labels = np.frombuffer(_read_exact(f, n * 8, "labels", "OSDS"), dtype="<f8")
        # NaN and infinities fail the bound, which keeps the int64 cast exact
        if task == 0 and not (
            (np.abs(raw_labels) < 2.0**63) & (raw_labels == np.floor(raw_labels))
        ).all():
            raise FormatError(
                f"OSDS file {path}: class labels must be int64 whole numbers"
            )
        labels = raw_labels.astype(np.int64) if task == 0 else raw_labels.copy()
    return Dataset(inputs, labels, split, classes)


def _two_moons(spec: dict, split: str, seed: int) -> Dataset:
    return gen_two_moons(spec[f"n_{split}"], spec["noise"], seed, split)


def _blobs(spec: dict, split: str, seed: int) -> Dataset:
    per_class = spec["per_class"]
    if split == "test":
        per_class = spec.get("test_per_class", per_class)
    d_in = spec.get("d_in", 2)
    return gen_blobs(spec["classes"], per_class, d_in, spec["spread"], seed, split)


def _gauss_linear(spec: dict, split: str, seed: int) -> Dataset:
    n = spec.get(f"n_{split}", spec["n_train"])
    return gen_gauss_linear(n, spec["d_in"], spec.get("noise", 0.0), seed, split)


def _idx(spec: dict, split: str, seed: int) -> Dataset:
    prefix = "test_" if split == "test" else ""
    limit = spec.get(f"{prefix}limit")
    return load_idx(spec[f"{prefix}images"], spec[f"{prefix}labels"], limit, split)


def _osds(spec: dict, split: str, seed: int) -> Dataset:
    return load_osds(spec[split], split)


# kind -> (required keys, optional keys, build one split(spec, split, seed))
# of a checked "dataset" object, keys besides "kind"; a builder gives a key
# left out the default that docs/config.md states. Every kind also takes
# "label_noise", which datasets_from_spec applies to the train split.
DATASETS = {
    "two_moons": ({"n_train", "n_test", "noise"}, set(), _two_moons),
    "blobs": ({"classes", "per_class", "spread"}, {"d_in", "test_per_class"}, _blobs),
    "gauss_linear": ({"n_train", "d_in"}, {"noise", "n_test"}, _gauss_linear),
    "idx": ({"images", "labels", "test_images", "test_labels"},
            {"limit", "test_limit"}, _idx),
    "osds": ({"train", "test"}, set(), _osds),
}


def datasets_from_spec(spec: dict, seed: int) -> tuple[Dataset, Dataset]:
    """Train and test splits of a checked "dataset" object: one DATASETS
    builder call per split, then label_noise (default 0.0) on train."""
    build = DATASETS[spec["kind"]][2]
    train, test = (build(spec, split, subseed(seed, f"data.{split}"))
                   for split in ("train", "test"))
    noise = spec.get("label_noise", 0.0)
    return inject_label_noise(train, noise, subseed(seed, "data.noise")), test
