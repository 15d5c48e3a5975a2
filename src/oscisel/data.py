"""Deterministic dataset generation and loading.

Synthetic generators (Gaussian blobs, two moons, Gaussian linear regression),
label-noise injection, an IDX-format image loader, and a small binary
container ("OSDS") for writing generated datasets to disk. All generators are
pure functions of (parameters, seed) using the pinned portable RNG, so the
arrays are bit-identical across platforms.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import FormatError, ParameterDomainError
from .rng import PortableRNG

IDX_MAGIC_IMAGES = 0x00000803
IDX_MAGIC_LABELS = 0x00000801
OSDS_MAGIC = b"OSDS"
OSDS_VERSION = 1
_NOISE_ROWS = 4096  # two_moons rows per block of noise draws


@dataclass(frozen=True)
class Dataset:
    inputs: np.ndarray  # (N, d_in) float64
    labels: np.ndarray  # int64 classes or float64 targets, (N,)
    split: str  # "train" | "test"
    n_classes: int  # classes a classifier over this data needs; 0 for regression

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def d_in(self) -> int:
        return self.inputs.shape[1]

    @property
    def is_classification(self) -> bool:
        return self.labels.dtype.kind == "i"


def _check_scale(name: str, value: float) -> None:
    """A noise scale must be finite and >= 0 (NaN fails the comparison)."""
    if not 0.0 <= value < math.inf:
        raise ParameterDomainError(f"{name} must be finite and >= 0, got {value}")


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
    rng = PortableRNG(seed)
    n = classes * per_class
    inputs = np.zeros((n, d_in))
    labels = np.zeros(n, dtype=np.int64)
    for j in range(classes):
        angle = 2.0 * math.pi * j / classes
        mean = np.zeros(d_in)
        mean[0] = math.cos(angle)
        mean[1] = math.sin(angle)
        rows = slice(j * per_class, (j + 1) * per_class)
        inputs[rows] = mean + spread * rng.normals(per_class * d_in).reshape(
            per_class, d_in
        )
        labels[rows] = j
    return Dataset(inputs, labels, split, classes)


def gen_two_moons(n: int, noise: float, seed: int, split: str = "train") -> Dataset:
    """Two interleaving half circles with additive normal noise.

    Class 0 is the upper arc (cos t, sin t), class 1 the lower arc
    (1 - cos t, 0.5 - sin t), t evenly spaced on [0, pi]. ceil(n/2) points go
    to class 0.
    """
    if n < 2:
        raise ParameterDomainError(f"n must be >= 2, got {n}")
    _check_scale("noise", noise)
    rng = PortableRNG(seed)
    n0 = (n + 1) // 2
    n1 = n - n0
    inputs = np.zeros((n, 2))
    labels = np.zeros(n, dtype=np.int64)
    t0 = np.linspace(0.0, math.pi, n0)
    inputs[:n0, 0] = np.cos(t0)
    inputs[:n0, 1] = np.sin(t0)
    t1 = np.linspace(0.0, math.pi, n1)
    inputs[n0:, 0] = 1.0 - np.cos(t1)
    inputs[n0:, 1] = 0.5 - np.sin(t1)
    labels[n0:] = 1
    if noise > 0.0:
        # row-major draws: x then y noise of row 0, then of row 1, ...; in
        # chunks, so no 2n-long draw is held at once
        for start in range(0, n, _NOISE_ROWS):
            rows = inputs[start : start + _NOISE_ROWS]
            rows += noise * rng.normals(rows.size).reshape(rows.shape)
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
    targets = inputs @ truth
    if noise > 0.0:
        targets = targets + noise * rng.normals(n)
    return Dataset(inputs, targets, split, 0)


def inject_label_noise(ds: Dataset, rate: float, seed: int) -> Dataset:
    """Flip exactly floor(rate*N) labels to a different uniformly-drawn class."""
    if not 0.0 <= rate < 1.0:
        raise ParameterDomainError(f"noise rate must be in [0, 1), got {rate}")
    if not ds.is_classification:
        raise ParameterDomainError("label noise applies to classification only")
    if rate == 0.0:
        return ds
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
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != OSDS_MAGIC:
            raise FormatError(f"unexpected magic {magic!r} at offset 0 of {path}")
        header = _read_exact(f, 24, "header", "OSDS")
        version, task, classes, n, d_in = struct.unpack("<IIIQI", header)
        if version != OSDS_VERSION:
            raise FormatError(f"unsupported OSDS version {version}")
        inputs = np.frombuffer(
            _read_exact(f, n * d_in * 8, "inputs", "OSDS"), dtype="<f8"
        ).reshape(n, d_in).copy()
        raw_labels = np.frombuffer(_read_exact(f, n * 8, "labels", "OSDS"), dtype="<f8")
        labels = raw_labels.astype(np.int64) if task == 0 else raw_labels.copy()
    return Dataset(inputs, labels, split, classes)
