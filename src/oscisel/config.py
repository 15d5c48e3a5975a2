"""Run configurations: RunConfig, the keys a config holds, and their checks.

KEY_TYPES says what each scalar key holds, and check_keys checks a dict
against it: missing keys, then unknown keys, then value types. A RunConfig
checks its fields, its ratio and learning-rate schedules, and its dataset
and model objects against SPEC_KEYS, when it is made, so it is valid by
construction and the builders in trainer take it as it is. SPEC_KEYS is
built from data.DATASETS and models.MODELS, which state each kind once. A
config file (JSON, schema "v1") holds RunConfig's fields plus out_dir, an
optional group name for report aggregation, and the schema version; unknown
keys are rejected so typos fail loudly. See docs/config.md.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .data import DATASETS, is_finite
from .errors import ConfigError, ParameterDomainError
from .models import MODELS
from .schedule import ScheduleParams, constant_params, derive_params
from .selection import POLICIES

SCHEMA_VERSION = "v1"


def is_number(value) -> bool:
    """An int or a float, NumPy integer and floating scalars included; never
    a bool, which is an int to Python, nor a NumPy bool."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool))


def _is_int(value) -> bool:
    return is_number(value) and isinstance(value, (int, np.integer))


# kind -> (required keys, optional keys) besides "kind": of a "dataset" object
# from data.DATASETS, plus "label_noise", and of a "model" from models.MODELS
SPEC_KEYS = {
    "dataset": {kind: (required, optional | {"label_noise"})
                for kind, (required, optional, _) in DATASETS.items()},
    "model": {kind: (required, set()) for kind, required in MODELS.items()},
}

# what each scalar key of a config and of its dataset and model objects
# holds; the other keys (dataset, model, kind, policy, schedule_mode,
# lr_schedule, schema_version) are checked by name. A path must be a string,
# or an integer would be opened as a file descriptor
KEY_TYPES = {
    **dict.fromkeys(
        ("epochs", "batch_size", "seed", "eval_every", "probe_every",
         "n_train", "n_test", "classes", "per_class", "d_in", "test_per_class",
         "hidden", "limit", "test_limit"),
        ("an integer", _is_int),
    ),
    **dict.fromkeys(
        ("learning_rate", "target_ratio", "margin", "momentum",
         "noise", "spread", "label_noise"),
        ("a number", is_number),
    ),
    **dict.fromkeys(
        ("images", "labels", "test_images", "test_labels", "train", "test"),
        ("a path string", lambda value: isinstance(value, (str, os.PathLike))),
    ),
    **dict.fromkeys(
        ("out_dir", "name"), ("a string", lambda value: isinstance(value, str))
    ),
}


def check_keys(doc: dict, required: set, optional: set, where: str = "") -> None:
    """Reject missing required keys, then keys neither required nor optional,
    so that typos fail loudly, then values of the wrong type for KEY_TYPES.
    where names a dataset or model object in messages; "" is the config."""
    missing, unknown = required - set(doc), set(doc) - required - optional
    if missing:
        raise ConfigError(f"{where or 'config'}: missing required keys: "
                          f"{sorted(missing)}")
    if unknown:
        raise ConfigError(f"{where or 'config'}: unknown keys: {sorted(unknown)}")
    prefix = f"{where}: " if where else ""
    for key, value in doc.items():
        if key in KEY_TYPES:
            what, ok = KEY_TYPES[key]
            if not ok(value):
                raise ConfigError(f"{prefix}{key} must be {what}, got {value!r}")


def _check_object(section: str, spec) -> None:
    """Check a dataset or model object: its kind, then its keys and values."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{section} must be an object, got {spec!r}")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in SPEC_KEYS[section]:
        raise ConfigError(f"unknown {section} kind {kind!r}")
    required, optional = SPEC_KEYS[section][kind]
    check_keys(spec, required | {"kind"}, optional, f"{section} {kind!r}")


@dataclass(frozen=True)
class RunConfig:
    dataset: dict
    model: dict
    epochs: int
    batch_size: int
    learning_rate: float
    target_ratio: float
    margin: float = 0.05
    momentum: float = 0.0
    policy: str = "hard_mining"
    schedule_mode: str = "oscillatory"  # "oscillatory" | "fixed"
    lr_schedule: str = "constant"  # "constant" | "cosine"
    seed: int = 0
    eval_every: int = 1
    probe_every: int = 0  # 0 disables R probing / snapshots

    def __post_init__(self):
        check_keys(vars(self), _REQUIRED, _OPTIONAL)
        if self.epochs < 1:
            raise ParameterDomainError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ParameterDomainError("batch_size must be >= 1")
        if not (self.learning_rate > 0.0 and is_finite(self.learning_rate)):
            raise ParameterDomainError("learning_rate must be finite and > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ParameterDomainError("momentum must be in [0, 1)")
        if self.eval_every < 1:
            raise ParameterDomainError("eval_every must be >= 1")
        if self.probe_every < 0:
            raise ParameterDomainError("probe_every must be >= 0 (0 disables)")
        if not isinstance(self.policy, str) or self.policy not in POLICIES:
            raise ConfigError(f"unknown policy {self.policy!r}")
        self.schedule_params()  # fails on a bad mode, target_ratio or margin
        self.learning_rate_at(0)  # fails on an unknown lr_schedule
        _check_object("dataset", self.dataset)
        _check_object("model", self.model)

    def schedule_params(self) -> ScheduleParams:
        """The ratio schedule of schedule_mode: a ParameterDomainError when
        target_ratio, or the oscillatory margin, is out of its domain."""
        if self.schedule_mode == "fixed":
            return constant_params(self.target_ratio)
        if self.schedule_mode == "oscillatory":
            return derive_params(self.target_ratio, self.margin)
        raise ConfigError(f"unknown schedule_mode {self.schedule_mode!r}")

    def learning_rate_at(self, epoch: int) -> float:
        """The learning rate of one epoch under lr_schedule: learning_rate
        throughout, or its cosine decay over the run's epochs."""
        if self.lr_schedule == "constant":
            return self.learning_rate
        if self.lr_schedule == "cosine":
            return self.learning_rate * 0.5 * (1.0 + math.cos(math.pi * epoch / self.epochs))
        raise ConfigError(f"unknown lr_schedule {self.lr_schedule!r}")


# a config file holds RunConfig's fields, optional where RunConfig has a
# default, plus its own keys: schema_version, out_dir and name
_REQUIRED = {f.name for f in fields(RunConfig) if f.default is MISSING}
_OPTIONAL = {f.name for f in fields(RunConfig) if f.default is not MISSING}


@dataclass(frozen=True)
class LoadedConfig:
    run: RunConfig
    out_dir: Path
    name: str


def output_root() -> Path:
    return Path(os.environ.get("OSCISEL_OUT", "out"))


def parse_config(doc: dict) -> LoadedConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    check_keys(doc, _REQUIRED | {"schema_version", "out_dir"}, _OPTIONAL | {"name"})
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema_version {doc['schema_version']!r}, "
            f"want {SCHEMA_VERSION!r}"
        )
    run = RunConfig(**{k: doc[k] for k in doc.keys() & (_REQUIRED | _OPTIONAL)})
    out_dir = Path(doc["out_dir"])
    if not out_dir.is_absolute():
        out_dir = output_root() / out_dir
    name = doc.get("name", "run")
    return LoadedConfig(run=run, out_dir=out_dir, name=name)


def read_text(path, error=ConfigError) -> str:
    """The UTF-8 text of the file at path. A path that names a directory or
    passes through a file, and text that is not UTF-8, are each an error of
    type error that names the file; a missing file stays a FileNotFoundError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (IsADirectoryError, NotADirectoryError) as exc:
        raise error(f"{path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from None


def json_object(text: str, where, error=ConfigError) -> dict:
    """text parsed as a JSON object. Text that is not JSON (an integer past
    Python's digit limit, or nesting past its recursion limit, included) or a
    document that is not an object is an error of type error naming where."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise error(f"{where}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise error(f"{where}: not a JSON object")
    return doc


def load_config(path) -> LoadedConfig:
    """The config file at path, read by read_text and json_object, then parsed."""
    return parse_config(json_object(read_text(path), path))
