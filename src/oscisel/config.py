"""Run configuration files (JSON, schema "v1").

Keys match RunConfig field names exactly, plus out_dir, an optional group
name for report aggregation, and the schema version. Unknown keys are
rejected so typos fail loudly. See docs/config.md.
"""

from __future__ import annotations

import json
import os
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from .errors import ConfigError
from .trainer import RunConfig, check_keys

SCHEMA_VERSION = "v1"

# a config holds RunConfig's fields, optional where RunConfig has a default,
# plus these keys of the file itself
_FILE_KEYS = {"schema_version", "out_dir", "name"}
_REQUIRED = {f.name for f in fields(RunConfig) if f.default is MISSING}
_REQUIRED |= {"schema_version", "out_dir"}
_OPTIONAL = {f.name for f in fields(RunConfig) if f.default is not MISSING}
_OPTIONAL |= {"name"}


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
    check_keys("config", doc, _REQUIRED, _OPTIONAL)
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema_version {doc['schema_version']!r}, "
            f"want {SCHEMA_VERSION!r}"
        )
    for key in ("out_dir", "name"):
        if not isinstance(doc.get(key, ""), str):
            raise ConfigError(f"{key} must be a string, got {doc[key]!r}")
    run = RunConfig(**{k: v for k, v in doc.items() if k not in _FILE_KEYS})
    out_dir = Path(doc["out_dir"])
    if not out_dir.is_absolute():
        out_dir = output_root() / out_dir
    name = doc.get("name", "run")
    return LoadedConfig(run=run, out_dir=out_dir, name=name)


def load_config(path) -> LoadedConfig:
    """The config file at path, parsed. A path that names a directory or
    passes through a file, text that is not UTF-8 and invalid JSON are each
    a ConfigError that names the file; a missing file stays a
    FileNotFoundError."""
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (IsADirectoryError, NotADirectoryError) as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return parse_config(doc)
