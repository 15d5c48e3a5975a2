"""The documents name what the code accepts.

docs/config.md must quote every config key and every dataset and model kind,
and README.md must show every subcommand and name every module, so that
adding one to the code without documenting it fails here.
"""

from dataclasses import fields
from pathlib import Path

from oscisel.cli import _COMMANDS
from oscisel.trainer import SPEC_KEYS, RunConfig

ROOT = Path(__file__).resolve().parent.parent


def test_config_doc_names_every_key_and_kind():
    doc = (ROOT / "docs" / "config.md").read_text()
    names = {f.name for f in fields(RunConfig)}
    for kinds in SPEC_KEYS.values():
        for kind, (required, optional) in kinds.items():
            names |= {kind} | required | optional
    missing = sorted(n for n in names if f"`{n}`" not in doc and f'"{n}"' not in doc)
    assert missing == [], f"docs/config.md does not name {missing}"


def test_readme_shows_every_subcommand():
    readme = (ROOT / "README.md").read_text()
    missing = sorted(c for c in _COMMANDS if f"oscisel {c}" not in readme)
    assert missing == [], f"README.md shows no `oscisel <cmd>` for {missing}"


def test_readme_names_every_module():
    readme = (ROOT / "README.md").read_text()
    modules = sorted(p.stem for p in (ROOT / "src" / "oscisel").glob("*.py"))
    missing = [m for m in modules if m != "__init__" and f"- `{m}` — " not in readme]
    assert missing == [], f"README.md's module list does not name {missing}"
