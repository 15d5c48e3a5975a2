"""The modules of src/oscisel import one another without a cycle, and
config, which defines a run, imports neither the trainer nor the CLI. Only
data, whose DATASETS table states each dataset kind once, names one, and
the trainer names no run-config choice. Every name the package exports is
used by the package or a demo, not only by its own unit tests, and every
name a module other than __init__ imports is used in that module.

The imports and string literals are read from the source with ast.
"""

import ast
from pathlib import Path

from oscisel.data import DATASETS
from oscisel.models import MODELS
from oscisel.selection import POLICIES

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "oscisel"


def _imports() -> dict[str, set[str]]:
    """Each module of the package -> the package modules it imports."""
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    graph = {}
    for module in modules:
        found = set()
        for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
            if isinstance(node, ast.ImportFrom):
                target = node.module or ""
                if node.level == 1:
                    target = f"oscisel.{target}".rstrip(".")
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                target, names = "", [alias.name for alias in node.names]
            else:
                continue
            if target == "oscisel":  # from oscisel import x, or from . import x
                found |= set(names)
            elif target.startswith("oscisel."):
                found.add(target.split(".")[1])
            found |= {n.split(".")[1] for n in names if n.startswith("oscisel.")}
        graph[module] = found & modules
    return graph


def _reachable(graph: dict[str, set[str]], start: str) -> set[str]:
    seen, stack = set(), [start]
    while stack:
        for dep in graph[stack.pop()] - seen:
            seen.add(dep)
            stack.append(dep)
    return seen


def test_the_package_import_graph_has_no_cycle():
    graph = _imports()
    assert any(graph.values()), "no import read"
    cyclic = sorted(m for m in graph if m in _reachable(graph, m))
    assert cyclic == [], f"modules on an import cycle: {cyclic}"


def test_config_imports_neither_trainer_nor_cli():
    assert _reachable(_imports(), "config") & {"trainer", "cli"} == set()


def _named(paths, names: set) -> list[str]:
    """Each string literal of the files at paths that is one of names."""
    return sorted(
        f"{path.name}:{node.lineno}: {node.value!r}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and node.value in names
    )


def test_only_data_names_a_dataset_kind():
    kinds = set(DATASETS)
    assert kinds, "data.DATASETS names no kind"
    named = _named((p for p in PACKAGE.glob("*.py") if p.name != "data.py"), kinds)
    assert named == [], f"dataset kinds named outside data.py: {named}"


def test_the_trainer_names_no_run_config_choice():
    # policies, lr schedules, schedule modes, model kinds and keys, dataset
    # kinds: each is branched on in the module that states it
    choices = (set(POLICIES) | {"constant", "cosine"} | {"oscillatory", "fixed"}
               | set(MODELS) | set().union(*MODELS.values()) | set(DATASETS))
    named = _named([PACKAGE / "trainer.py"], choices)
    assert named == [], f"run-config choices named in trainer.py: {named}"


def test_every_export_is_used_outside_its_own_tests():
    init = PACKAGE / "__init__.py"
    exports = {alias.name for node in ast.walk(ast.parse(init.read_text()))
               if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert exports, "oscisel/__init__.py exports nothing"
    # a use is a name or an attribute read; a def or class statement, and
    # an import, name a symbol without using it
    used = set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("**/*.py")]:
        if path == init:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = sorted(exports - used)
    assert unused == [], f"exported, but unused in src/oscisel and demos/: {unused}"


def test_every_import_is_used_in_its_module():
    # no linter runs here, so this finds the imports a refactor leaves
    # behind; annotations are parsed as code, so a name read only in one
    # counts as used
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno}: {name}"
                       for name in bound if name not in used]
    assert unused == [], f"imported, but unused in the importing module: {unused}"
