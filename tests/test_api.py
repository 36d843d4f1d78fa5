import ast
import json
from pathlib import Path

import ghkit


def test_every_exported_name_resolves():
    missing = [name for name in ghkit.__all__ if not hasattr(ghkit, name)]
    assert not missing


ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ghkit"


def test_every_public_definition_has_a_caller():
    """Each public module-level function and class of the package is
    referenced, as a Name or an Attribute, somewhere in the package (the
    re-exports of ``__init__.py`` aside), perfbench or tools, or is named
    by a per-layer metric of BENCHMARK.json.  ``cmd_*`` are looked up by
    the CLI through ``globals()``."""
    used = set()
    defined = []
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py"), *(ROOT / "tools").glob("*.py")]:
        if path == PACKAGE / "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
        if path.parent == PACKAGE:
            defined += [
                (path.stem, node.name)
                for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith(("_", "cmd_"))
            ]
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    pinned = {tuple(m["name"].split(".")[:2]) for m in metrics}
    uncalled = [f"{mod}.{name}" for mod, name in defined if name not in used and (mod, name) not in pinned]
    assert not uncalled, uncalled


def test_no_module_level_import_is_unused():
    """Every name a module-level import binds in the package or the tests
    is read somewhere in its module, or listed in its ``__all__``."""
    unused = []
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py")]:
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                used |= {elt.value for elt in node.value.elts}
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{path.relative_to(ROOT)}: {name}" for name in bound if name not in used]
    assert not unused, unused
