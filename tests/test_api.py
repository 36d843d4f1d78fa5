import ast
import json
import sys
from pathlib import Path

import ghkit


def test_every_exported_name_resolves():
    missing = [name for name in ghkit.__all__ if not hasattr(ghkit, name)]
    assert not missing


ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ghkit"
# perfbench's self-test reaches brute_min_cut's bound through a local alias
ALLOWED_UNSET = {"maxflow.brute_min_cut(bound)"}


def _caller_trees():
    """(path, AST) of every module of the package (the re-exports of
    ``__init__.py`` aside), perfbench and tools."""
    paths = [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py"), *(ROOT / "tools").glob("*.py")]
    return [(path, ast.parse(path.read_text(), str(path))) for path in paths if path != PACKAGE / "__init__.py"]


def _stdlib_modules(tree):
    """The names that ``import`` statements of stdlib modules bind in tree."""
    return {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.split(".")[0] in sys.stdlib_module_names
    }


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _local_names(scope):
    """The names a function, lambda or comprehension binds: its parameters
    and each name stored in its own body, nested scopes aside.  Imports
    are left out, so a name imported in a function still counts as read."""
    args = getattr(scope, "args", None)
    params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg] if args else []
    names = {p.arg for p in params if p}
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        if not isinstance(node, (*_SCOPES, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))
    return names


def _free_reads(node, bound=frozenset()):
    """The ids of the Name reads under node that no enclosing function,
    lambda or comprehension binds."""
    if isinstance(node, _SCOPES):
        bound = bound | _local_names(node)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in bound:
        yield node.id
    for child in ast.iter_child_nodes(node):
        yield from _free_reads(child, bound)


def _is_public(name):
    return not name.startswith(("_", "cmd_"))


def _public_functions(cls):
    return [node for node in cls.body if isinstance(node, ast.FunctionDef) and _is_public(node.name)]


def test_every_public_definition_has_a_caller():
    """Each public module-level function, class and constant of the
    package, and each public method and property of its public classes,
    is read, as a Name or an Attribute, in a caller tree
    (``_caller_trees``), or is named by a per-layer metric of
    BENCHMARK.json.  A Name read counts only where no enclosing function,
    lambda or comprehension binds that name: a local variable that shares
    a public name is no reference to it.  Nor is an attribute of a stdlib
    module imported in the same file, such as ``json.dump``.  ``cmd_*``
    are looked up by the CLI through ``globals()``."""
    used = set()
    defined = []
    for path, tree in _caller_trees():
        stdlib = _stdlib_modules(tree)
        used.update(_free_reads(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) not in stdlib:
                used.add(node.attr)
        if path.parent != PACKAGE:
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _is_public(node.name):
                defined.append((path.stem, node.name, node.name))
            if isinstance(node, ast.ClassDef) and _is_public(node.name):
                defined += [(path.stem, f"{node.name}.{f.name}", f.name) for f in _public_functions(node)]
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            defined += [
                (path.stem, t.id, t.id) for t in targets if isinstance(t, ast.Name) and _is_public(t.id)
            ]
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    pinned = {tuple(m["name"].split(".")[:2]) for m in metrics}
    uncalled = [
        f"{mod}.{name}" for mod, name, ref in defined if ref not in used and (mod, name) not in pinned
    ]
    assert not uncalled, uncalled


def test_every_defaulted_parameter_is_set_by_a_caller():
    """Each defaulted parameter of a public function of the package, or
    of a public method of its public classes, is set, by keyword or by
    position, in some call in a caller tree (``_caller_trees``) to a
    function or method of that name."""
    positions, keywords = {}, {}  # callee name -> most positional arguments / keywords set
    for _, tree in _caller_trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            count = float("inf") if any(isinstance(a, ast.Starred) for a in node.args) else len(node.args)
            positions[name] = max(positions.get(name, 0), count)
            keywords.setdefault(name, set()).update(kw.arg for kw in node.keywords)  # None: **kwargs
    unset = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(), str(path))
        functions = [(f, 0) for f in tree.body if isinstance(f, ast.FunctionDef) and _is_public(f.name)]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and _is_public(cls.name):
                functions += [
                    (f, 0 if any(getattr(d, "id", None) == "staticmethod" for d in f.decorator_list) else 1)
                    for f in _public_functions(cls)
                ]
        for f, skip in functions:  # skip: the self parameter, which a call does not pass
            params = [*f.args.posonlyargs, *f.args.args][skip:]
            by_keyword = keywords.get(f.name, set())
            defaulted = [
                (p.arg, i < positions.get(f.name, 0))
                for i, p in enumerate(params)
                if i >= len(params) - len(f.args.defaults)
            ]
            defaulted += [(p.arg, False) for p, d in zip(f.args.kwonlyargs, f.args.kw_defaults) if d is not None]
            unset |= {
                f"{path.stem}.{f.name}({arg})"
                for arg, by_position in defaulted
                if not (by_position or arg in by_keyword or None in by_keyword)
            }
    assert unset <= ALLOWED_UNSET, sorted(unset - ALLOWED_UNSET)


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


def _stored_names(fn):
    """The names fn's own body binds (assignments, loop and ``with``
    targets, ``except ... as``, nested defs and classes), nested scopes
    and names declared ``global`` or ``nonlocal`` aside; parameters are
    not included."""
    names, declared = set(), set()
    todo = list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        if not isinstance(node, (*_SCOPES, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))
    return names - declared


def test_no_local_is_assigned_and_never_read():
    """Every name a function of the package, the tests or tools binds in
    its own body is read somewhere in that function, a read in a nested
    function, lambda or comprehension included.  Names starting with
    ``_`` are exempt, so ``_`` marks a value that is thrown away."""
    unread = []
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py"), *(ROOT / "tools").glob("*.py")]:
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            reads = {node.id for node in ast.walk(fn) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            unread += [
                f"{path.stem}.{fn.name}: {name}"
                for name in sorted(_stored_names(fn) - reads)
                if not name.startswith("_")
            ]
    assert not unread, unread
