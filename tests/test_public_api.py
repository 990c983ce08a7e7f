"""The public surface: every exported name exists, and its annotations resolve."""

import ast
import importlib
import inspect
import pkgutil
import typing
from pathlib import Path

import snrsched

MODULES = [
    importlib.import_module(f"snrsched.{info.name}")
    for info in sorted(pkgutil.iter_modules(snrsched.__path__), key=lambda i: i.name)
]


def _public_objects():
    """(qualified name, object) for each exported function and class and each public method."""
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            qual = f"{module.__name__}.{name}"
            if inspect.isfunction(obj):
                yield qual, obj
            elif inspect.isclass(obj):
                yield qual, obj
                for attr, raw in vars(obj).items():
                    if isinstance(raw, (classmethod, staticmethod)):
                        raw = raw.__func__
                    elif isinstance(raw, property):
                        raw = raw.fget
                    if not attr.startswith("_") and inspect.isfunction(raw):
                        yield f"{qual}.{attr}", raw


def test_every_exported_name_resolves():
    missing = [f"{m.__name__}.{name}" for m in MODULES for name in m.__all__ if not hasattr(m, name)]
    assert missing == []


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(snrsched.__file__).read_text())
    stray = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            exported = importlib.import_module(f"snrsched.{node.module}").__all__
            stray += [f"{node.module}.{a.name}" for a in node.names if a.name not in exported]
    assert stray == []


def test_public_annotations_resolve():
    broken = []
    for qual, obj in _public_objects():
        try:
            typing.get_type_hints(obj)
        except Exception as exc:  # report every unresolvable annotation at once
            broken.append(f"{qual}: {exc!r}")
    assert broken == []


def _module_level_imports(tree):
    """Import statements that run at import time: the module body, but not function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def test_package_import_graph_has_no_cycle():
    src = Path(snrsched.__file__).parent
    names = {p.stem for p in src.glob("*.py")}
    graph = {}
    for name in names:
        deps = set()
        for node in _module_level_imports(ast.parse((src / f"{name}.py").read_text())):
            if not isinstance(node, ast.ImportFrom) or node.level != 1:
                continue
            if node.module:
                deps.add(node.module)
            else:  # from . import x: a module x, else a name of the package itself
                deps.update(a.name if a.name in names else "__init__" for a in node.names)
        graph[name] = deps

    def cycle_from(name, path):
        if name in path:
            return path[path.index(name):] + [name]
        for dep in sorted(graph[name]):
            found = cycle_from(dep, path + [name])
            if found:
                return found
        return None

    cycles = [c for c in (cycle_from(n, []) for n in sorted(graph)) if c]
    assert cycles == []
