"""Layout lint: no library definition without a library use.

Every module-level function and class of the package must be referenced
by name (an `ast.Name` or an `ast.Attribute`) somewhere in the package,
be exported by `__init__`, or be the console entry point `cli.main`, and
every method of a package class other than a dunder must be referenced
by name in the package.  A helper whose only callers are tests belongs in
those tests.  Docstrings
and comments are not code, so a name mentioned only there is unused.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "contactk")
ENTRY_POINTS = {("cli", "main")}


def _trees():
    out = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                out[name[:-3]] = ast.parse(fh.read(), filename=name)
    return out


def _used_names(trees):
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def _exported(init_tree):
    out = set()
    for node in init_tree.body:
        if isinstance(node, ast.ImportFrom):
            out.update(alias.asname or alias.name for alias in node.names)
    return out


def test_every_definition_has_a_library_use():
    trees = _trees()
    used = _used_names(trees)
    exported = _exported(trees["__init__"])
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            name = node.name
            if (name in used or name in exported
                    or (module, name) in ENTRY_POINTS):
                continue
            unused.append(f"{module}.{name}")
    assert unused == []


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def test_every_method_has_a_library_use():
    trees = _trees()
    used = _used_names(trees)
    unused = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not _is_dunder(node.name)
                        and node.name not in used):
                    unused.append(f"{module}.{cls.name}.{node.name}")
    assert unused == []
