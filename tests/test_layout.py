"""Layout lint: no library definition without a library use.

Every module-level function and class of the package must be referenced
somewhere in the package, be exported by `__init__`, or be the console
entry point `cli.main`, and every method of a package class other than a
dunder must be referenced in the package.  A module-level definition is
referenced by an attribute of its name, or by a name that some scope
loads without binding it (so a local variable `mat` is not a use of a
function `mat`); a method is referenced only by an attribute.  A helper
whose only callers are tests belongs in those tests.  Docstrings and
comments are not code, so a name mentioned only there is unused.
"""

import ast
import os
import symtable

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "contactk")
ENTRY_POINTS = {("cli", "main")}


def _sources():
    out = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                out[name[:-3]] = fh.read()
    return out


def _trees():
    return {module: ast.parse(text, filename=f"{module}.py")
            for module, text in _sources().items()}


def _global_loads(table):
    """The names some scope under `table` reads as globals."""
    out = {sym.get_name() for sym in table.get_symbols()
           if sym.is_referenced() and sym.is_global()}
    for child in table.get_children():
        out |= _global_loads(child)
    return out


def _attributes(trees):
    return {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}


def _exported(init_tree):
    out = set()
    for node in init_tree.body:
        if isinstance(node, ast.ImportFrom):
            out.update(alias.asname or alias.name for alias in node.names)
    return out


def test_every_definition_has_a_library_use():
    trees = _trees()
    used = _attributes(trees)
    for module, text in _sources().items():
        used |= _global_loads(symtable.symtable(text, module, "exec"))
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
    used = _attributes(trees)
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
