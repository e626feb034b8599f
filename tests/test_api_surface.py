"""Every module-level function and class of the package, and every public
method and property of its classes, has a caller.

A definition that only tests use is weight the program carries for
nothing.  This scans ``src/``, ``perfbench/`` and ``demos/`` with ``ast`` and
fails on any function or class defined at the top of a module in
``src/inkspread/``, or any method or property of such a class whose name
does not start with ``_``, that is referenced nowhere there.  The package's
``__init__`` (its export list) does not count as a reference, nor does a
definition's use of its own name.  A string spelling the name does count:
the benchmark's tracer looks functions up by name.  A method that overrides
one of a base class is exempt, since the base class's callers reach it (the
argument parser calls ``error``, for one).
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "inkspread"


def references(tree: ast.AST) -> Counter:
    """Names that ``tree`` reads, as variables, attributes or identifier strings."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            names[node.value] += 1
    return names


def scan():
    """The package's module trees by path, and the names read outside the tests."""
    files = [path for top in ("src", "perfbench", "demos") for path in sorted((ROOT / top).rglob("*.py"))
             if path != PACKAGE / "__init__.py"]
    trees = {path: ast.parse(path.read_text(), str(path)) for path in files}
    modules = {path: trees[path] for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    return modules, sum((references(tree) for tree in trees.values()), Counter())


def test_every_definition_has_a_caller_outside_the_tests():
    modules, used = scan()
    unused = [f"{path.stem}.{node.name}"
              for path, tree in modules.items()
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and used[node.name] == references(node)[node.name]]
    assert unused == [], f"used by tests only, or by nothing: {', '.join(unused)}"


def overrides(path: Path, cls: str, name: str) -> bool:
    """Whether method ``name`` of class ``cls`` redefines one of a base class."""
    bases = getattr(importlib.import_module(f"inkspread.{path.stem}"), cls).__mro__[1:]
    return any(hasattr(base, name) for base in bases)


def test_every_public_method_and_property_has_a_caller_outside_the_tests():
    modules, used = scan()
    unused = [f"{path.stem}.{node.name}.{item.name}"
              for path, tree in modules.items()
              for node in tree.body if isinstance(node, ast.ClassDef)
              for item in node.body
              if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
              and used[item.name] == references(item)[item.name]
              and not overrides(path, node.name, item.name)]
    assert unused == [], f"used by tests only, or by nothing: {', '.join(unused)}"
