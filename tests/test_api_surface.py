"""Every module-level function and class of the package, every public
method and property of its classes, and every field of its dataclasses has
a caller.

A definition that only tests use is weight the program carries for
nothing.  This scans ``src/``, ``perfbench/`` and ``demos/`` with ``ast`` and
fails on any function or class defined at the top of a module in
``src/inkspread/``, or any method or property of such a class whose name
does not start with ``_``, that is referenced nowhere there.  The package's
``__init__`` (its export list) does not count as a reference, nor does a
definition's use of its own name.  A string spelling the name does count:
the benchmark's tracer looks functions up by name.  A method that overrides
one of a base class is exempt, since the base class's callers reach it (the
argument parser calls ``error``, for one).  A dataclass field counts as
read only through an attribute or an identifier string: a bare variable of
the same name, or a string keying a dict or a subscript (a JSON record's
``"epsilon"``), is a different thing.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "inkspread"


def references(tree: ast.AST, fields: bool = False) -> Counter:
    """Names that ``tree`` reads, as variables, attributes or identifier
    strings.  With ``fields``, only what can read a field counts: neither a
    bare variable nor a string keying a dict or a subscript does."""
    keys, names = set(), Counter()
    # ast.walk yields a node before its children, so a key is known before it is met
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict) and fields:
            keys.update(map(id, node.keys))
        elif isinstance(node, ast.Subscript) and fields:
            keys.add(id(node.slice))
        elif isinstance(node, ast.Name) and not fields:
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier()
              and id(node) not in keys):
            names[node.value] += 1
    return names


def scan(fields: bool = False):
    """The package's module trees by path, and the names read outside the tests."""
    files = [path for top in ("src", "perfbench", "demos") for path in sorted((ROOT / top).rglob("*.py"))
             if path != PACKAGE / "__init__.py"]
    trees = {path: ast.parse(path.read_text(), str(path)) for path in files}
    modules = {path: trees[path] for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    return modules, sum((references(tree, fields) for tree in trees.values()), Counter())


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


def is_dataclass(node: ast.ClassDef) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in node.decorator_list)


def test_every_dataclass_field_is_read_outside_the_tests():
    modules, read = scan(fields=True)
    unread = [f"{path.stem}.{node.name}.{item.target.id}"
              for path, tree in modules.items()
              for node in tree.body if isinstance(node, ast.ClassDef) and is_dataclass(node)
              for item in node.body
              if isinstance(item, ast.AnnAssign) and not read[item.target.id]]
    assert unread == [], f"read by tests only, or by nothing: {', '.join(unread)}"
