"""Every module-level function and class of the package has a caller.

A definition that only tests use is weight the program carries for
nothing.  This scans ``src/``, ``perfbench/`` and ``demos/`` with ``ast`` and
fails on any function or class defined at the top of a module in
``src/inkspread/`` whose name is referenced nowhere there.  The package's
``__init__`` (its export list) does not count as a reference, nor does a
definition's use of its own name.  A string spelling the name does count:
the benchmark's tracer looks functions up by name.
"""

import ast
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


def test_every_definition_has_a_caller_outside_the_tests():
    files = [path for top in ("src", "perfbench", "demos") for path in sorted((ROOT / top).rglob("*.py"))
             if path != PACKAGE / "__init__.py"]
    trees = {path: ast.parse(path.read_text(), str(path)) for path in files}
    used = sum((references(tree) for tree in trees.values()), Counter())
    unused = [f"{path.stem}.{node.name}"
              for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
              for node in trees[path].body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and used[node.name] == references(node)[node.name]]
    assert unused == [], f"used by tests only, or by nothing: {', '.join(unused)}"
