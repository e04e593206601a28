"""The package's runtime imports: the standard library and numpy, nothing
else, and every imported name is read; and every definition is read
somewhere in the repository."""

import ast
import re
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hatfusion"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "hatfusion"}


def imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def unused_imports(tree) -> list:
    """Names an import binds that no expression in the module reads;
    ``from __future__`` imports bind nothing."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_imports_are_stdlib_numpy_or_own():
    files = sorted(SRC.glob("*.py"))
    assert files
    outside = [f"{f.name}: {root}" for f in files
               for root in imported_roots(ast.parse(f.read_text()))
               if root not in ALLOWED]
    assert not outside, outside


def test_every_imported_name_is_read():
    files = sorted(SRC.glob("*.py"))
    assert files
    unused = [f"{f.name}: {name}" for f in files
              for name in unused_imports(ast.parse(f.read_text()))]
    assert not unused, unused


def test_unused_import_check_sees_each_form():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nimport numpy as np\nfrom json import dumps, loads\n"
                     "from . import tensor as T\n"
                     "x = np.zeros(1)\ny: T.Tensor = loads('1')\n")
    assert unused_imports(tree) == ["dumps", "os"]


ROOT = SRC.parents[1]
READERS = ("src", "tests", "demos", "perfbench")


def defined_names(tree) -> set:
    """Every function, class and method a module defines, dunders aside."""
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def read_names(tree) -> set:
    """Names an expression reads: a name, an attribute, or an identifier
    inside a string constant (a ``monkeypatch.setattr`` target, a tracer key)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(re.findall(r"\w+", node.value))
    return out


def test_every_definition_is_read():
    defined = {name: f.name for f in sorted(SRC.glob("*.py"))
               for name in defined_names(ast.parse(f.read_text()))}
    assert len(defined) > 100
    read = set()
    for folder in READERS:
        for f in sorted((ROOT / folder).rglob("*.py")):
            read |= read_names(ast.parse(f.read_text()))
    dead = sorted(f"{module}: {name}" for name, module in defined.items() if name not in read)
    assert not dead, dead


def test_definition_check_sees_each_form():
    tree = ast.parse("class A:\n    def __init__(self): pass\n    def m(self): pass\n"
                     "def f():\n    def g(): pass\n    return g\n"
                     "x = A().m\nsetattr(A, 'n', 1)\nA.f = 1\n")
    assert defined_names(tree) == {"A", "m", "f", "g"}
    assert read_names(tree) >= {"A", "m", "g", "setattr", "n"}
    assert "f" not in read_names(tree)
