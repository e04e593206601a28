"""The package's runtime imports: the standard library and numpy, nothing else."""

import ast
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


def test_imports_are_stdlib_numpy_or_own():
    files = sorted(SRC.glob("*.py"))
    assert files
    outside = [f"{f.name}: {root}" for f in files
               for root in imported_roots(ast.parse(f.read_text()))
               if root not in ALLOWED]
    assert not outside, outside
