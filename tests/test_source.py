"""Checks over the library's source text."""

import ast
from pathlib import Path

import cauchynet

SRC = Path(cauchynet.__file__).parent


def test_library_has_no_assert_statements():
    # Invariants are explicit checks that raise a library error: `python -O`
    # strips assert statements, and a failed one is a traceback, not an exit code.
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_library_never_calls_reciprocal():
    # Every kernel value is one division of 1.0 by a product of shifted
    # columns (kernel.cauchy_block); np.reciprocal rounds the imaginary part
    # differently, so a call to it would bring back a second rounding rule.
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and "reciprocal" in ast.unparse(node.func)]
    assert found == []
