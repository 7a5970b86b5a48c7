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
