"""`python -O` strips assert statements, so no check in the package may be
one: every check in src/ssforms raises a typed error instead."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ssforms"


def test_package_has_no_assert_statements():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/ssforms: {found}"
