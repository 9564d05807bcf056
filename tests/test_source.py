"""Static checks on the library source."""

import ast
from pathlib import Path

import ap3

SOURCES = sorted(Path(ap3.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # python -O strips asserts, so library invariants must be explicit errors
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not offenders
