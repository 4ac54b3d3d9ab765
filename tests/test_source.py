"""Rules on the package source itself."""

import ast
import pathlib

SOURCES = sorted((pathlib.Path(__file__).parents[1] / "src" / "critnorm").glob("*.py"))


def test_the_package_has_no_assert_statements():
    """Invariants must hold under python -O, which strips assert statements,
    so the package raises explicit exceptions instead."""
    assert SOURCES
    found = {}
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        if lines:
            found[path.name] = lines
    assert found == {}
