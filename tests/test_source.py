"""Rules on the package source itself."""

import ast
import importlib
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


def test_every_exported_name_exists():
    """Each name in the package ``__all__`` and in every module's ``__all__``
    resolves to an attribute, so a deletion cannot leave a stale export."""
    missing = {}
    for path in SOURCES:
        name = "critnorm" if path.stem == "__init__" else f"critnorm.{path.stem}"
        module = importlib.import_module(name)
        stale = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        if stale:
            missing[name] = stale
    assert missing == {}
