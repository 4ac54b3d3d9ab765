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


def _callers(name: str) -> set:
    """(module, enclosing function) of every call of ``name`` in the package,
    by its bare name or as an attribute; a call at module level has
    function None."""
    found = set()

    def visit(node, module, function):
        if isinstance(node, ast.Call):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called == name:
                found.add((module, function))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in SOURCES:
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), path.stem, None)
    return found


def test_one_place_decides_an_exact_norm_and_one_runs_the_ascent():
    """A singular value is taken only where ``exact_norm`` decides a norm is
    exact, and the block ascent runs only from ``_ascent_estimates``, so no
    caller forks around either decision."""
    assert _callers("spectral_norm") == {("opnorm", "exact_norm")}
    assert _callers("_ascend") == {("opnorm", "_ascent_estimates")}


def test_one_trial_path_reaches_verdict_norms_and_exact_norm():
    """Inside the harness an estimate becomes a trial's verdict only in
    ``_checked``; bilinear-law's record and inclusion-instance's check judge
    ratios that are not lhs over a norm.  Ascent norms are taken only by
    ``_check_trials`` and exact norms only by ``_run_trials``."""

    def inside(name):
        return {function for module, function in _callers(name) if module == "harness"}

    assert inside("verdict") == {"_checked", "record", "check"}
    assert inside("norms") == {"_check_trials"}
    assert inside("exact_norm") == {"_run_trials"}


def test_every_setting_option_comes_from_the_settings_table():
    """In ``cli.py`` only the options that are no setting are spelled out
    (``mode``, ``--json``, ``--out``, ``--format``); every other option is
    added by ``_option`` from ``_SETTINGS``, so a setting has one declaration."""
    path = next(p for p in SOURCES if p.name == "cli.py")
    spelled, computed = set(), set()
    for function in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(function, ast.FunctionDef):
            continue
        for node in ast.walk(function):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument":
                names = {a.value for a in node.args if isinstance(a, ast.Constant)}
                spelled |= names
                if not names:
                    computed.add(function.name)
    assert spelled == {"mode", "--json", "--out", "--format"}
    assert computed == {"_option"}
