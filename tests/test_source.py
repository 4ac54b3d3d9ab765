"""Rules on the package source itself, and on the test tooling."""

import ast
import graphlib
import importlib
import pathlib
import shutil
import subprocess
import sys

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


def test_the_package_exports_each_modules_names_once():
    """``critnorm.__all__`` is every library module's ``__all__`` plus
    ``__version__``, and no name is in two modules' lists, where one star
    import would silently shadow the other."""
    import critnorm

    lists = [importlib.import_module(f"critnorm.{path.stem}").__all__ for path in SOURCES
             if path.stem not in ("__init__", "cli")]
    names = [n for names in lists for n in names]
    assert len(names) == len(set(names))
    assert sorted(critnorm.__all__) == sorted([*names, "__version__"])


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


def test_an_order_has_one_constructor_and_one_reciprocal():
    """``ExtRational(value)`` is the one way to build an order and
    ``reciprocal()`` the one exact 1/p, so no module defines or imports a
    coercion or reciprocal helper beside them, and every ``ExtRational``
    call passes one positional argument."""
    banned, calls = set(), []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            # a def's, a class's or an imported alias's name, or a name read or bound
            names = {getattr(node, "name", None), getattr(node, "id", None)}
            banned |= {(path.stem, n) for n in names & {"as_ext", "_recip"}}
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ExtRational":
                calls.append((path.stem, node.lineno, len(node.args), len(node.keywords)))
    assert banned == set()
    assert calls and [c for c in calls if c[2:] != (1, 0)] == []


def test_every_form_kind_is_built_from_its_kinds_row():
    """``FormFactory`` compares nothing with a string literal, so no branch
    on a kind's name (or on one key) can come back: every kind is built and
    described from its ``_KINDS`` row.  Inside the harness a form spec is
    parsed only by ``_factory``, default specs included."""
    path = next(p for p in SOURCES if p.name == "witnesses.py")
    factory = next(node for node in ast.parse(path.read_text(encoding="utf-8")).body
                   if isinstance(node, ast.ClassDef) and node.name == "FormFactory")
    literal = [node.lineno for node in ast.walk(factory) if isinstance(node, ast.Compare)
               and any(isinstance(side, ast.Constant) and isinstance(side.value, str)
                       for side in (node.left, *node.comparators))]
    assert literal == []
    parsers = {function for module, function in _callers("parse_form_spec") if module == "harness"}
    assert parsers == {"_factory"}


def test_a_denominator_is_a_lower_bound_by_its_estimate_alone():
    """``harness.py`` compares no string with a ``method``: whether a
    denominator is exact is ``NormEstimate.lower_bound``, so a new method
    cannot be taken for exact by a test on one method's name."""

    def names_method(node):
        return any(getattr(n, "attr", None) == "method" or getattr(n, "id", None) == "method"
                   or (isinstance(n, ast.Constant) and n.value == "method")
                   for n in ast.walk(node))

    path = next(p for p in SOURCES if p.name == "harness.py")
    found = [node.lineno for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Compare) and names_method(node)
             and any(isinstance(side, ast.Constant) and isinstance(side.value, str)
                     for side in (node.left, *node.comparators))]
    assert found == []


def test_every_setting_option_comes_from_the_settings_table():
    """In ``cli.py`` only the options that are no setting are spelled out
    (``mode``, ``--json``, ``--out``); every other option is added by
    ``_option`` from ``_SETTINGS``, so a setting has one declaration."""
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
    assert spelled == {"mode", "--json", "--out"}
    assert computed == {"_option"}


def test_every_experiment_subcommand_comes_from_the_experiments_table():
    """In ``cli.py`` the subcommands named by a literal are the three that
    run no experiment; the one other ``add_parser`` call sits in a loop over
    ``EXPERIMENTS``, so an experiment has one declaration."""
    path = next(p for p in SOURCES if p.name == "cli.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    named, computed = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_parser":
            if isinstance(node.args[0], ast.Constant):
                named.add(node.args[0].value)
            else:
                computed.append(node)
    assert named == {"exponents", "admissible", "norm"}
    loops = [node for node in ast.walk(tree) if isinstance(node, ast.For)
             and "EXPERIMENTS" in {getattr(n, "id", None) for n in ast.walk(node.iter)}]
    assert len(computed) == 1 and any(computed[0] in set(ast.walk(loop)) for loop in loops)


def test_the_relative_imports_of_the_package_form_no_cycle():
    """Module a depends on module b when a imports from b by a relative
    import, at the top or inside a function.  The graph has no cycle
    (``prepare`` raises CycleError naming one), so every module can be read,
    and loaded, after the ones it uses."""
    graph = {}
    for path in SOURCES:
        deps = graph.setdefault(path.stem, set())
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                deps |= {node.module} if node.module else {a.name for a in node.names}
    graphlib.TopologicalSorter(graph).prepare()
    assert graph["tensor"] == {"exponents"}


def test_a_failing_property_test_does_not_end_the_session(tmp_path):
    """A failing Hypothesis test fails alone and the next test still runs,
    under the suite's own conftest and warning filters.  Hypothesis imports
    its patch writer when a test fails; conftest imports it up front, so a
    DeprecationWarning from that import is not turned into an INTERNALERROR."""
    tests = pathlib.Path(__file__).parent
    shutil.copy(tests / "conftest.py", tmp_path)
    (tmp_path / "test_probe.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n\n\n"
        "def test_passes():\n"
        "    pass\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(tests.parent / "pyproject.toml"), "--rootdir", str(tmp_path),
         "--confcutdir", str(tmp_path), str(tmp_path / "test_probe.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout


def test_each_setting_parser_and_experiment_runner_is_declared_once():
    """``cli.py`` binds no ``run_*`` name: the CLI calls ``harness.run_<name>``.
    A setting that ``harness.PARSERS`` types has its parser declared there
    alone: ``_SETTINGS`` gives no such setting a type, and each option of
    one takes the table's parser (wrapped, so that argparse prints the
    parser's own message), except where a subcommand's option means
    something else: ``admissible``'s scalar domain orders ``--p``/``--q``,
    whose ``type=`` (wrapped the same way) is the only one that ``cli.py``
    passes.
    ``ExperimentConfig.__post_init__`` names no parser: it coerces settings
    in one loop over the table."""
    import argparse

    from critnorm import cli
    from critnorm.exponents import ExtRational
    from critnorm.harness import PARSERS

    path = next(p for p in SOURCES if p.name == "cli.py")
    bound = {alias.asname or alias.name for node in ast.walk(ast.parse(path.read_text("utf-8")))
             if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert [n for n in {*bound, *vars(cli)} if n.startswith("run_")] == []

    assert [k for k, kw in cli._SETTINGS.items() if "type" in kw and k in PARSERS] == []
    passed = sorted(ast.unparse(k.value) for node in ast.walk(ast.parse(path.read_text("utf-8")))
                    if isinstance(node, ast.Call) for k in node.keywords if k.arg == "type")
    assert passed == ["ExtRational"]
    own = {("admissible", "p"): ExtRational, ("admissible", "q"): ExtRational}
    subs = next(a for a in cli._build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices
    typed = {(name, a.dest): getattr(a.type, "__wrapped__", a.type)
             for name, sub in subs.items() for a in sub._actions if a.dest in PARSERS}
    assert {key: t for key, t in typed.items() if t is not PARSERS[key[1]]} == own

    path = next(p for p in SOURCES if p.name == "harness.py")
    config = next(node for node in ast.parse(path.read_text("utf-8")).body
                  if isinstance(node, ast.ClassDef) and node.name == "ExperimentConfig")
    post_init = next(node for node in config.body
                     if isinstance(node, ast.FunctionDef) and node.name == "__post_init__")
    names = {n.id for n in ast.walk(post_init) if isinstance(n, ast.Name)}
    assert names & {"ExtRational", "ExponentVector", "_sweep", "int", "tuple"} == set()
    loops = [node for node in ast.walk(post_init) if isinstance(node, ast.For)]
    assert len(loops) == 1 and "PARSERS" in {getattr(n, "id", None) for n in ast.walk(loops[0])}
    setters = [n for n in ast.walk(post_init) if isinstance(n, ast.Call)
               and getattr(n.func, "id", None) == "setattr"]
    assert setters and all(n in set(ast.walk(loops[0])) for n in setters)
    assigned = [n for n in ast.walk(post_init) if isinstance(n, ast.Attribute)
                and isinstance(n.ctx, ast.Store)]
    assert assigned == []
