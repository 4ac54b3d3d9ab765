"""Every ``$ critnorm`` example in README.md, run in-process and checked
against the README text, and every ``python`` block of it, run as written.

The examples are parsed and compared by the benchmark's ``readme`` workload
code (bench/workloads.py): the exit code is the one README documents (2 for
an ``inapplicable`` answer, 1 for ``false`` or a nonzero violation count, 0
otherwise), text must match exactly and each printed number at a relative
1e-9 and an absolute 1e-12.
"""

import importlib.util
import pathlib
import re
import sys

import pytest

import critnorm
from critnorm import witnesses
from critnorm.cli import main

ROOT = pathlib.Path(__file__).parents[1]


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(f"readme_{name}",
                                                  ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


README = (ROOT / "README.md").read_text(encoding="utf-8")
WORKLOADS = _load_bench("workloads")
EXAMPLES = WORKLOADS.readme_invocations(README)
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.DOTALL | re.MULTILINE)


def test_the_readme_has_examples_with_documented_failures():
    assert len(EXAMPLES) >= 10
    assert {inv.expect_exit for inv in EXAMPLES} == {0, 1, 2}
    assert all(inv.expect_lines for inv in EXAMPLES)
    assert PYTHON_BLOCKS


@pytest.mark.parametrize("example", EXAMPLES, ids=[inv.label for inv in EXAMPLES])
def test_a_readme_example_prints_what_the_readme_shows(example, capsys):
    code = main(list(example.argv))
    out, err = capsys.readouterr()
    assert example.check(code, out + err, None) == []


@pytest.mark.parametrize("block", PYTHON_BLOCKS,
                         ids=[f"block{i}" for i in range(len(PYTHON_BLOCKS))])
def test_a_readme_python_block_runs(block):
    """A library snippet runs as written: its names exist and, outside
    ``python -O``, its assertions hold."""
    exec(compile(block, "README.md", "exec"), {})


def test_the_form_specs_table_lists_every_kind_once():
    """README's "Form specs" table has one row per ``_KINDS`` key, no more."""
    section = README.split("### Form specs\n", 1)[1].split("\n#", 1)[0]
    kinds = re.findall(r"^\| `([^`]+)` +\|", section, re.MULTILINE)
    assert sorted(kinds) == sorted(witnesses._KINDS)


def test_a_traced_readme_pass_calls_every_expected_layer(capsys):
    """The benchmark's traced readme pass refuses a layer it never sees
    called; run every example under its tracer, as its worker does."""
    spans = _load_bench("spans")
    tracer = spans.Tracer()
    tracer.install(critnorm)
    try:
        for example in EXAMPLES:
            critnorm.cli.main(list(example.argv))
    finally:
        tracer.uninstall()
    capsys.readouterr()
    _, calls = spans.layer_metrics(tracer.spans)
    assert [layer for layer in WORKLOADS.EXPECTED_LAYERS["readme"] if not calls[layer]] == []
    assert critnorm.cli.main is main   # the originals are back
