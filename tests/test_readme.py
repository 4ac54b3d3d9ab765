"""Every ``$ critnorm`` example in README.md, run in-process and checked
against the README text.

The examples are parsed and compared by the benchmark's ``readme`` workload
code (bench/workloads.py): the exit code is the one README documents (2 for
an ``inapplicable`` answer, 1 for ``false`` or a nonzero violation count, 0
otherwise), text must match exactly and each printed number at a relative
1e-9 and an absolute 1e-12.
"""

import importlib.util
import pathlib
import sys

import pytest

from critnorm.cli import main

ROOT = pathlib.Path(__file__).parents[1]


def _load_workloads():
    spec = importlib.util.spec_from_file_location("readme_workloads",
                                                  ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


EXAMPLES = _load_workloads().readme_invocations((ROOT / "README.md").read_text(encoding="utf-8"))


def test_the_readme_has_examples_with_documented_failures():
    assert len(EXAMPLES) >= 10
    assert {inv.expect_exit for inv in EXAMPLES} == {0, 1, 2}
    assert all(inv.expect_lines for inv in EXAMPLES)


@pytest.mark.parametrize("example", EXAMPLES, ids=[inv.label for inv in EXAMPLES])
def test_a_readme_example_prints_what_the_readme_shows(example, capsys):
    code = main(list(example.argv))
    out, err = capsys.readouterr()
    assert example.check(code, out + err, None) == []
