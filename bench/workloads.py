"""Workloads of the critnorm benchmark and the checks on their outputs.

Each workload is a list of command lines for ``critnorm.cli.main``:

``dense-ascent``
    Two dense Gaussian ``verify`` runs whose denominators come from block
    ascent; the slot-gradient contraction inside ``ascent_norm`` dominates.
``readme``
    Every ``$ critnorm ...`` example in README.md, parsed at run time and
    checked against the README text.  Small forms, so ``dual_argmax`` and
    the Python glue around it dominate.
``exact-denominators``
    Closed-form and singular-value denominators on large coefficient
    tensors, plus report writing; ``ascent_norm`` is never called.

Commands that write a report (``--out``) are checked against reference
values recorded in ``references.json`` and, pass after pass, against their
own earlier bytes.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import re
import shlex
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")

# Tolerances of the output checks.
README_RTOL = 1e-9    # each number printed in a README example, relative
README_ATOL = 1e-12   # ... and absolute, so a printed 0 may read as rounding noise
EXACT_RTOL = 1e-9     # mixed norms, closed-form and singular-value norms, their ratios
ASCENT_RTOL = 1e-6    # an ascent norm may not fall further than this below its reference

WORKLOADS = ("dense-ascent", "readme", "exact-denominators")

# (command line, report file name or None)
_DENSE_ASCENT = [
    ("verify --form gauss:m=3 --n 64 --trials 1 --seed 7", "dense-m3n64.json"),
    ("verify --form gauss:m=4 --n 24 --trials 1 --seed 7", "dense-m4n24.json"),
]
_EXACT_DENOMINATORS = [
    ("verify --form dot:m=4 --n 40 --trials 3", "dot-m4n40.json"),
    ("sharpness --form partial:m=4,r=1 --sweep 8,16,24,32,40", "partial-m4r1.json"),
    ("bilinear-law --form t0:n1=64 --n 256 --a 1 --b inf --trials 20", "t0-n256.json"),
    ("verify --form gauss:dims=256x256 --trials 20 --seed 7", "svd-256.json"),
    ("verify --form gauss:dims=64x64 --trials 400 --seed 7", "gauss-64x64.json"),
    ("verify --form gauss:dims=64x64 --trials 400 --seed 7", "gauss-64x64.csv"),
]

# Tiny commands a fresh process runs before it counts as set up: together
# they make the first call into every layer the workload uses.
_SETUP = {
    "dense-ascent": [
        ("verify --form gauss:m=3 --n 3 --trials 1 --seed 1", "setup.json"),
    ],
    "readme": [
        ("verify --form gauss:m=3 --n 3 --trials 1 --seed 1", None),
        ("inclusion-instance --r 2 --p 2,2 --q 4,4 --form gauss:m=2 --n 3 "
         "--trials 1 --datasets 3", None),
        ("admissible --p 4 --q 4 --a 2 --b inf", None),
    ],
    "exact-denominators": [
        ("verify --form gauss:dims=3x3 --trials 1 --seed 1", "setup.json"),
    ],
}

# Layers (see spans.LAYERS) whose call count must not be zero in a traced pass.
EXPECTED_LAYERS = {
    "dense-ascent": ("cli", "harness.run", "harness.report", "witnesses.make",
                     "exponents", "tensor.mixed_norm", "opnorm.ascent_norm",
                     "opnorm.dual_argmax"),
    "readme": ("cli", "harness.run", "witnesses.make", "exponents",
               "tensor.mixed_norm", "tensor.weak_norm", "opnorm.ascent_norm",
               "opnorm.dual_argmax", "opnorm.spectral_norm"),
    "exact-denominators": ("cli", "harness.run", "harness.report", "witnesses.make",
                           "exponents", "tensor.mixed_norm", "opnorm.spectral_norm"),
}

_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


@dataclass
class Invocation:
    """One command line, what it should exit with and what it should print."""

    label: str
    argv: list
    expect_exit: int = 0
    expect_lines: list | None = None     # readme examples: the README text
    report: str | None = None            # file name of the --out report
    reference: dict | None = None        # recorded trials of that report
    last_bytes: bytes | None = None      # report of the previous pass

    def check(self, code, output: str, report_bytes: bytes | None) -> list:
        """Error messages for one run of this invocation (empty when correct)."""
        errors = []
        if code != self.expect_exit:
            errors.append(f"exit code {code}, expected {self.expect_exit}")
        if self.expect_lines is not None:
            errors += compare_output(self.expect_lines, output)
        if self.report is not None:
            if report_bytes is None:
                errors.append(f"no report written to {self.report}")
            else:
                if self.last_bytes is not None and report_bytes != self.last_bytes:
                    errors.append(f"{self.report} differs from the previous pass")
                self.last_bytes = report_bytes
                errors += compare_report(self.report, report_bytes, self.reference)
        return [f"{self.label}: {e}" for e in errors]


def load(name: str, root: str, seed: int, tmp: str) -> list:
    """The workload's invocations, in an order drawn from ``seed``.

    The forms are fixed (their references are recorded); the seed decides
    the order the commands run in within every pass.
    """
    if name == "readme":
        with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
            invocations = readme_invocations(fh.read())
        if not invocations:
            raise ValueError("README.md holds no '$ critnorm' examples")
    else:
        with open(REFERENCES, encoding="utf-8") as fh:
            refs = json.load(fh)["reports"]
        invocations = [_with_report(cmd, report, tmp, refs[report])
                       for cmd, report in report_table(name)]
    random.Random(seed).shuffle(invocations)
    return invocations


def setup_invocations(name: str, tmp: str) -> list:
    return [_with_report(cmd, report, tmp) for cmd, report in _SETUP[name]]


def report_table(name: str) -> list:
    """(command, report name) pairs of a workload that records references."""
    return _DENSE_ASCENT if name == "dense-ascent" else _EXACT_DENOMINATORS


def _with_report(cmd: str, report: str | None, tmp: str, reference=None) -> Invocation:
    argv = shlex.split(cmd)
    if report is not None:
        argv += ["--out", os.path.join(tmp, report)]
    return Invocation(label=cmd, argv=argv, report=report, reference=reference)


def readme_invocations(text: str) -> list:
    """Every ``$ critnorm ...`` line in a fenced block, with the lines after it.

    The expected output runs to the next blank line, command or fence.  The
    expected exit code follows README's documented codes: 2 for an
    ``inapplicable`` answer, 1 for a ``false`` admissibility answer or a run
    that reports violations, 0 otherwise.
    """
    out = []
    in_block = False
    current = None
    for line in text.splitlines():
        if line.startswith("```"):
            in_block = not in_block
            current = None
        elif not in_block:
            continue
        elif line.startswith("$ critnorm "):
            current = Invocation(label=line[2:], argv=shlex.split(line[len("$ critnorm "):]),
                                 expect_lines=[])
            out.append(current)
        elif not line.strip():
            current = None
        elif current is not None:
            current.expect_lines.append(line)
    for inv in out:
        inv.expect_exit = _documented_exit(inv.argv, inv.expect_lines)
    return out


def _documented_exit(argv, lines) -> int:
    if lines and lines[0].startswith("inapplicable:"):
        return 2
    if argv[0] == "admissible" and lines[:1] == ["false"]:
        return 1
    if any(re.search(r"\b[1-9]\d* violations", line) for line in lines):
        return 1
    return 0


def compare_output(expected: list, output: str) -> list:
    """Text must match exactly; numbers match at README_RTOL / README_ATOL."""
    got = output.splitlines()
    if len(got) != len(expected):
        return [f"printed {len(got)} lines, README shows {len(expected)}: {output!r}"]
    return [f"printed {g!r}, README shows {w!r}"
            for w, g in zip(expected, got) if not _same_line(w, g)]


def _same_line(want: str, got: str) -> bool:
    if _NUMBER.split(want) != _NUMBER.split(got):
        return False
    return all(math.isclose(float(a), float(b), rel_tol=README_RTOL, abs_tol=README_ATOL)
               for a, b in zip(_NUMBER.findall(want), _NUMBER.findall(got)))


def report_trials(name: str, data: bytes) -> list:
    """Per-trial records of a JSON or CSV report, numbers as floats."""
    text = data.decode("utf-8")
    if name.endswith(".csv"):
        rows = list(csv.DictReader(io.StringIO(text)))
        return [{k: _csv_value(v) for k, v in row.items()} for row in rows]
    return json.loads(text)["trials"]


def _csv_value(v: str):
    if v in ("true", "false"):
        return v == "true"
    try:
        return float(v)
    except ValueError:
        return v


def compare_report(name: str, data: bytes, reference: dict | None) -> list:
    """Check every trial's lhs, norm, ratio, method and verdict against the reference.

    An ascent norm is a lower bound: it may rise, but it may not fall more
    than ASCENT_RTOL below the reference, and its ratio may not rise more.
    Everything else must match at EXACT_RTOL.
    """
    if reference is None:
        return []
    try:
        trials = report_trials(name, data)
    except (ValueError, KeyError) as exc:
        return [f"{name} does not parse: {exc}"]
    want = reference["trials"]
    if len(trials) != len(want):
        return [f"{name} holds {len(trials)} trials, reference {len(want)}"]
    errors = []
    for i, (got, ref) in enumerate(zip(trials, want)):
        where = f"{name} trial {i}"
        if got.get("method") != ref["method"]:
            errors.append(f"{where}: method {got.get('method')}, reference {ref['method']}")
            continue
        if got.get("violation") != ref["violation"]:
            errors.append(f"{where}: violation {got.get('violation')}, reference {ref['violation']}")
        if not _close(got.get("lhs"), ref["lhs"]):
            errors.append(f"{where}: lhs {got.get('lhs')}, reference {ref['lhs']}")
        norm, ratio = _number(got.get("norm")), _number(got.get("ratio"))
        if norm is None or ratio is None:
            errors.append(f"{where}: norm {got.get('norm')!r} or ratio "
                          f"{got.get('ratio')!r} is not a finite number")
        elif ref["method"] == "ascent":
            if norm < ref["norm"] * (1 - ASCENT_RTOL):
                errors.append(f"{where}: ascent norm {norm} below reference {ref['norm']}")
            if ratio > ref["ratio"] * (1 + ASCENT_RTOL):
                errors.append(f"{where}: ratio {ratio} above reference {ref['ratio']}")
        elif not (_close(norm, ref["norm"]) and _close(ratio, ref["ratio"])):
            errors.append(f"{where}: norm {norm}, ratio {ratio}, "
                          f"reference {ref['norm']}, {ref['ratio']}")
    return errors


def _number(value):
    """``value`` as a float if it is a finite number, else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value) if math.isfinite(value) else None


def _close(got, want) -> bool:
    got = _number(got)
    return got is not None and math.isclose(got, want, rel_tol=EXACT_RTOL)
