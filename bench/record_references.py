"""Record the reference trials that bench/references.json holds.

    python3 bench/record_references.py

runs every reporting command of ``dense-ascent`` and ``exact-denominators``
once and writes each report's per-trial lhs, norm, method, ratio and
verdict.  The benchmark compares later runs against these values, so
re-record only when a change of results is intended, and say why.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shlex
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import workloads  # noqa: E402

ROOT = os.path.dirname(workloads.HERE)
FIELDS = ("lhs", "norm", "method", "ratio", "violation")


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from critnorm.cli import main as cli_main

    reports = {}
    scratch = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for name in ("dense-ascent", "exact-denominators"):
            for cmd, report in workloads.report_table(name):
                path = os.path.join(tmp, report)
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli_main(shlex.split(cmd) + ["--out", path])
                if code != 0:
                    raise SystemExit(f"{cmd} exited with {code}")
                with open(path, "rb") as fh:
                    trials = workloads.report_trials(report, fh.read())
                reports[report] = {"command": cmd,
                                   "trials": [{k: t[k] for k in FIELDS} for t in trials]}
    with open(workloads.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump({"reports": reports}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
