"""Benchmark of the critnorm command line: one workload, one run, one result.

Run from the repository root:

    python3 bench/run.py --workload dense-ascent --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): ``dense-ascent``, ``readme`` and
``exact-denominators``.  Each run starts single-threaded worker processes
with BLAS pinned to one thread and ``src/`` on the path; the commands run
in-process through ``critnorm.cli.main``.  ``--seed`` fixes the order of the
commands in a pass.

With ``--trace 0`` the metrics are

* ``wall_s``: median wall time of one pass over the workload's commands,
  after a warm-up pass;
* ``setup_s``: median, over several fresh worker processes, of the time
  from launch until critnorm is imported and a first call into each layer
  the workload uses has returned;
* ``peak_rss_mb``: peak resident memory of the measuring worker (its speed
  probe holds 3 MB of it).

Both times are scaled to a reference host speed: the worker times a fixed
probe that runs no critnorm code next to each pass (see
``worker.SpeedProbe``), and each time is multiplied by the reference probe
time over the probe time measured with it.  The raw times and the scales
are printed with the samples.

With ``--trace 1`` they are the per-layer numbers of traced passes (see
spans.py), the tracing overhead and a scaling grid.  Every command's exit
code and output are checked; ``attempted`` and ``failed`` count command
invocations, so ``failed / attempted`` is the error rate.  The last line of
standard output is the JSON result; the line before it records the
environment and the raw samples.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
from time import perf_counter

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 6      # fresh processes timed for setup_s, besides the measuring one
TIME_LIMIT_S = 170    # the whole run, set-up probes included
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


class Worker:
    """A worker process; ``setup_s`` is the time from launch to its ``ready`` line."""

    def __init__(self, args, deadline: float, setup_only: bool):
        argv = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if setup_only:
            argv.append("--setup-only")
        env = dict(os.environ, **PINNED, PYTHONPATH=os.path.join(ROOT, "src"))
        self.deadline = deadline
        start = perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                                     cwd=ROOT, env=env)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], self._left())
            line = self.proc.stdout.readline() if ready else ""
        except BaseException:
            self.close()
            raise
        self.setup_s = perf_counter() - start
        if line.strip() != "ready":
            self.close()
            raise BenchError(f"worker did not get ready (exit code {self.proc.returncode})")

    def result(self) -> dict:
        try:
            out, _ = self.proc.communicate(timeout=self._left())
        except subprocess.TimeoutExpired:
            raise BenchError(f"run exceeded {TIME_LIMIT_S} s") from None
        finally:
            self.close()
        if self.proc.returncode != 0:
            raise BenchError(f"worker failed with exit code {self.proc.returncode}")
        lines = out.strip().splitlines()
        return json.loads(lines[-1]) if lines else {}

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()

    def _left(self) -> float:
        return max(0.0, self.deadline - perf_counter())


def run(args) -> dict:
    if not os.path.isfile(os.path.join(ROOT, "src", "critnorm", "__init__.py")):
        raise BenchError(f"no critnorm sources under {os.path.join(ROOT, 'src')}")
    deadline = perf_counter() + TIME_LIMIT_S
    setup = []   # (seconds, speed scale) of each fresh worker
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probe = Worker(args, deadline, setup_only=True)
            setup.append((probe.setup_s, probe.result()["setup_scale"]))
    worker = Worker(args, deadline, setup_only=False)
    res = worker.result()
    if "passes" not in res:
        raise BenchError("worker printed no result")
    setup.append((worker.setup_s, res["setup_scale"]))
    for err in res["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    if args.trace:
        values = res["layers"]
    else:
        values = {"wall_s": res["wall_s"],
                  "setup_s": statistics.median(t * scale for t, scale in setup),
                  "peak_rss_mb": res["peak_rss_mb"]}
    units = _declared_units("per_layer" if args.trace else "end_to_end")
    if set(values) != set(units):
        raise BenchError(f"measured {sorted(values)}, BENCHMARK.json declares {sorted(units)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": res["environment"],
        "samples": {"passes_s": res["passes"], "pass_scales": res.get("scales"),
                    "traced_passes_s": res.get("traced_passes"),
                    "setup_s": [t for t, _ in setup], "setup_scales": [s for _, s in setup]},
    }))
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def _declared_units(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that running workers are killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result = run(args)
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        # workers remove their own files; this also covers a killed one
        shutil.rmtree(os.path.join(ROOT, ".bench_tmp"), ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
