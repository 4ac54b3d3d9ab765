"""Worker process of the critnorm benchmark.

run.py starts it with BLAS pinned to one thread and ``src/`` on the path.
It imports critnorm, runs the workload's set-up commands and prints
``ready``.  Unless ``--setup-only`` is given it then runs one warm-up pass
and measured passes until ``--seconds`` have gone by, with a speed probe
after each, checks every output, and prints one JSON line with the pass
times, the check results, its peak memory and the environment.  With ``--trace 1`` it alternates plain and
traced passes and adds per-layer numbers and a scaling grid.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from time import perf_counter

import spans
import workloads

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
THREADS_WHY = ("BLAS is pinned to one thread: with 2 OpenBLAS threads on a 2-core "
               "Xeon the first svd in a fresh process stalled ~1.0 s in 1 of 3 "
               "trials, against 0.018 s otherwise")
TIMERS = ("per-process time.perf_counter and getrusage(RUSAGE_SELF).ru_maxrss only; "
          "no system-wide profiler, no cache dropping")

# Scaling grid of the traced run: gauss forms of arity m and dimension n.
GRID = ((3, 16), (3, 32), (3, 64), (3, 96), (4, 8), (4, 16), (4, 24), (5, 8), (5, 10))
GRID_SEED = 7
GRID_RESTARTS = 4
GRID_MIXED_MIN_S = 0.05   # time each mixed norm at least this long in total

PROBE_REF_S = 0.016   # probe time that counts as the reference host speed
PROBE_SHARE = 0.05    # probe after each pass for this share of the pass time


class SpeedProbe:
    """Times a fixed mix of interpreter, LAPACK and cache-bound work.

    The probe touches no critnorm code, so a change to the program cannot
    move it; what moves it is the speed of the host.  On the shared 2-core
    Xeon VMs this benchmark was built on, that speed changes by up to 1.5x
    in episodes that last from seconds to minutes, longer than a run.
    Scaling each pass by the probe times taken just before and after it
    cut the spread of wall_s between runs about threefold on ``readme``
    and ``exact-denominators``; on ``dense-ascent`` it neither helped nor
    hurt.
    """

    def __init__(self):
        import numpy

        rng = numpy.random.default_rng(0)
        self.np = numpy
        self.matrix = rng.standard_normal((64, 64))
        self.tensor = rng.standard_normal((24, 24, 24, 24))
        self.vector = rng.standard_normal(24)
        self.small = rng.standard_normal(16)
        self.unit()   # first calls pay one-off costs

    def unit(self) -> float:
        """One probe: about equal shares of interpreter loop, small-array
        NumPy calls, small LAPACK calls and a cache-sized contraction."""
        np, v, x = self.np, self.vector, self.small
        start = perf_counter()
        total = 0
        for i in range(40000):
            total += i * i
        for _ in range(400):
            a = np.abs(x)
            np.power(a / a.max(), 1.5).sum()
            np.where(x < 0, -1.0, 1.0)
        for _ in range(5):
            np.linalg.svd(self.matrix)
        for _ in range(3):
            np.einsum("abcd,b,c,d->a", self.tensor, v, v, v)
        return perf_counter() - start

    def scale(self, budget: float) -> float:
        """PROBE_REF_S over the median probe time, probing for about ``budget`` s."""
        times = [self.unit()]
        while sum(times) < budget:
            times.append(self.unit())
        return PROBE_REF_S / statistics.median(times)


class Runner:
    """Runs invocations through critnorm.cli.main and tallies failures."""

    def __init__(self, critnorm, tmp):
        self.critnorm = critnorm
        self.tmp = tmp
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self, inv) -> float:
        """Run one invocation, check it, and return its wall time."""
        buf = io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                code = self.critnorm.cli.main(inv.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            buf.write(traceback.format_exc())
        seconds = perf_counter() - start
        errors = inv.check(code, buf.getvalue(), self._take_report(inv))
        if code is None:
            errors.append(f"{inv.label}: raised\n{buf.getvalue()}")
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors += errors
        return seconds

    def run_pass(self, invocations, tracer=None) -> float:
        if tracer is not None:
            tracer.install(self.critnorm)
        try:
            return sum(self.run(inv) for inv in invocations)
        finally:
            if tracer is not None:
                tracer.uninstall()

    def _take_report(self, inv):
        """Bytes of the invocation's report, removed so each pass writes anew."""
        if inv.report is None:
            return None
        path = os.path.join(self.tmp, inv.report)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return None
        os.remove(path)
        return data


def measure(runner, invocations, seconds: float, probe) -> dict:
    """Pass times, raw and scaled to the reference host speed.

    Each pass is scaled by the mean of the probe scales taken just before
    and just after it; ``wall_s`` is the median scaled pass.
    """
    warm_up = runner.run_pass(invocations)
    passes, scales = [], [probe.scale(PROBE_SHARE * warm_up)]
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        passes.append(runner.run_pass(invocations))
        scales.append(probe.scale(PROBE_SHARE * passes[-1]))
    scaled = [p * (a + b) / 2 for p, a, b in zip(passes, scales, scales[1:])]
    return {"passes": passes, "scales": scales, "wall_s": statistics.median(scaled)}


def measure_traced(runner, invocations, seconds: float, workload: str) -> dict:
    runner.run_pass(invocations)   # warm-up
    plain, traced, per_pass = [], [], []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        plain.append(runner.run_pass(invocations))
        tracer = spans.Tracer()
        traced.append(runner.run_pass(invocations, tracer))
        metrics, calls = spans.layer_metrics(tracer.spans)
        silent = [layer for layer in workloads.EXPECTED_LAYERS[workload] if not calls[layer]]
        if silent:
            raise RuntimeError(f"traced pass of {workload} recorded no calls into "
                               f"{', '.join(silent)}; were the functions renamed or rebound?")
        per_pass.append(metrics)
    layers = spans.median_metrics(per_pass)
    layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    layers.update(scaling_grid(runner.critnorm))
    return {"passes": plain, "traced_passes": traced, "layers": layers}


def scaling_grid(critnorm) -> dict:
    """Time per ascent sweep and per mixed norm on gauss forms of growing size."""
    out = {}
    for m, n in GRID:
        T = critnorm.make_gaussian_random((n,) * m, seed=GRID_SEED)
        start = perf_counter()
        est = critnorm.ascent_norm(T, restarts=GRID_RESTARTS, seed=GRID_SEED)
        out[f"opnorm.ascent_norm.ms_per_sweep.m{m}n{n}"] = \
            1e3 * (perf_counter() - start) / est.iterations
        orders = critnorm.critical_exponents(m)
        times = []
        while len(times) < 3 or sum(times) < GRID_MIXED_MIN_S:
            start = perf_counter()
            critnorm.mixed_norm(T, orders)
            times.append(perf_counter() - start)
        out[f"tensor.mixed_norm.ms.m{m}n{n}"] = 1e3 * statistics.median(times)
    return out


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "blas_threads_why": THREADS_WHY,
        "timers": TIMERS,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import critnorm
    import critnorm.cli

    src = os.path.join(os.path.abspath(args.root), "src")
    if not os.path.abspath(critnorm.__file__).startswith(src + os.sep):
        raise RuntimeError(f"critnorm was imported from {critnorm.__file__}, not from {src}")
    scratch = os.path.join(args.root, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch)
    try:
        runner = Runner(critnorm, tmp)
        for inv in workloads.setup_invocations(args.workload, tmp):
            runner.run(inv)
        if runner.failed:
            raise RuntimeError("set-up commands failed:\n" + "\n".join(runner.errors))
        print("ready", flush=True)
        probe = SpeedProbe()
        result = {"setup_scale": probe.scale(0.04)}
        if not args.setup_only:
            runner = Runner(critnorm, tmp)
            invocations = workloads.load(args.workload, args.root, args.seed, tmp)
            if args.trace:
                result.update(measure_traced(runner, invocations, args.seconds, args.workload))
            else:
                result.update(measure(runner, invocations, args.seconds, probe))
        result.update(
            attempted=runner.attempted,
            failed=runner.failed,
            errors=runner.errors[:20],
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            environment=environment(),
        )
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
