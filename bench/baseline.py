"""Run the benchmark over several seeds and summarize every metric.

    python3 bench/baseline.py --seeds 10 --out bench/BENCH_0.json

For each workload, runs ``run.py`` with tracing off once per seed
(0, 1, ...) and once more with tracing on, for BENCHMARK.json's
``run_seconds``.
For each end-to-end metric it records the values, their median and
quartiles, and the spread: the distance between the quartiles as a share of
the median, with the metric's bound beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """(environment line, result line) of one run of run.py."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarize(values: list, bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "bound": bound}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    out = {"run_seconds": seconds, "seeds": list(range(args.seeds)), "workloads": {}}
    for name in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in out["seeds"]:
            info, result = run_once(name, seed, seconds, 0)
            out.setdefault("environment", info["environment"])
            runs.append({"seed": seed, "result": result, "samples": info["samples"]})
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        entry = {"runs": runs, "end_to_end": {
            m["name"]: summarize([r["result"]["metrics"][m["name"]]["value"] for r in runs],
                                 m["bound"])
            for m in bench["end_to_end"]}}
        _, traced = run_once(name, out["seeds"][0], seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        out["workloads"][name] = entry
        for metric, s in entry["end_to_end"].items():
            print(f"{name} {metric}: median {s['median']:.4g}, spread {s['spread']:.4f} "
                  f"(bound {s['bound']})", flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
