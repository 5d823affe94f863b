#!/usr/bin/env python3
"""Reference runs of the benchmark: seed checks, count determinism, overhead.

Usage (from the repository root):

    python3 perfbench/report.py

It writes perfbench/baseline.json.  Every run lasts BENCHMARK.json's
``run_seconds``.  For every workload it runs, one after another:

- the development seed untraced once and traced twice;
- the held-out seed untraced once and traced once.

It reports each run's checks (attempted, failed, failure notes) and layer
counts as measured, whether the named counts repeat exactly across the two
traced runs of the development seed, and the tracing overhead two ways:
traced wall per operation minus untraced mean latency per operation (two
runs apart in time, so machine noise is in it), and the spans per operation
times the measured cost of one wrapper (``trace.overhead_est_s``).
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import ROOT, WORKLOADS  # noqa: E402

DEV_SEED = 1
HELDOUT_SEED = 1009  # not used while the benchmark was tuned
DETERMINISM_COUNTS = ("conic.iterations", "kernels.schur_pairs",
                      "dual.objective_evals", "conic.gram_rebuilds")


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["info"] = json.loads(lines[-2])
    result["env"] = json.loads(lines[0])["env"]
    return result


def values(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items()}


def main() -> int:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    report = {"seconds": seconds, "dev_seed": DEV_SEED,
              "heldout_seed": HELDOUT_SEED, "workloads": {}}
    for w in WORKLOADS:
        runs = {
            "dev_untraced": bench(w, DEV_SEED, seconds, 0),
            "dev_traced_1": bench(w, DEV_SEED, seconds, 1),
            "dev_traced_2": bench(w, DEV_SEED, seconds, 1),
            "heldout_untraced": bench(w, HELDOUT_SEED, seconds, 0),
            "heldout_traced": bench(w, HELDOUT_SEED, seconds, 1),
        }
        t1, t2 = values(runs["dev_traced_1"]), values(runs["dev_traced_2"])
        determinism = {c: {"run_1": t1[c], "run_2": t2[c],
                           "repeats_exactly": t1[c] == t2[c]}
                       for c in DETERMINISM_COUNTS}
        overhead = {}
        for seed_key, untraced, traced in (
                ("dev", "dev_untraced", "dev_traced_1"),
                ("heldout", "heldout_untraced", "heldout_traced")):
            mean_s = runs[untraced]["info"]["latency_mean_ms"] / 1000.0
            wall_s = values(runs[traced])["trace.wall_s"]
            est_s = values(runs[traced])["trace.overhead_est_s"]
            overhead[seed_key] = {"untraced_mean_s": mean_s,
                                  "traced_wall_s": wall_s,
                                  "overhead_s": wall_s - mean_s,
                                  "overhead_frac": (wall_s - mean_s) / mean_s,
                                  "estimated_s": est_s,
                                  "estimated_frac": est_s / mean_s}
        report["workloads"][w] = {"runs": runs, "determinism": determinism,
                                  "tracing_overhead": overhead}
        summary = {"determinism": {c: d["repeats_exactly"]
                                   for c, d in determinism.items()},
                   "overhead_frac": {k: round(v["overhead_frac"], 4)
                                     for k, v in overhead.items()},
                   "estimated_frac": {k: round(v["estimated_frac"], 4)
                                      for k, v in overhead.items()},
                   "failed": {k: r["failed"] for k, r in runs.items()}}
        print(w, json.dumps(summary), flush=True)

    (HERE / "baseline.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
