#!/usr/bin/env python3
"""Time the reference fits and sweep at the day-ahead shape; append to
BENCH_fit.json.

Workloads, all on ``synth_spiky(SpikyConfig(days=N+10), seed=1)`` split at
day N (n = m = 24), alpha = 0.1:

- ``fit_n12``, ``fit_n30`` and ``fit_n90``: ``fit_dr_cvar`` at r = 0.01,
  N = 12, 30 and 90; at N = 12 < m the observations span 12 dimensions,
  and the fit solves the program reduced to that span;
- ``sweep_n30``: ``radius_sweep`` at N = 30 over the 5 radii 1e-3 ... 10,
  on one thread, so ``dr_cvar`` and ``dr_mse`` at each radius: 10 fits;
- ``small_r_n30``: the same sweep over the small radii 1e-8, 1e-6 and
  1e-4, where the transport multiplier gamma grows like 1/r: 6 fits.  A
  sweep records a failed fit as a row, so a ``max_iter`` solve shows in
  the record instead of stopping the run.

Each workload runs ``RUNS`` = 3 times back to back.  Its record
holds the median and every run's seconds, and the status and iteration
count of every interior-point solve in the run, in call order.  Runs that
disagree on those are an error, since the solver is deterministic.  The
entry appended to the file also records the label, the date, NumPy, SciPy,
the BLAS library, the BLAS thread variables and the core count.  BLAS
thread variables left unset are set to 1 before NumPy is imported.

To compare two checkouts, run the script with ``PYTHONPATH`` at each
checkout's ``src`` in turn; the machine's speed drifts, so alternate them.

Usage: PYTHONPATH=src python benchmarks/bench_fit.py --label TEXT
           [--out BENCH_fit.json]
"""
import argparse
import statistics
import time

from record import append_entry  # sets the BLAS threads; before NumPy

import numpy as np

import drcvar
from drcvar import estimate
from drcvar.data import (SpikyConfig, radius_sweep, split_and_normalize,
                         synth_spiky)

ALPHA = 0.1
FIT_RADIUS = 0.01
RUNS = 3
SWEEP_RADII = tuple(np.logspace(-3, 1, 5))
SMALL_RADII = (1e-8, 1e-6, 1e-4)


def reference_data(big_n):
    ds = synth_spiky(SpikyConfig(days=big_n + 10), seed=1)
    return split_and_normalize(ds, ds.dates[big_n])


def workloads():
    train12, _, _ = reference_data(12)
    train30, test30, scaler30 = reference_data(30)
    train90, _, _ = reference_data(90)
    spec = drcvar.RiskSpec(alpha=ALPHA, radius=FIT_RADIUS)
    return {
        "fit_n12": lambda: estimate.fit_dr_cvar(train12, spec),
        "fit_n30": lambda: estimate.fit_dr_cvar(train30, spec),
        "fit_n90": lambda: estimate.fit_dr_cvar(train90, spec),
        "sweep_n30": lambda: radius_sweep(train30, test30, ALPHA, SWEEP_RADII,
                                          scaler=scaler30, threads=1),
        "small_r_n30": lambda: radius_sweep(train30, test30, ALPHA,
                                            SMALL_RADII, scaler=scaler30,
                                            threads=1),
    }


def timed_runs(work, runs):
    """Seconds per run and the (status, iterations) of every solve."""
    solve = estimate.solve_sdp
    solves = []

    def recorded(problem, settings=None):
        sol = solve(problem, settings)
        solves.append((sol.status, sol.iterations))
        return sol

    estimate.solve_sdp = recorded
    seconds, first = [], None
    try:
        for _ in range(runs):
            solves.clear()
            t0 = time.perf_counter()
            work()
            seconds.append(time.perf_counter() - t0)
            if first is None:
                first = list(solves)
            elif solves != first:
                raise RuntimeError(f"solves differ between runs: {first} "
                                   f"against {solves}")
    finally:
        estimate.solve_sdp = solve
    return {
        "median_s": round(statistics.median(seconds), 3),
        "seconds": [round(s, 3) for s in seconds],
        "statuses": [status for status, _ in first],
        "iterations": [its for _, its in first],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", required=True,
                        help="what was measured, e.g. the commit")
    parser.add_argument("--out", default="BENCH_fit.json")
    args = parser.parse_args()

    records = {}
    for name, work in workloads().items():
        records[name] = record = timed_runs(work, RUNS)
        print(f"{name}: {record['median_s']} s (runs {record['seconds']}), "
              f"iterations {sum(record['iterations'])}", flush=True)
    append_entry(args.out, args.label, RUNS, records)


if __name__ == "__main__":
    main()
