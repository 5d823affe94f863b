#!/usr/bin/env python3
"""Time fresh processes that do not solve; append to BENCH_startup.json.

Two commands, each run ``RUNS`` = 7 times in new interpreters, taking turns:

``import``    ``python -c "import drcvar"``
``gen_data``  ``python -m drcvar.cli gen-data --days 10 --seed 1 --out F``

Neither makes a conic solve, so neither needs SciPy; their wall time is
mostly interpreter and import start-up, the cost paid by every set-up
process of a pipeline (perfbench's ``--prepare`` and ``gen-data``
processes among them).  The record holds each command's median and every
run's seconds, wall clock from spawn to exit.  The entry appended to the
file also records the label, the date, NumPy, SciPy, the BLAS library, the
BLAS thread variables and the core count.  BLAS thread variables left unset
are set to 1, for this process and the ones it starts.

To compare two checkouts, run the script with ``PYTHONPATH`` at each
checkout's ``src`` in turn; the machine's speed drifts, so alternate them.

Usage: PYTHONPATH=src python benchmarks/bench_startup.py --label TEXT
           [--out BENCH_startup.json]
"""
import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time

from record import append_entry  # sets the BLAS threads of the commands

RUNS = 7


def commands(out_path):
    """The timed commands by name, as argument lists."""
    return {
        "import": [sys.executable, "-c", "import drcvar"],
        "gen_data": [sys.executable, "-m", "drcvar.cli", "gen-data",
                     "--days", "10", "--seed", "1", "--out", out_path],
    }


def timed_runs(runs):
    """Seconds per run of each command; the commands take turns."""
    with tempfile.TemporaryDirectory() as tmp:
        cmds = commands(os.path.join(tmp, "data.csv"))
        seconds = {name: [] for name in cmds}
        for _ in range(runs):
            for name, argv in cmds.items():
                t0 = time.perf_counter()
                subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
                seconds[name].append(time.perf_counter() - t0)
    return {name: {"median_s": round(statistics.median(s), 4),
                   "s": [round(t, 4) for t in s]}
            for name, s in seconds.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", required=True,
                        help="what was measured, e.g. the commit")
    parser.add_argument("--out", default="BENCH_startup.json")
    args = parser.parse_args()

    record = timed_runs(RUNS)
    for name, rec in record.items():
        print(f"{name}: {rec['median_s']} s (runs {rec['s']})", flush=True)
    append_entry(args.out, args.label, RUNS, record)


if __name__ == "__main__":
    main()
