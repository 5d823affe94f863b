#!/usr/bin/env python3
"""Time the dual certificates of the audit set; append to BENCH_dual.json.

The audit set is the one perfbench's ``audit_n90`` workload runs:
``synth_spiky(SpikyConfig(days=120), seed=1)`` split at day 90 (n = m = 24),
least-squares fits (``fit_nominal_mse``) on 9 windows of 30 days, and one
``worst_case_cvar`` certificate of each fit on the 90 training days at every
alpha in {0.01, 0.1, 1} and 13 radii from 1e-4 to 1e2: 351 certificates.

All 351 certificates run ``RUNS`` = 3 times, each run in two passes.  The
cold pass gives every certificate a fresh copy of its form, built before
the clock starts, so no certificate finds its loss terms stored on the form:
that is what the cross-check at the end of a fit sees.  The warm pass
certifies the 9 forms themselves, as perfbench does, so after a form's first
certificate its terms come from the form's memo.  The record holds the
median and every run's milliseconds per certificate of each pass (warm
unprefixed, cold under ``cold_``), and the number of objective evaluations
per certificate: calls of ``cvar_discrete`` made through ``drcvar.dual``,
one for each trial gamma of the search and one for the certificate's final
value.  Runs or passes that disagree on the certificates are an error,
since the search is deterministic.  The entry appended to the
file also records the label, the date, NumPy, SciPy, the BLAS library, the
BLAS thread variables and the core count.  BLAS thread variables left unset
are set to 1 before NumPy is imported.

To compare two checkouts, run the script with ``PYTHONPATH`` at each
checkout's ``src`` in turn; the machine's speed drifts, so alternate them.

Usage: PYTHONPATH=src python benchmarks/bench_dual.py --label TEXT
           [--out BENCH_dual.json]
"""
import argparse
import statistics
import time

from record import append_entry  # sets the BLAS threads; before NumPy

import numpy as np

import drcvar
from drcvar import dual, estimate
from drcvar.data import SpikyConfig, split_and_normalize, synth_spiky

DAYS, TRAIN_DAYS, WINDOW, WINDOWS = 120, 90, 30, 9
ALPHAS = (0.01, 0.1, 1.0)
RADII = tuple(np.logspace(-4.0, 2.0, 13))
RUNS = 3


def audit_set():
    """The 351 (form, data, spec) triples, in perfbench's order."""
    ds = synth_spiky(SpikyConfig(days=DAYS), seed=1)
    train, _, _ = split_and_normalize(ds, ds.dates[TRAIN_DAYS])
    starts = np.linspace(0, TRAIN_DAYS - WINDOW, WINDOWS).astype(int)
    cases = []
    for s in starts:
        window = drcvar.EmpiricalDistribution(
            atoms=train.atoms[s:s + WINDOW], n=train.n, m=train.m)
        qf = drcvar.affine_to_quadratic(
            estimate.fit_nominal_mse(window).estimator)
        cases += [(qf, train, drcvar.RiskSpec(alpha=alpha, radius=float(r)))
                  for alpha in ALPHAS for r in RADII]
    return cases


def certify(cases):
    """The certificates of the cases and the milliseconds per certificate."""
    t0 = time.perf_counter()
    certs = [dual.worst_case_cvar(*case) for case in cases]
    return certs, (time.perf_counter() - t0) * 1e3 / len(cases)


def timed_runs(cases, runs):
    """Milliseconds per certificate per run, cold and warm, and evaluations
    per certificate."""
    cvar = dual.cvar_discrete
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return cvar(*args)

    ms, cold_ms, first = [], [], None
    for _ in range(runs):
        fresh = [(drcvar.QuadraticForm(Q=qf.Q, q=qf.q, c=qf.c), dist, spec)
                 for qf, dist, spec in cases]
        cold, t = certify(fresh)
        cold_ms.append(t)
        certs, t = certify(cases)
        ms.append(t)
        if first is None:
            first = certs
        if certs != first or cold != first:
            raise RuntimeError("certificates differ between runs or passes")
    dual.cvar_discrete = counted
    try:
        for case in cases:
            dual.worst_case_cvar(*case)
    finally:
        dual.cvar_discrete = cvar
    return {
        "certificates": len(cases),
        "median_ms_per_cert": round(statistics.median(ms), 4),
        "ms_per_cert": [round(t, 4) for t in ms],
        "cold_median_ms_per_cert": round(statistics.median(cold_ms), 4),
        "cold_ms_per_cert": [round(t, 4) for t in cold_ms],
        "evaluations_per_cert": round(calls[0] / len(cases), 3),
        "at_boundary": sum(c.at_boundary for c in first),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", required=True,
                        help="what was measured, e.g. the commit")
    parser.add_argument("--out", default="BENCH_dual.json")
    args = parser.parse_args()

    record = timed_runs(audit_set(), RUNS)
    print(f"audit_n90: {record['median_ms_per_cert']} ms per certificate "
          f"warm (runs {record['ms_per_cert']}), "
          f"{record['cold_median_ms_per_cert']} cold "
          f"(runs {record['cold_ms_per_cert']}), "
          f"{record['evaluations_per_cert']} evaluations per certificate",
          flush=True)
    append_entry(args.out, args.label, RUNS, {"audit_n90": record})


if __name__ == "__main__":
    main()
