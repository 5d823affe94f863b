#!/usr/bin/env python3
"""Benchmark Schur-complement assembly: structured slot kernel vs pairwise.

Times one interior-point iteration's normal matrix H for the robust CVaR
SDP at the day-ahead shape (n = m = 24) with N = 6, 30 and 90 atoms, so
73 x 73 atom blocks of about 2400 expanded entries each.  Every block gets
a random well-conditioned PSD scaling matrix.  "structured" is the
solver's assembly (two GEMMs per slot group, the pairwise kernel for the
few entries outside the slot); "pairwise" runs the pairwise kernel over
every expanded entry.  Reports the best time of the repeats and the
maximum relative difference of H.

Usage: PYTHONPATH=src python benchmarks/bench_schur.py [--repeats N]
"""
import argparse
import time

import numpy as np

from drcvar import conic
from drcvar.kernels import schur_accumulate
from drcvar.model import EmpiricalDistribution, RiskSpec
from drcvar.sdp import build_drcvar_sdp


def pairwise(problem, groups, u_w):
    h = np.zeros((problem.num_vars, problem.num_vars))
    for gi, g in enumerate(groups):
        for local, j in enumerate(g.idxs):
            schur_accumulate(h, u_w[gi][local], *problem.blocks[j].expanded())
    h += np.tril(h, -1).T
    return h


def structured(problem, groups, u_w):
    return conic._normal_matrix(groups, u_w, problem.num_vars)


def best_of(fn, repeats, *args):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        h = fn(*args)
        times.append(time.perf_counter() - t0)
    return min(times), h


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    n = m = 24
    rng = np.random.default_rng(0)
    header = (f"{'N':>4s} {'vars':>5s} {'structured':>11s} {'pairwise':>11s} "
              f"{'speedup':>8s} {'max rel diff':>13s}")
    print(header)
    print("-" * len(header))
    for big_n in (6, 30, 90):
        dist = EmpiricalDistribution(
            atoms=rng.standard_normal((big_n, n + m)), n=n, m=m)
        problem = build_drcvar_sdp(dist, RiskSpec(alpha=0.1, radius=0.01))
        groups = conic._build_groups(problem)
        u_w = []
        for g in groups:
            base = rng.standard_normal((g.count, g.size, g.size))
            u_w.append(base @ base.transpose(0, 2, 1)
                       + g.size * np.eye(g.size))
        t_st, h_st = best_of(structured, args.repeats, problem, groups, u_w)
        t_pw, h_pw = best_of(pairwise, args.repeats, problem, groups, u_w)
        rel = float(np.max(np.abs(h_st - h_pw)) / np.max(np.abs(h_pw)))
        print(f"{big_n:4d} {problem.num_vars:5d} {t_st * 1e3:9.1f}ms "
              f"{t_pw * 1e3:9.1f}ms {t_pw / t_st:7.1f}x {rel:13.1e}")


if __name__ == "__main__":
    main()
