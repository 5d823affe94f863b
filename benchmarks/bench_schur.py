#!/usr/bin/env python3
"""Benchmark Schur-complement assembly and the affine map of the robust
CVaR SDP.

Times the solver's normal matrix H (``conic._normal_matrix``, one
``schur_accumulate`` call per block stack of ``problem.stacks``, into one
reused buffer as in the solver) for one interior-point iteration at the
day-ahead shape (n = m = 24) with N = 6, 30 and 90 atoms, so 73 x 73 atom
blocks, and one call each of the atom stack's linear map
(``LmiStack.linear``) and its adjoint (``LmiStack.adjoint``).  Every block
gets a random well-conditioned PSD scaling matrix, which the adjoint also
reads.  Reports the best time of the repeats and max |H - H'| / max |H|.
BLAS is pinned to one thread by importing ``record`` before NumPy.

Usage: PYTHONPATH=src python benchmarks/bench_schur.py [--repeats N]
"""
import argparse
import time

import record  # noqa: F401  sets the BLAS threads; before NumPy

import numpy as np

from drcvar import conic
from drcvar.model import EmpiricalDistribution, RiskSpec
from drcvar.sdp import build_drcvar_sdp


def best_time(call, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return min(times)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args()

    n = m = 24
    rng = np.random.default_rng(0)
    header = (f"{'N':>4s} {'vars':>5s} {'schur':>9s} {'linear':>9s} "
              f"{'adjoint':>9s} {'asymmetry':>10s}")
    print(header)
    print("-" * len(header))
    for big_n in (6, 30, 90):
        dist = EmpiricalDistribution(
            atoms=rng.standard_normal((big_n, n + m)), n=n, m=m)
        problem = build_drcvar_sdp(dist, RiskSpec(alpha=0.1, radius=0.01))
        stacks = problem.stacks
        u_w = []
        for st in stacks:
            base = rng.standard_normal((st.count, st.size, st.size))
            u_w.append(base @ base.transpose(0, 2, 1)
                       + st.size * np.eye(st.size))
        h = np.empty((problem.num_vars, problem.num_vars))
        t_schur = best_time(lambda: conic._normal_matrix(stacks, u_w, h),
                            args.repeats)
        asym = float(np.max(np.abs(h - h.T)) / np.max(np.abs(h)))
        atom = stacks[-1]
        x = rng.standard_normal(problem.num_vars)
        t_linear = best_time(lambda: atom.linear(x), args.repeats)
        t_adjoint = best_time(
            lambda: atom.adjoint(u_w[-1], problem.num_vars), args.repeats)
        print(f"{big_n:4d} {problem.num_vars:5d} {t_schur * 1e3:7.1f}ms "
              f"{t_linear * 1e3:7.3f}ms {t_adjoint * 1e3:7.3f}ms "
              f"{asym:10.1e}")


if __name__ == "__main__":
    main()
