#!/usr/bin/env python3
"""Print a digest of interior-point solves over a fixed grid of problems.

Solves the CVaR SDP at N = 6 with the default ``SolverSettings`` and
prints one line per solve: data, seed, method, alpha, radius, status,
iterations, the objective's ``repr`` and the sha256 of the returned x.
Then an ``iterations SUM`` line gives the summed iteration count,
followed by one ``iterations radius R SUM`` line per radius (R as in the
per-solve lines), so a change in the sums shows where it happened.  The
last line is the sha256 over the per-solve lines (the sums are not
hashed).  Two checkouts whose solver iterates agree bit for bit print the
same digest, so a solver change that must not move the iterates can show
that it did not.

The grid: the first 6 days of ``synth_spiky(SpikyConfig(days=7), seed)``
for seeds 1, 6 and 1009, normalized as in ``split_and_normalize``, both as
generated and with coordinates 3 and 30 set to the constant 0.5;
``nominal_cvar`` (radius 0) at alpha in {0.1, 1}; ``dr_cvar`` at alpha in
{0.9/N, 1/N, 0.1, 1} x r in {1e-8, ..., 1e4}.  That is 180 solves, a few
minutes on one core.  BLAS is pinned to one thread (``record``, imported
before NumPy), as the digest depends on it.

Usage: PYTHONPATH=src python benchmarks/solve_digest.py
"""
import hashlib

import record  # noqa: F401  sets the BLAS threads; before NumPy

import numpy as np

from drcvar.conic import solve_sdp
from drcvar.data import SpikyConfig, split_and_normalize, synth_spiky
from drcvar.model import EmpiricalDistribution, RiskSpec
from drcvar.sdp import build_drcvar_sdp

SEEDS = (1, 6, 1009)
DAYS = 6
CONSTANT_COORDS = (3, 30)
RADII = (1e-8, 1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e4)


def datasets(seed):
    ds = synth_spiky(SpikyConfig(days=DAYS + 1), seed)
    train, _, _ = split_and_normalize(ds, ds.dates[DAYS])
    atoms = np.array(train.atoms)
    atoms[:, CONSTANT_COORDS] = 0.5
    return (("plain", train),
            ("const", EmpiricalDistribution(atoms=atoms, n=train.n, m=train.m)))


def problems(dist):
    big_n = dist.size
    grid = [(alpha, 0.0) for alpha in (0.1, 1.0)]
    grid += [(alpha, radius) for alpha in (0.9 / big_n, 1.0 / big_n, 0.1, 1.0)
             for radius in RADII]
    for alpha, radius in grid:
        problem = build_drcvar_sdp(dist, RiskSpec(alpha=alpha, radius=radius))
        yield problem.meta["kind"], alpha, radius, problem


def main():
    total = hashlib.sha256()
    by_radius = {}
    for seed in SEEDS:
        for label, dist in datasets(seed):
            for method, alpha, radius, problem in problems(dist):
                sol = solve_sdp(problem)
                x_sha = hashlib.sha256(
                    np.ascontiguousarray(sol.x).tobytes()).hexdigest()
                line = (f"{label} {seed} {method} {alpha!r} {radius!r} "
                        f"{sol.status} {sol.iterations} "
                        f"{sol.objective_value!r} {x_sha}")
                print(line, flush=True)
                total.update(line.encode() + b"\n")
                by_radius[radius] = by_radius.get(radius, 0) + sol.iterations
    print(f"iterations {sum(by_radius.values())}")
    for radius, sub in sorted(by_radius.items()):
        print(f"iterations radius {radius!r} {sub}")
    print(f"digest {total.hexdigest()}")


if __name__ == "__main__":
    main()
