"""The timing loop of benchmarks/bench_dual.py, on a two-certificate set."""

import importlib.util
from pathlib import Path

import numpy as np

from drcvar import EmpiricalDistribution, QuadraticForm, RiskSpec
from drcvar.dual import worst_case_cvar
from drcvar.risk import cvar_discrete

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def load_bench_dual(monkeypatch):
    # importing the script imports the recorder, which sets the BLAS thread
    # variables left unset; setting them first keeps that from leaking
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "3")
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    spec = importlib.util.spec_from_file_location(
        "bench_dual", BENCHMARKS / "bench_dual.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_timed_runs_cold_and_warm(monkeypatch):
    bench = load_bench_dual(monkeypatch)
    rng = np.random.default_rng(5)
    base = rng.standard_normal((3, 3))
    qf = QuadraticForm(Q=base @ base.T, q=rng.standard_normal(3))
    dist = EmpiricalDistribution(atoms=rng.standard_normal((6, 3)), n=1, m=2)
    cases = [(qf, dist, RiskSpec(alpha=0.5, radius=r)) for r in (0.1, 1.0)]
    record = bench.timed_runs(cases, 2)
    assert record["certificates"] == 2
    for key in ("ms_per_cert", "cold_ms_per_cert"):
        assert len(record[key]) == 2 and all(t > 0.0 for t in record[key])
    assert record["evaluations_per_cert"] >= 2.0
    assert record["at_boundary"] == sum(
        worst_case_cvar(*case).at_boundary for case in cases)
    assert bench.dual.cvar_discrete is cvar_discrete
