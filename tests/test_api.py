"""The package's import footprint, and the API the benchmark runner relies on.

The runner under perfbench/ wraps and calls ``drcvar`` functions by module
attribute; these tests load it as a module and run its tracer installation,
its reference checks and its input preparation against this checkout, so a
renamed or moved function fails here rather than in a benchmark run.
"""
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import drcvar
import drcvar.cli  # noqa: F401  (the runner traces drcvar.cli)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_import_does_not_load_scipy_optimize():
    src = str(Path(drcvar.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, drcvar; print('scipy.optimize' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "False"


@pytest.fixture
def bench(monkeypatch):
    """perfbench/run.py as a module, with perfbench/ importable for tracer."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_traces_checks_and_prepares(bench):
    from tracer import NAME

    ref = bench.reference_functions(drcvar)
    tracer = bench.install_tracer(drcvar)
    try:
        for workload in ("fit_n6", "audit_n90"):
            inputs = bench.prepare(drcvar, workload, 1)
            assert len(inputs["digest"]) == 64
    finally:
        tracer.close()
    assert drcvar.dual.worst_case_cvar is ref["worst_case_cvar"]
    recorded = {sp[NAME] for sp in tracer.spans}
    assert {"data.synth_spiky", "estimate.fit_nominal_mse"} <= recorded
