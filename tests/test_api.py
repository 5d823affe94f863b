"""The package's import footprint, and the API the benchmark runner relies on.

No ``drcvar`` command loads SciPy, not even one that makes a conic solve,
so the footprint tests run in fresh interpreters.

The runner under perfbench/ wraps and calls ``drcvar`` functions by module
attribute; these tests load it as a module and run its tracer installation,
its reference checks and its input preparation against this checkout, so a
renamed or moved function fails here rather than in a benchmark run.
"""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import drcvar
import drcvar.cli  # noqa: F401  (the runner traces drcvar.cli)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# run in a fresh interpreter: each step's SciPy modules, as one JSON object
FOOTPRINT = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith("scipy."))

import drcvar
import drcvar.cli
steps = {"import": scipy_modules()}
data, fit, out, sweep = sys.argv[1:5]
for name, argv in [
        ("gen-data", ["gen-data", "--seed", "3", "--days", "8",
                      "--out", data]),
        ("fit nominal_mse", ["fit", "--data", data, "--method",
                             "nominal_mse", "--out", fit]),
        ("eval", ["eval", "--data", data, "--estimator", fit,
                  "--alpha", "0.2"]),
        ("fit dr_cvar", ["fit", "--data", data, "--alpha", "0.2",
                         "--radius", "0.1", "--out", out]),
        ("sweep", ["sweep", "--data", data, "--split-date", "2013-05-07",
                   "--alpha", "0.2", "--radii", "0.01,1", "--threads", "2",
                   "--out", sweep])]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = drcvar.cli.dispatch(argv)
    assert code == 0, (name, code)
    steps[name] = scipy_modules()
print(json.dumps(steps))
"""

# radius_sweep on 2 threads as the process's first solve, so that both
# workers make the first conic solves of the process at once; then on 1
# thread, which must give the same rows
CONCURRENT_FIRST_SOLVE = """
import json, sys
from drcvar.data import (SpikyConfig, radius_sweep, split_and_normalize,
                         synth_spiky)

assert "scipy.linalg" not in sys.modules
ds = synth_spiky(SpikyConfig(days=9), seed=1)
train, test, scaler = split_and_normalize(ds, ds.dates[6])
for threads in (2, 1):
    report = radius_sweep(train, test, 0.1, [0.01], scaler=scaler,
                          threads=threads)
    print(json.dumps([(r.radius, r.method, repr(r.in_sample_value),
                       repr(r.oos_cvar), repr(r.oos_mse), repr(r.gamma),
                       r.status) for r in report.rows]))
"""


def fresh_python(code, *args):
    """Run ``code`` in a new interpreter that imports this checkout."""
    src = str(Path(drcvar.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


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


def test_no_step_loads_scipy(tmp_path):
    steps = json.loads(fresh_python(
        FOOTPRINT, str(tmp_path / "d.csv"), str(tmp_path / "fit.json"),
        str(tmp_path / "dr.json"), str(tmp_path / "sweep.json")))
    assert list(steps) == ["import", "gen-data", "fit nominal_mse", "eval",
                           "fit dr_cvar", "sweep"]
    for name, modules in steps.items():
        assert modules == [], name


def test_concurrent_first_solve_matches_serial():
    threaded, serial = fresh_python(CONCURRENT_FIRST_SOLVE).splitlines()
    assert threaded == serial
    rows = json.loads(serial)
    assert len(rows) == 2
    assert all(row[-1] == "optimal" for row in rows)


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


@pytest.mark.parametrize("workload", ["fit_n6", "sweep_n6", "audit_n90"])
def test_benchmark_round_records_every_required_span(bench, workload,
                                                     tmp_path):
    # one traced round through the runner's own workload functions: every
    # operation passes its checks and every layer the runner requires is
    # called through the module attribute it wraps
    from tracer import NAME

    ref = bench.reference_functions(drcvar)
    tracer = bench.install_tracer(drcvar)
    run = bench.Run(0.0, tracer)
    try:
        if workload == "sweep_n6":
            bench.sweep_workload(drcvar, 1, run, ref, tmp_path)
        else:
            inputs = bench.prepare(drcvar, workload, 1)
            work = {"fit_n6": bench.fit_workload,
                    "audit_n90": bench.audit_workload}[workload]
            work(drcvar, inputs, run, ref)
    finally:
        tracer.close()
    assert run.attempted > 0
    assert run.failed == 0, run.failures
    recorded = {sp[NAME] for sp in tracer.spans}
    assert set(bench.REQUIRED_SPANS[workload]) <= recorded
