#!/usr/bin/env python3
"""drcvar benchmark: certified fits, a CLI radius sweep and a worst-case-risk audit.

Usage (from the repository root):

    python3 perfbench/run.py --workload fit_n6 --seed 1 --seconds 32 --trace 0

One process, one caller, closed loop: each operation starts after the
previous one has returned.  The benchmark imports ``drcvar`` from ``src/`` of
the checkout it sits in.  BLAS thread variables: see default_blas_threads.

The first line of standard output is an ``{"env": ...}`` record (kernel
backend, BLAS, thread variables as found, library versions, cores, seed).
The last line is the result: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` functions are wrapped at the module attributes their callers
look up (see tracer.py) and the metrics are per layer.  See README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import datetime
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("fit_n6", "sweep_n6", "audit_n90")

# fit_n6: certified dr_cvar fits on rolling windows of one synthetic history,
# the size of sweep_n6's fits.  N = 6 rather than the reference N = 30: one
# N = 30 fit takes 27-44 s, and the benchmark's runs must each end within
# about 45 s.  One N = 6 fit takes 6-9 s on 2 cores, so a round of 4
# fits about fills a 32-s run.
FIT_DAYS = 6
FIT_WINDOWS = 4
FIT_ALPHA, FIT_RADIUS = 0.1, 0.01

# sweep_n6: `drcvar gen-data` then `drcvar sweep` as separate processes
SWEEP_TRAIN_DAYS = 6
SWEEP_TEST_DAYS = 4
SWEEP_ARGS = ("--alpha", "0.1", "--radii", "0.01,1", "--threads", "2")
SWEEP_ROWS = 4
START_DATE = datetime.date(2013, 5, 1)  # gen-data's default --start-date

# audit_n90: certificates of least-squares fits on the 90-day training set
AUDIT_DAYS, AUDIT_TRAIN_DAYS, AUDIT_WINDOW = 120, 90, 30
AUDIT_WINDOWS = 9
AUDIT_RADII_LOG = (-4.0, 2.0, 13)
AUDIT_ALPHAS = (0.01, 0.1, 1.0)

# Each set-up process takes about 1 s.  On a 2-core machine shared with
# other tenants the median of 3 spread by 0.30-0.32 over ten seeds; more
# processes per run narrow that at about 1 s each.
SETUP_REPS = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# Thread count where the caller set none.  With the BLAS default (one thread
# per core) on a 2-core machine shared with other tenants, the same audit run
# read 12.2 to 18.5 ms per certificate from one minute to the next; with one
# thread, 12.5 to 13.0 ms.  At the default, a 6-day sweep on seed 10 also
# had a fit end with status `numerical` (see RESULTS.md).
DEFAULT_BLAS_THREADS = "1"

END_TO_END_UNITS = {"latency_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


class ProgramMissing(RuntimeError):
    pass


def load_program():
    """Import drcvar from this checkout's src/, never from elsewhere."""
    if not (SRC / "drcvar" / "__init__.py").is_file():
        raise ProgramMissing(f"no drcvar package under {SRC}")
    sys.path.insert(0, str(SRC))
    import drcvar
    import drcvar.cli
    import drcvar.conic
    import drcvar.data
    import drcvar.dual
    import drcvar.estimate
    import drcvar.kernels
    import drcvar.risk

    if Path(drcvar.__file__).resolve().parent != (SRC / "drcvar").resolve():
        raise ProgramMissing(f"drcvar imported from {drcvar.__file__}, "
                             f"not from {SRC}")
    return drcvar


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def default_blas_threads() -> dict:
    """Set the BLAS thread variables the caller left unset to
    DEFAULT_BLAS_THREADS, keeping the ones it set; returns them as found."""
    found = {v: os.environ.get(v, "unset") for v in THREAD_VARS}
    for v in THREAD_VARS:
        os.environ.setdefault(v, DEFAULT_BLAS_THREADS)
    return found


def environment(drcvar, args, threads_found: dict) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "have_compiled": getattr(drcvar.kernels, "HAVE_COMPILED", None),
        "blas": blas_name,
        "thread_env_found": threads_found,
        "thread_env_used": {v: os.environ.get(v, "unset")
                            for v in THREAD_VARS},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity_cpus": affinity,
    }


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------- inputs

def prepare(drcvar, workload: str, seed: int):
    """Generate the workload's inputs from the seed (public API only)."""
    import numpy as np

    data = drcvar.data
    if workload == "fit_n6":
        ds = data.synth_spiky(
            data.SpikyConfig(days=FIT_WINDOWS * FIT_DAYS + 1), seed)
        windows = []
        for w in range(FIT_WINDOWS):
            lo = w * FIT_DAYS
            mask = np.zeros(ds.days, dtype=bool)
            mask[lo:lo + FIT_DAYS + 1] = True
            train, _, _ = data.split_and_normalize(ds.subset(mask),
                                                   ds.dates[lo + FIT_DAYS])
            windows.append(train)
        return {"windows": windows,
                "digest": digest(t.atoms for t in windows)}
    if workload == "audit_n90":
        ds = data.synth_spiky(data.SpikyConfig(days=AUDIT_DAYS), seed)
        train, _, _ = data.split_and_normalize(ds, ds.dates[AUDIT_TRAIN_DAYS])
        starts = np.linspace(0, AUDIT_TRAIN_DAYS - AUDIT_WINDOW,
                             AUDIT_WINDOWS).astype(int)
        fits = []
        for s in starts:
            window = drcvar.EmpiricalDistribution(
                atoms=train.atoms[s:s + AUDIT_WINDOW], n=train.n, m=train.m)
            est = drcvar.estimate.fit_nominal_mse(window).estimator
            fits.append((est, drcvar.affine_to_quadratic(est)))
        return {"train": train, "fits": fits,
                "radii": list(np.logspace(*AUDIT_RADII_LOG)),
                "digest": digest([train.atoms]
                                 + [e.A for e, _ in fits]
                                 + [e.b for e, _ in fits])}
    raise ValueError(workload)


# ---------------------------------------------------------------- runner

class Run:
    """Latencies and check outcomes of one benchmark run."""

    def __init__(self, seconds: float, tracer=None):
        self.seconds = seconds
        self.tracer = tracer
        self.latencies: list[float] = []
        self.iterations: list[int] = []
        self.setup: list[float] = []
        self.rss_mb: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def span(self, name: str):
        """A benchmark span in the traced pass, nothing otherwise."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def rounds(self, one_round) -> None:
        """Repeat whole rounds while another one fits in the time budget."""
        t0 = time.perf_counter()
        while True:
            r0 = time.perf_counter()
            one_round()
            now = time.perf_counter()
            if (now - t0) + (now - r0) > self.seconds:
                return


def timed(run: Run, fn, *args):
    """Call fn inside an op span; returns (result or exception, seconds)."""
    with run.span("bench.op"):
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # counted as a failed operation
            result = exc
        elapsed = time.perf_counter() - t0
    run.latencies.append(elapsed)
    return result, elapsed


def fit_workload(drcvar, inputs, run: Run, ref) -> None:
    spec = drcvar.RiskSpec(alpha=FIT_ALPHA, radius=FIT_RADIUS)

    def one_round():
        for i, train in enumerate(inputs["windows"]):
            fit, _ = timed(run, drcvar.estimate.fit_dr_cvar, train, spec)
            if not isinstance(fit, Exception):
                run.iterations.append(fit.iterations)
            run.record(check_fit(ref, fit, train, spec),
                       f"fit window {i}: {fit!r:.200}")

    run.rounds(one_round)


def check_fit(ref, fit, train, spec) -> bool:
    """Optimal status and the dual cross-check bound, applied here."""
    import numpy as np

    if isinstance(fit, Exception):
        return False
    if not (math.isfinite(fit.optimal_value)
            and np.all(np.isfinite(fit.estimator.A))
            and np.all(np.isfinite(fit.estimator.b))):
        return False
    cert = ref["worst_case_cvar"](ref["affine_to_quadratic"](fit.estimator),
                                  train, spec)
    tol = ref["CROSS_CHECK_TOL"] * (1.0 + abs(fit.optimal_value))
    return abs(fit.optimal_value - cert.value) <= tol


def audit_workload(drcvar, inputs, run: Run, ref) -> None:
    train, radii = inputs["train"], inputs["radii"]

    def one_round():
        for w, (est, qf) in enumerate(inputs["fits"]):
            for alpha in AUDIT_ALPHAS:
                values = []
                for r in radii:
                    spec = drcvar.RiskSpec(alpha=alpha, radius=float(r))
                    cert, _ = timed(run, drcvar.dual.worst_case_cvar,
                                    qf, train, spec)
                    values.append(math.nan if isinstance(cert, Exception)
                                  else cert.value)
                for k, ok in enumerate(check_audit(ref, est, train, alpha,
                                                   radii, values)):
                    run.record(ok, f"window {w} alpha {alpha} radius "
                                   f"{radii[k]:.3g}: {values[k]!r}")

    run.rounds(one_round)


def check_audit(ref, est, train, alpha, radii, values) -> list[bool]:
    """Finite, non-decreasing in radius, at least the nominal CVaR, and at
    alpha = 1 at most the closed-form worst-case MSE bound."""
    nominal = ref["cvar_discrete"](ref["loss_batch"](est, train), alpha).cvar
    oks = []
    for k, (r, v) in enumerate(zip(radii, values)):
        ok = math.isfinite(v) and v >= nominal
        if k > 0:
            ok = ok and v >= values[k - 1]
        if alpha == 1.0:
            ok = ok and v <= ref["worst_case_mse_closed"](est, train, float(r))
        oks.append(ok)
    return oks


def sweep_paths(tmp: Path, seed: int) -> dict:
    split = START_DATE + datetime.timedelta(days=SWEEP_TRAIN_DAYS)
    data = tmp / "data.csv"
    gen = ["gen-data", "--days", str(SWEEP_TRAIN_DAYS + SWEEP_TEST_DAYS),
           "--seed", str(seed), "--out", str(data)]
    sweep = ["sweep", "--data", str(data), "--split-date", split.isoformat(),
             *SWEEP_ARGS, "--out", str(tmp / "sweep.json")]
    return {"gen": gen, "sweep": sweep, "out": tmp / "sweep.json"}


def run_child(argv, stdout_path: Path):
    """Run a child to completion; returns (exit code, wall s, peak RSS MB)."""
    with open(stdout_path, "w") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL,
                                env=child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss / 1024.0


def cli_argv(args) -> list[str]:
    return [sys.executable, "-m", "drcvar.cli", *args]


def check_sweep(ref, code: int, out_path: Path) -> bool:
    """Exit 0, schema-valid, 4 optimal finite rows, in-sample value
    non-decreasing in radius per method."""
    if code != 0 or not out_path.is_file():
        return False
    try:
        doc = json.loads(out_path.read_text())
        ref["validate"](doc, "sweep_report")
    except (ValueError, ref["ValidationError"]):
        return False
    rows = doc["rows"]
    if len(rows) != SWEEP_ROWS:
        return False
    by_method: dict = {}
    for row in rows:
        if row["status"] != "optimal" or row["in_sample"] is None \
                or row["oos_cvar"] is None or row["oos_mse"] is None:
            return False
        by_method.setdefault(row["method"], []).append(
            (row["radius"], row["in_sample"]))
    for series in by_method.values():
        values = [v for _, v in sorted(series)]
        if any(b < a for a, b in zip(values, values[1:])):
            return False
    return all(Path(p).is_file() for p in doc.get("files", {}).values())


def check_gen(ref, code: int, stdout_path: Path, data_path: Path):
    """gen-data exit 0, schema-valid document; returns its sha256 or None."""
    if code != 0:
        return None
    try:
        doc = json.loads(stdout_path.read_text())
        ref["validate"](doc, "gen_data")
        actual = hashlib.sha256(data_path.read_bytes()).hexdigest()
    except (OSError, ValueError, ref["ValidationError"]):
        return None
    return actual if actual == doc["sha256"] else None


def sweep_workload(drcvar, seed: int, run: Run, ref, tmp: Path) -> None:
    paths = sweep_paths(tmp, seed)
    stdout = tmp / "stdout.json"
    data_path = Path(paths["gen"][-1])
    if run.tracer is None:
        digests = set()
        for _ in range(SETUP_REPS):
            code, elapsed, _ = run_child(cli_argv(paths["gen"]), stdout)
            sha = check_gen(ref, code, stdout, data_path)
            digests.add(sha)
            run.record(sha is not None, f"gen-data exit {code}")
            run.setup.append(elapsed)
        if len(digests) != 1:
            run.record(False, f"gen-data not deterministic: {digests}")
    else:
        with run.span("bench.prepare"), \
                contextlib.redirect_stdout(io.StringIO()) as buf:
            code = drcvar.cli.dispatch(paths["gen"])
        stdout.write_text(buf.getvalue())
        sha = check_gen(ref, code, stdout, data_path)
        run.record(sha is not None, f"gen-data exit {code}")

    def one_round():
        paths["out"].unlink(missing_ok=True)
        if run.tracer is None:
            code, elapsed, peak = run_child(cli_argv(paths["sweep"]), stdout)
            run.latencies.append(elapsed)
            run.rss_mb.append(peak)
        else:
            with contextlib.redirect_stdout(io.StringIO()):
                code, _ = timed(run, drcvar.cli.dispatch, paths["sweep"])
        run.record(check_sweep(ref, code, paths["out"]), f"sweep exit {code}")

    run.rounds(one_round)


def measure_setup(workload: str, seed: int, run: Run, want: str,
                  tmp: Path) -> None:
    """Fresh interpreters that import drcvar and ready the inputs."""
    stdout = tmp / "prepare.txt"
    argv = [sys.executable, str(HERE / "run.py"), "--prepare", workload,
            "--seed", str(seed)]
    for _ in range(SETUP_REPS):
        code, elapsed, _ = run_child(argv, stdout)
        got = stdout.read_text().strip() if code == 0 else None
        run.record(got == want, f"prepare exit {code}, digest {got}")
        run.setup.append(elapsed)


# ---------------------------------------------------------------- tracing

def install_tracer(drcvar):
    from tracer import Tracer

    tr = Tracer()
    conic, est, dual, data, cli = (drcvar.conic, drcvar.estimate, drcvar.dual,
                                   drcvar.data, drcvar.cli)
    tr.wrap(conic, "schur_accumulate", "kernels.schur_accumulate",
            work=lambda a, r: len(a[2]) ** 2)
    tr.wrap(conic, "certify", "conic.certify")
    tr.wrap(conic, "_gram_normal_matrix", "conic.gram_rebuild",
            optional=True)
    tr.wrap(est, "solve_sdp", "conic.solve_sdp",
            work=lambda a, r: r.iterations)
    tr.wrap(est, "build_drcvar_sdp", "sdp.build")
    tr.wrap(est, "extract_estimator", "sdp.extract")
    for module in (est, data):
        tr.wrap(module, "fit_dr_cvar", "estimate.fit_dr_cvar", fit_scope=True)
        tr.wrap(module, "cvar_discrete", "risk.cvar_discrete")
    tr.wrap(data, "fit_dr_mse", "estimate.fit_dr_mse", fit_scope=True)
    tr.wrap(est, "fit_nominal_mse", "estimate.fit_nominal_mse",
            fit_scope=True)
    tr.wrap(est, "worst_case_cvar", "dual.worst_case_cvar")
    tr.wrap(dual, "worst_case_cvar", "dual.worst_case_cvar")
    tr.wrap(dual, "dual_objective", "dual.dual_objective")
    tr.wrap(dual, "gamma_domain", "dual.gamma_domain")
    tr.wrap(dual, "cvar_discrete", "risk.cvar_discrete")
    tr.wrap(data, "_sweep_task", "data.sweep_task", fit_scope=True)
    tr.wrap(data, "evaluate_out_of_sample", "data.evaluate_out_of_sample")
    tr.wrap(data, "synth_spiky", "data.synth_spiky")
    tr.wrap(cli, "synth_spiky", "data.synth_spiky")
    tr.wrap(cli, "radius_sweep", "data.radius_sweep", spawns=True)
    tr.wrap(cli, "dispatch", "cli.dispatch")
    return tr


# Spans each workload must record in the traced pass.  A wrapped function
# that a later version no longer calls through its module attribute would
# otherwise read as a layer that costs nothing.
SOLVER_SPANS = ("kernels.schur_accumulate", "conic.solve_sdp", "conic.certify",
                "sdp.build", "sdp.extract", "dual.worst_case_cvar",
                "dual.dual_objective", "dual.gamma_domain",
                "risk.cvar_discrete")
REQUIRED_SPANS = {
    "fit_n6": SOLVER_SPANS + ("estimate.fit_dr_cvar",),
    "sweep_n6": SOLVER_SPANS + ("cli.dispatch", "data.radius_sweep",
                                "data.sweep_task", "estimate.fit_dr_cvar",
                                "estimate.fit_dr_mse",
                                "data.evaluate_out_of_sample",
                                "data.synth_spiky"),
    "audit_n90": ("dual.worst_case_cvar", "dual.dual_objective",
                  "dual.gamma_domain", "risk.cvar_discrete",
                  "estimate.fit_nominal_mse", "data.synth_spiky"),
}

LAYER_METRICS = (
    ("kernels.schur_s", "s"), ("kernels.schur_calls", "count"),
    ("kernels.schur_pairs", "count"), ("kernels.schur_share", "frac"),
    ("conic.solve_self_s", "s"), ("conic.iterations", "count"),
    ("conic.gram_rebuilds", "count"), ("conic.gram_s", "s"),
    ("conic.certify_s", "s"),
    ("sdp.build_s", "s"), ("sdp.extract_s", "s"),
    ("estimate.fit_self_s", "s"),
    ("dual.cert_s", "s"), ("dual.certs", "count"),
    ("dual.objective_evals", "count"), ("dual.domain_evals", "count"),
    ("risk.cvar_s", "s"), ("risk.cvar_calls", "count"),
    ("data.sweep_fit_s", "s"), ("data.oos_s", "s"), ("data.gen_s", "s"),
    ("cli.self_s", "s"),
    ("bench.self_s", "s"), ("trace.wall_s", "s"), ("trace.self_sum_s", "s"),
    ("trace.spans", "count"), ("trace.overhead_est_s", "s"),
)


def layer_metrics(tr) -> dict:
    """Per-operation layer totals from the recorded spans."""
    from tracer import END, NAME, PARENT, SID, START, WORK

    by_id = {sp[SID]: sp for sp in tr.spans}
    self_t = tr.self_times()

    def root(sp):
        while sp[PARENT] in by_id:
            sp = by_id[sp[PARENT]]
        return sp[NAME]

    in_op = [sp for sp in tr.spans if root(sp) == "bench.op"]
    ops = max(1, sum(1 for sp in in_op if sp[NAME] == "bench.op"))
    tot_self, tot_incl, calls, work = {}, {}, {}, {}
    for sp in in_op:
        name = sp[NAME]
        tot_self[name] = tot_self.get(name, 0.0) + self_t[sp[SID]]
        tot_incl[name] = tot_incl.get(name, 0.0) + sp[END] - sp[START]
        calls[name] = calls.get(name, 0) + 1
        work[name] = work.get(name, 0) + sp[WORK]

    def layer_self(prefix):
        return sum(v for k, v in tot_self.items() if k.startswith(prefix))

    sweep_fits = [sp[END] - sp[START] for sp in in_op
                  if sp[NAME].startswith("estimate.fit_dr")
                  and by_id.get(sp[PARENT], ("",))[NAME] == "data.sweep_task"]
    gens = [sp[END] - sp[START] for sp in tr.spans
            if sp[NAME] == "data.synth_spiky"]
    wall = tot_incl.get("bench.op", 0.0)
    busy = sum(tot_self.values())
    totals = {
        "kernels.schur_s": layer_self("kernels."),
        "kernels.schur_calls": calls.get("kernels.schur_accumulate", 0),
        "kernels.schur_pairs": work.get("kernels.schur_accumulate", 0),
        "conic.solve_self_s": tot_self.get("conic.solve_sdp", 0.0),
        "conic.iterations": work.get("conic.solve_sdp", 0),
        "conic.gram_rebuilds": calls.get("conic.gram_rebuild", 0),
        "conic.gram_s": tot_self.get("conic.gram_rebuild", 0.0),
        "conic.certify_s": tot_self.get("conic.certify", 0.0),
        "sdp.build_s": tot_self.get("sdp.build", 0.0),
        "sdp.extract_s": tot_self.get("sdp.extract", 0.0),
        "estimate.fit_self_s": layer_self("estimate."),
        "dual.cert_s": layer_self("dual."),
        "dual.certs": calls.get("dual.worst_case_cvar", 0),
        "dual.objective_evals": calls.get("dual.dual_objective", 0),
        "dual.domain_evals": calls.get("dual.gamma_domain", 0),
        "risk.cvar_s": layer_self("risk."),
        "risk.cvar_calls": calls.get("risk.cvar_discrete", 0),
        "data.oos_s": tot_incl.get("data.evaluate_out_of_sample", 0.0),
        "cli.self_s": tot_self.get("cli.dispatch", 0.0),
        "bench.self_s": layer_self("bench."),
        "trace.wall_s": wall,
        "trace.self_sum_s": busy,
        "trace.spans": len(in_op),
    }
    values = {k: v / ops for k, v in totals.items()}
    values["kernels.schur_share"] = totals["kernels.schur_s"] / busy if busy else 0.0
    values["data.sweep_fit_s"] = statistics.median(sweep_fits) if sweep_fits else 0.0
    values["data.gen_s"] = statistics.median(gens) if gens else 0.0
    values["trace.overhead_est_s"] = values["trace.spans"] * tr.span_cost()
    return {name: {"value": values[name], "unit": unit}
            for name, unit in LAYER_METRICS}, ops


# ---------------------------------------------------------------- main

def reference_functions(drcvar) -> dict:
    """Unwrapped functions the checks use, taken before any tracing."""
    import jsonschema

    schemas = {}
    for kind in ("sweep_report", "gen_data"):
        path = SRC / "drcvar" / "schemas" / f"{kind}.schema.json"
        schemas[kind] = json.loads(path.read_text())
    return {
        "worst_case_cvar": drcvar.dual.worst_case_cvar,
        "worst_case_mse_closed": drcvar.dual.worst_case_mse_closed,
        "affine_to_quadratic": drcvar.affine_to_quadratic,
        "cvar_discrete": drcvar.risk.cvar_discrete,
        "loss_batch": drcvar.loss_batch,
        "CROSS_CHECK_TOL": drcvar.estimate.CROSS_CHECK_TOL,
        "validate": lambda doc, kind: jsonschema.validate(doc, schemas[kind]),
        "ValidationError": jsonschema.ValidationError,
    }


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--prepare", choices=("fit_n6", "audit_n90"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    # before numpy is imported
    threads_found = default_blas_threads()
    try:
        drcvar = load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"perfbench: cannot load drcvar: {exc}", file=sys.stderr)
        return 2

    if args.prepare:
        print(prepare(drcvar, args.prepare, args.seed)["digest"])
        return 0
    if args.workload is None or args.seconds is None:
        ap.error("--workload and --seconds are required")

    env = environment(drcvar, args, threads_found)
    print(json.dumps({"env": env}), flush=True)
    ref = reference_functions(drcvar)
    OUT_DIR.mkdir(exist_ok=True)

    try:
        tracer = install_tracer(drcvar) if args.trace else None
    except AttributeError as exc:
        print(f"perfbench: cannot trace: {exc}", file=sys.stderr)
        return 2
    run = Run(args.seconds, tracer)
    try:
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp_name:
            tmp = Path(tmp_name)
            if args.workload == "sweep_n6":
                sweep_workload(drcvar, args.seed, run, ref, tmp)
            else:
                with run.span("bench.prepare"):
                    inputs = prepare(drcvar, args.workload, args.seed)
                if tracer is None:
                    measure_setup(args.workload, args.seed, run,
                                  inputs["digest"], tmp)
                if args.workload == "fit_n6":
                    fit_workload(drcvar, inputs, run, ref)
                else:
                    audit_workload(drcvar, inputs, run, ref)
                run.rss_mb.append(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    finally:
        if tracer is not None:
            tracer.close()

    if tracer is None:
        lat_ms = [t * 1000.0 for t in run.latencies]
        values = {"latency_ms": statistics.median(lat_ms),
                  "setup_s": statistics.median(run.setup),
                  "peak_rss_mb": max(run.rss_mb)}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
        print(json.dumps({"ops": len(lat_ms),
                          "latency_mean_ms": statistics.fmean(lat_ms),
                          "latency_p95_ms": percentile(lat_ms, 95),
                          "iterations": run.iterations,
                          "setup_runs": run.setup,
                          "failures": run.failures}), flush=True)
    else:
        from tracer import NAME

        metrics, ops = layer_metrics(tracer)
        recorded = {sp[NAME] for sp in tracer.spans}
        for name in REQUIRED_SPANS[args.workload]:
            run.record(name in recorded, f"traced pass recorded no {name}")
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(trace_path, {"env": env, "ops": ops})
        print(json.dumps({"ops": ops,
                          "trace_file": str(trace_path.relative_to(ROOT)),
                          "failures": run.failures}), flush=True)

    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
