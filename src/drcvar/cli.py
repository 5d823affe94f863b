"""Command-line front door: fit, eval, sweep, check-dual, gen-data.

Every run prints one machine-readable JSON document to stdout (and writes it
to ``--out`` when given); the documents conform to the schemas shipped under
``drcvar/schemas``.  Exit codes: 0 success, 1 usage error, 2 data error
(bad input, or a file that cannot be read or written), 3 solver failure.
All randomness flows from explicit ``--seed`` flags; the only
wall-clock-dependent outputs are the solve-time fields.
"""
from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import sys

import numpy as np

from .data import (
    HOURS,
    DataError,
    MinMaxScaler,
    SpikyConfig,
    evaluate_out_of_sample,
    json_number,
    load_dataset,
    radius_sweep,
    split_and_normalize,
    synth_spiky,
    write_dataset,
)
from .estimate import (
    CROSS_CHECK_TOL,
    FitError,
    fit_dr_cvar,
    fit_dr_mse,
    fit_nominal_cvar,
    fit_nominal_mse,
)
from .model import AffineEstimator, EmpiricalDistribution, RiskSpec

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_SOLVER = 3

# a sweep runs two fits per radius, so 1000 radii at N = 90 take hours
_MAX_GRID_RADII = 1000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; we reserve 2 for data errors
    def error(self, message):
        raise _UsageError(message)


def _risk_spec(alpha: float, radius: float = 0.0) -> RiskSpec:
    """The risk flags as a RiskSpec; a value out of range is a usage error."""
    try:
        return RiskSpec(alpha=alpha, radius=radius)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _emit(doc: dict, out_path=None) -> None:
    text = json.dumps(doc, indent=2, allow_nan=False)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _parse_date_flag(text: str) -> datetime.date:
    try:
        return datetime.date.fromisoformat(text)
    except ValueError:
        raise _UsageError(f"bad date '{text}', expected YYYY-MM-DD") from None


def _prepare(args):
    """Load a dataset and produce (train, test_or_none, scaler)."""
    ds = load_dataset(args.data)
    if getattr(args, "split_date", None):
        split = _parse_date_flag(args.split_date)
        return split_and_normalize(ds, split)
    scaler = MinMaxScaler.fit(ds.rows())
    dist = EmpiricalDistribution(atoms=scaler.transform(ds.rows()),
                                 n=HOURS, m=HOURS)
    return dist, None, scaler


def _fit_doc(fit, alpha, radius, scaler, data_info) -> dict:
    est = fit.estimator
    return {
        "kind": "fit_result",
        "method": fit.method,
        "alpha": alpha,
        "radius": radius,
        "value": json_number(fit.optimal_value),
        "gamma": json_number(fit.gamma),
        "tau": json_number(fit.tau),
        "cross_check_gap": json_number(fit.cross_check_gap),
        "boundary_gamma": bool(fit.boundary_gamma),
        "solve_time_s": float(fit.solve_time),
        "iterations": int(fit.iterations),
        "estimator": {
            "n": est.n, "m": est.m,
            "A": est.A.tolist(), "b": est.b.tolist(),
        },
        "normalization": {
            "minimum": scaler.minimum.tolist(),
            "maximum": scaler.maximum.tolist(),
        } if scaler is not None else None,
        "data": data_info,
    }


def _cmd_fit(args) -> int:
    spec = _risk_spec(args.alpha, args.radius)
    train, _, scaler = _prepare(args)
    # report what is solved: the MSE fits at alpha = 1, nominal ones at r = 0
    alpha = args.alpha if args.method.endswith("_cvar") else 1.0
    radius = args.radius if args.method.startswith("dr_") else 0.0
    if args.method == "dr_cvar":
        fit = fit_dr_cvar(train, spec)
    elif args.method == "dr_mse":
        fit = fit_dr_mse(train, args.radius)
    elif args.method == "nominal_cvar":
        fit = fit_nominal_cvar(train, args.alpha)
    else:
        fit = fit_nominal_mse(train)
    info = {"path": args.data, "train_days": train.size}
    if args.split_date:
        info["split_date"] = args.split_date
    _emit(_fit_doc(fit, alpha, radius, scaler, info), args.out)
    return EXIT_OK


def _read_fit_result(path):
    """The estimator and scaler of a fit_result document at ``path``.

    A file that is not UTF-8 JSON, a document of another kind, one
    without the estimator or the normalization, or one whose estimator is
    not HOURS x HOURS or whose normalization vectors are not of length
    2 * HOURS, hold an entry that is not a finite number (``null``, ``NaN``,
    ``Infinity``) or have a maximum below its minimum, is a DataError.  A
    maximum equal to its minimum is a constant training coordinate and is
    kept.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            fit_doc = json.load(fh)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not JSON: {exc}") from None
    if not isinstance(fit_doc, dict) or fit_doc.get("kind") != "fit_result":
        raise DataError(f"{path}: not a fit_result document")
    norm = fit_doc.get("normalization")
    if norm is None:
        raise DataError(f"{path}: missing normalization parameters")
    try:
        est = AffineEstimator(A=np.array(fit_doc["estimator"]["A"]),
                              b=np.array(fit_doc["estimator"]["b"]))
        scaler = MinMaxScaler(
            minimum=np.array(norm["minimum"], dtype=float),
            maximum=np.array(norm["maximum"], dtype=float))
    except KeyError as exc:
        raise DataError(f"{path}: fit_result lacks {exc}") from None
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed fit_result: {exc}") from None
    if est.A.shape != (HOURS, HOURS):
        raise DataError(f"{path}: estimator is {est.n}x{est.m}, expected "
                        f"{HOURS}x{HOURS}")
    if scaler.minimum.shape != (2 * HOURS,) \
            or scaler.maximum.shape != (2 * HOURS,):
        raise DataError(f"{path}: normalization vectors must have length "
                        f"{2 * HOURS}")
    if not np.isfinite([scaler.minimum, scaler.maximum]).all():
        raise DataError(f"{path}: normalization vectors must be finite")
    swapped = np.flatnonzero(scaler.maximum < scaler.minimum)
    if swapped.size:
        raise DataError(f"{path}: normalization maximum below minimum at "
                        f"indices {swapped.tolist()}")
    return est, scaler


def _cmd_eval(args) -> int:
    alpha = _risk_spec(args.alpha).alpha
    est, scaler = _read_fit_result(args.estimator)

    ds = load_dataset(args.data)
    mask = np.ones(ds.days, dtype=bool)
    if args.split_date:
        split = _parse_date_flag(args.split_date)
        mask = np.array(ds.dates) >= split
        if not mask.any():
            raise DataError(f"no days on or after {args.split_date}")
    rows = scaler.transform(ds.rows()[mask])
    test = EmpiricalDistribution(atoms=rows, n=HOURS, m=HOURS)
    metrics = evaluate_out_of_sample(est, test, alpha, scaler)
    doc = {
        "kind": "eval_metrics",
        "alpha": metrics.alpha,
        "n_test": metrics.n_test,
        "oos_cvar": json_number(metrics.cvar),
        "oos_mse": json_number(metrics.mse),
        "oos_cvar_original": json_number(metrics.cvar_original),
        "oos_mse_original": json_number(metrics.mse_original),
        "data": {"path": args.data},
    }
    _emit(doc, args.out)
    return EXIT_OK


def _radii_from_args(args):
    if args.radii:
        try:
            radii = sorted(float(tok) for tok in args.radii.split(","))
        except ValueError:
            raise _UsageError(f"bad --radii '{args.radii}'") from None
    else:
        lo, hi = args.radii_log_from, args.radii_log_to
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise _UsageError("--radii-log-from and --radii-log-to must be "
                              "finite")
        if hi < lo:
            raise _UsageError("--radii-log-to must be >= --radii-log-from")
        if not (math.isfinite(args.per_decade) and args.per_decade > 0):
            raise _UsageError("--per-decade must be positive and finite")
        steps = min((hi - lo) * args.per_decade, _MAX_GRID_RADII)
        count = int(round(steps)) + 1
        if count > _MAX_GRID_RADII:
            raise _UsageError(f"the log grid holds at most {_MAX_GRID_RADII} "
                              "radii")
        radii = list(np.logspace(lo, hi, count))
    if not all(math.isfinite(r) and r > 0 for r in radii):
        raise _UsageError("radii must be positive and finite")
    return radii


def _cmd_sweep(args) -> int:
    alpha = _risk_spec(args.alpha).alpha
    radii = _radii_from_args(args)
    if args.threads < 1:
        raise _UsageError(f"--threads must be at least 1, got {args.threads}")
    train, test, scaler = _prepare(args)
    if test is None:
        raise _UsageError("sweep requires --split-date")
    report = radius_sweep(train, test, alpha, radii, scaler=scaler,
                          threads=args.threads)
    doc = {"kind": "sweep_report", **report.to_dict()}
    doc["data"] = {"path": args.data, "split_date": args.split_date,
                   "train_days": train.size, "test_days": test.size}
    files = {}
    json_path = None
    if args.out:
        base = args.out[:-5] if args.out.endswith(".json") else args.out
        json_path = base + ".json"
        csv_path = base + ".csv"
        plot_path = base + "_plot.csv"
        report.to_csv(csv_path)
        series = report.plot_data()
        with open(plot_path, "w") as fh:
            fh.write("radius," + ",".join(f"oos_cvar_{m}" for m in series) + "\n")
            radii_list = series[next(iter(series))]["radius"]
            for i, r in enumerate(radii_list):
                cells = [f"{r:.10g}"]
                for m in series:
                    val = series[m]["oos_cvar"][i]
                    cells.append("" if not math.isfinite(val) else f"{val:.10g}")
                fh.write(",".join(cells) + "\n")
        files = {"csv": csv_path, "plot_csv": plot_path}
    doc["files"] = files
    _emit(doc, json_path)
    return EXIT_OK


def _cmd_check_dual(args) -> int:
    spec = _risk_spec(args.alpha, args.radius)
    if spec.radius == 0.0:
        raise _UsageError("check-dual requires --radius > 0")
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise _UsageError(f"--tol must be positive and finite, got {args.tol}")
    train, _, _ = _prepare(args)
    fit = fit_dr_cvar(train, spec)
    tol = args.tol * (1.0 + abs(fit.optimal_value))
    ok = fit.cross_check_gap <= tol
    doc = {
        "kind": "check_dual",
        "alpha": args.alpha,
        "radius": args.radius,
        "sdp_value": json_number(fit.optimal_value),
        "dual_value": json_number(fit.certificate.value),
        "gap": json_number(fit.cross_check_gap),
        "tol": tol,
        "ok": ok,
        "gamma_sdp": json_number(fit.gamma),
        "gamma_dual": json_number(fit.certificate.gamma_star),
        "boundary_gamma": bool(fit.boundary_gamma),
        "data": {"path": args.data},
    }
    _emit(doc, args.out)
    return EXIT_OK if ok else EXIT_SOLVER


def _cmd_gen_data(args) -> int:
    if args.seed < 0:
        raise _UsageError(f"--seed must be >= 0, got {args.seed}")
    start_date = _parse_date_flag(args.start_date)
    try:
        config = SpikyConfig(
            days=args.days, spike_prob=args.spike_prob,
            spike_scale=args.spike_scale, noise=args.noise,
            spike_ramp=args.spike_ramp, start_date=start_date,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    ds = synth_spiky(config, seed=args.seed)
    write_dataset(ds, args.out)
    with open(args.out, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    doc = {
        "kind": "gen_data",
        "path": args.out,
        "days": config.days,
        "seed": args.seed,
        "spike_prob": config.spike_prob,
        "spike_scale": config.spike_scale,
        "spike_ramp": config.spike_ramp,
        "noise": config.noise,
        "start_date": config.start_date.isoformat(),
        "sha256": digest,
    }
    _emit(doc)
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="drcvar",
        description="Distributionally robust CVaR-optimal affine estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit one estimator on a dataset")
    p_fit.add_argument("--data", required=True)
    p_fit.add_argument("--alpha", type=float, default=0.01)
    p_fit.add_argument("--radius", type=float, default=0.01)
    p_fit.add_argument("--method", default="dr_cvar",
                       choices=["dr_cvar", "dr_mse", "nominal_cvar",
                                "nominal_mse"])
    p_fit.add_argument("--split-date", default=None,
                       help="train on days before this date (default: all)")
    p_fit.add_argument("--out", default=None)
    p_fit.set_defaults(func=_cmd_fit)

    p_eval = sub.add_parser("eval", help="evaluate a saved fit on a dataset")
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--estimator", required=True,
                        help="fit_result JSON produced by the fit command")
    p_eval.add_argument("--alpha", type=float, default=0.01)
    p_eval.add_argument("--split-date", default=None,
                        help="evaluate on days from this date (default: all)")
    p_eval.add_argument("--out", default=None)
    p_eval.set_defaults(func=_cmd_eval)

    p_sweep = sub.add_parser("sweep", help="radius sweep of both robust fits")
    p_sweep.add_argument("--data", required=True)
    p_sweep.add_argument("--alpha", type=float, default=0.01)
    p_sweep.add_argument("--split-date", required=True)
    p_sweep.add_argument("--radii-log-from", type=float, default=-5.0)
    p_sweep.add_argument("--radii-log-to", type=float, default=5.0)
    p_sweep.add_argument("--per-decade", type=float, default=1.0)
    p_sweep.add_argument("--radii", default=None,
                         help="explicit comma-separated radii (overrides the "
                              "log grid)")
    p_sweep.add_argument("--threads", type=int, default=1)
    p_sweep.add_argument("--out", default=None,
                         help="output prefix or .json path; also writes "
                              "<base>.csv and <base>_plot.csv")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_chk = sub.add_parser("check-dual",
                           help="cross-validate the conic optimum against "
                                "the dual evaluation")
    p_chk.add_argument("--data", required=True)
    p_chk.add_argument("--alpha", type=float, default=0.01)
    p_chk.add_argument("--radius", type=float, default=0.01)
    p_chk.add_argument("--split-date", default=None)
    p_chk.add_argument("--tol", type=float, default=CROSS_CHECK_TOL,
                       help="relative gap bound for 'ok'; the fit itself "
                            f"enforces {CROSS_CHECK_TOL:g}, so a --tol above "
                            "it cannot pass a fit that fails that bound")
    p_chk.add_argument("--out", default=None)
    p_chk.set_defaults(func=_cmd_check_dual)

    p_gen = sub.add_parser("gen-data", help="write a synthetic spiky dataset")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--days", type=int, default=120)
    p_gen.add_argument("--spike-prob", type=float, default=0.08)
    p_gen.add_argument("--spike-scale", type=float, default=60.0)
    p_gen.add_argument("--spike-ramp", type=float, default=0.0)
    p_gen.add_argument("--noise", type=float, default=5.0)
    p_gen.add_argument("--start-date", default="2013-05-01")
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen_data)
    return parser


def dispatch(argv) -> int:
    """Run one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        _emit({"kind": "error", "error": str(exc), "exit_code": EXIT_USAGE})
        return EXIT_USAGE
    try:
        return args.func(args)
    except _UsageError as exc:
        _emit({"kind": "error", "error": str(exc), "exit_code": EXIT_USAGE})
        return EXIT_USAGE
    except (DataError, OSError) as exc:
        _emit({"kind": "error", "error": str(exc), "exit_code": EXIT_DATA})
        return EXIT_DATA
    except FitError as exc:
        _emit({"kind": "error", "error": str(exc), "exit_code": EXIT_SOLVER,
               "status": exc.status})
        return EXIT_SOLVER


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
