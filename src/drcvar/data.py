"""Dataset ingestion, normalization, synthetic generation, and radius sweeps.

The experiment protocol: hourly day-ahead prices (24 values per day) are
predicted from hourly load forecasts (24 values per day).  Days before a
split date train the estimator, the rest test it; all 48 coordinates are
min-max normalized to [0, 1] with parameters fitted on the training rows
only.  A sweep refits the robust estimators over a grid of transport radii
and reports in-sample and out-of-sample risk per (radius, method) pair.

Out-of-sample CVaR at small alpha deserves a caveat: with a month of test
days and alpha = 0.01, alpha < 1/N and the reported CVaR is exactly the
worst daily squared error.
"""
from __future__ import annotations

import csv
import datetime
import math
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .conic import SolverSettings
from .estimate import FitError, fit_dr_cvar, fit_dr_mse
from .model import AffineEstimator, EmpiricalDistribution, RiskSpec, loss_batch
from .risk import cvar_discrete

HOURS = 24

_WIDE_HEADER = (["date"] + [f"p{h:02d}" for h in range(HOURS)]
                + [f"l{h:02d}" for h in range(HOURS)])
_LONG_HEADER = ["date", "hour", "price", "load"]


class DataError(ValueError):
    """Raised on malformed or incomplete input files."""


@dataclass(frozen=True)
class Dataset:
    """Per-day price and load curves with strictly increasing dates."""

    dates: tuple
    prices: np.ndarray  # (days, 24), $/MWh
    loads: np.ndarray   # (days, 24), MW

    def __post_init__(self):
        prices = np.asarray(self.prices, dtype=float)
        loads = np.asarray(self.loads, dtype=float)
        days = len(self.dates)
        if prices.shape != (days, HOURS) or loads.shape != (days, HOURS):
            raise DataError(
                f"expected ({days}, {HOURS}) price and load arrays, got "
                f"{prices.shape} and {loads.shape}"
            )
        if not (np.all(np.isfinite(prices)) and np.all(np.isfinite(loads))):
            raise DataError("dataset contains non-finite values")
        for a, b in zip(self.dates, self.dates[1:]):
            if b <= a:
                raise DataError(f"dates not strictly increasing at {b}")
        object.__setattr__(self, "prices", prices)
        object.__setattr__(self, "loads", loads)

    @property
    def days(self) -> int:
        return len(self.dates)

    def rows(self) -> np.ndarray:
        """(days, 48) matrix, prices then loads."""
        return np.hstack([self.prices, self.loads])

    def subset(self, mask) -> "Dataset":
        idx = np.flatnonzero(mask)
        return Dataset(dates=tuple(self.dates[i] for i in idx),
                       prices=self.prices[idx], loads=self.loads[idx])


@dataclass(frozen=True)
class MinMaxScaler:
    """Per-coordinate affine rescaling fitted on training rows.

    Coordinates with zero training span are degenerate: they transform to
    the constant 0.5 (flagged by a warning at fit time) and invert to the
    training value.
    """

    minimum: np.ndarray
    maximum: np.ndarray

    @classmethod
    def fit(cls, rows: np.ndarray) -> "MinMaxScaler":
        rows = np.asarray(rows, dtype=float)
        lo = rows.min(axis=0)
        hi = rows.max(axis=0)
        degenerate = np.flatnonzero(hi <= lo)
        if degenerate.size:
            warnings.warn(
                f"{degenerate.size} constant training coordinate(s) at "
                f"indices {degenerate.tolist()}; mapping them to 0.5",
                stacklevel=2,
            )
        return cls(minimum=lo, maximum=hi)

    @property
    def span(self) -> np.ndarray:
        return self.maximum - self.minimum

    @property
    def degenerate(self) -> np.ndarray:
        return self.span <= 0.0

    def transform(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=float)
        span = np.where(self.degenerate, 1.0, self.span)
        out = (rows - self.minimum) / span
        return np.where(self.degenerate, 0.5, out)

    def inverse_transform(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=float)
        span = np.where(self.degenerate, 0.0, self.span)
        return self.minimum + rows * span


def _parse_date(text: str, where: str):
    try:
        return datetime.date.fromisoformat(text.strip())
    except ValueError as exc:
        raise DataError(f"{where}: bad date '{text}'") from exc


def _parse_float(text: str, where: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise DataError(f"{where}: unparseable value '{text}'") from exc


def load_dataset(path) -> Dataset:
    """Load a day-ahead market CSV in wide or long layout.

    Long layout: header exactly ``date,hour,price,load``, 24 rows per day,
    pivoted here.  Any other header is read as the wide layout
    ``date,p00..p23,l00..l23``, one row per day.  Missing hours, missing
    columns, or unparseable rows raise :class:`DataError` naming the
    offending line or column; so does a file that is not UTF-8 text.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            return _read_dataset(csv.reader(fh), path)
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _read_dataset(reader, path) -> Dataset:
    """Parse the rows of :func:`load_dataset`'s file; errors name ``path``."""
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    header = [h.strip() for h in header]
    if header != _LONG_HEADER:
        missing = [c for c in _WIDE_HEADER if c not in header]
        if missing:
            raise DataError(f"{path}: missing column(s) {missing}")
        cols = [header.index(c) for c in _WIDE_HEADER]
        dates, price_rows, load_rows = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            where = f"{path}:{lineno}"
            if len(row) < len(header):
                raise DataError(f"{where}: expected {len(header)} fields, "
                                f"got {len(row)}")
            vals = [row[c] for c in cols]
            dates.append(_parse_date(vals[0], where))
            price_rows.append([_parse_float(v, where)
                               for v in vals[1 : 1 + HOURS]])
            load_rows.append([_parse_float(v, where)
                              for v in vals[1 + HOURS :]])
        if not dates:
            raise DataError(f"{path}: no data rows")
        return Dataset(dates=tuple(dates), prices=np.array(price_rows),
                       loads=np.array(load_rows))
    per_day: dict = {}
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        where = f"{path}:{lineno}"
        if len(row) != 4:
            raise DataError(f"{where}: expected 4 fields, got {len(row)}")
        day = _parse_date(row[0], where)
        hour = _parse_float(row[1], where)
        if not (hour.is_integer() and 0 <= hour < HOURS):
            raise DataError(f"{where}: hour '{row[1]}' is not an integer "
                            f"in 0..{HOURS - 1}")
        hour = int(hour)
        slot = per_day.setdefault(day, {})
        if hour in slot:
            raise DataError(f"{where}: duplicate hour {hour} for {day}")
        slot[hour] = (_parse_float(row[2], where),
                      _parse_float(row[3], where))
    if not per_day:
        raise DataError(f"{path}: no data rows")
    dates = sorted(per_day)
    for day in dates:
        missing_hours = sorted(set(range(HOURS)) - set(per_day[day]))
        if missing_hours:
            raise DataError(
                f"{path}: date {day} missing hour(s) {missing_hours}")
    prices = np.array([[per_day[d][h][0] for h in range(HOURS)]
                       for d in dates])
    loads = np.array([[per_day[d][h][1] for h in range(HOURS)]
                      for d in dates])
    return Dataset(dates=tuple(dates), prices=prices, loads=loads)


def write_dataset(ds: Dataset, path) -> None:
    """Write the wide-layout CSV.  Values use shortest round-trip formatting,
    so a write/load cycle reproduces the arrays bit-exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_WIDE_HEADER)
        for i, day in enumerate(ds.dates):
            row = [day.isoformat()]
            row += [repr(float(v)) for v in ds.prices[i]]
            row += [repr(float(v)) for v in ds.loads[i]]
            writer.writerow(row)


def split_and_normalize(ds: Dataset, split_date,
                        ) -> tuple[EmpiricalDistribution, EmpiricalDistribution, MinMaxScaler]:
    """Split by date and min-max normalize with train-fitted parameters.

    Days strictly before ``split_date`` train; the rest test.  The scaler
    never sees test rows, so test values may land outside [0, 1] (they are
    not clipped).  Atoms are 48-dimensional (normalized prices, then
    normalized loads), n = m = 24.
    """
    dates = np.array(ds.dates)
    train_mask = dates < split_date
    test_mask = ~train_mask
    if not train_mask.any() or not test_mask.any():
        raise DataError(
            f"split at {split_date} leaves an empty side "
            f"({int(train_mask.sum())} train, {int(test_mask.sum())} test days)"
        )
    scaler = MinMaxScaler.fit(ds.rows()[train_mask])
    train = EmpiricalDistribution(
        atoms=scaler.transform(ds.rows()[train_mask]), n=HOURS, m=HOURS)
    test = EmpiricalDistribution(
        atoms=scaler.transform(ds.rows()[test_mask]), n=HOURS, m=HOURS)
    return train, test, scaler


@dataclass(frozen=True)
class OosMetrics:
    """Out-of-sample risk of one estimator on one test set."""

    cvar: float
    mse: float
    alpha: float
    n_test: int
    cvar_original: float | None = None
    mse_original: float | None = None


def evaluate_out_of_sample(est: AffineEstimator, test: EmpiricalDistribution,
                           alpha: float,
                           scaler: MinMaxScaler | None = None) -> OosMetrics:
    """Per-day squared errors on the test atoms, summarized by CVaR and mean.

    Losses are sums over the 24 hours of squared normalized residuals.  When
    a scaler is supplied the original-unit metrics (residuals rescaled by
    the per-hour price span) are filled in as well.
    """
    if test.size < 1:
        raise ValueError("empty test set")
    losses = loss_batch(est, test)
    report = cvar_discrete(losses, alpha)
    cvar_orig = mse_orig = None
    if scaler is not None:
        resid = test.x - est.predict(test.y)
        resid_orig = resid * scaler.span[: test.n]
        losses_orig = np.einsum("ij,ij->i", resid_orig, resid_orig)
        cvar_orig = float(cvar_discrete(losses_orig, alpha).cvar)
        mse_orig = float(np.mean(losses_orig))
    return OosMetrics(cvar=float(report.cvar), mse=float(np.mean(losses)),
                      alpha=alpha, n_test=test.size,
                      cvar_original=cvar_orig, mse_original=mse_orig)


def json_number(value):
    """JSON-safe number: non-finite floats become null."""
    if value is None:
        return None
    value = float(value)
    return value if math.isfinite(value) else None


@dataclass(frozen=True)
class SweepRow:
    radius: float
    method: str
    in_sample_value: float
    oos_cvar: float
    oos_mse: float
    gamma: float
    solve_time: float
    status: str
    oos_cvar_original: float | None = None
    oos_mse_original: float | None = None


@dataclass(frozen=True)
class SweepReport:
    """One row per (radius, method); failed solves carry their status."""

    alpha: float
    rows: tuple

    CSV_HEADER = ("radius,method,in_sample,oos_cvar,oos_mse,gamma,"
                  "solve_time_s,status")

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.CSV_HEADER + "\n")
            for r in self.rows:
                fh.write(
                    f"{r.radius:.10g},{r.method},{r.in_sample_value:.10g},"
                    f"{r.oos_cvar:.10g},{r.oos_mse:.10g},{r.gamma:.10g},"
                    f"{r.solve_time:.6f},{r.status}\n"
                )

    def plot_data(self) -> dict:
        """Per-method (radius, oos_cvar) series for external plotting."""
        series: dict = {}
        for r in self.rows:
            series.setdefault(r.method, {"radius": [], "oos_cvar": []})
            series[r.method]["radius"].append(r.radius)
            series[r.method]["oos_cvar"].append(r.oos_cvar)
        return series

    def to_dict(self) -> dict:
        """The report as JSON values: non-finite numbers become null."""
        return {
            "alpha": self.alpha,
            "rows": [
                {
                    "radius": r.radius, "method": r.method,
                    "in_sample": json_number(r.in_sample_value),
                    "oos_cvar": json_number(r.oos_cvar),
                    "oos_mse": json_number(r.oos_mse),
                    "gamma": json_number(r.gamma),
                    "solve_time_s": r.solve_time, "status": r.status,
                    "oos_cvar_original": json_number(r.oos_cvar_original),
                    "oos_mse_original": json_number(r.oos_mse_original),
                }
                for r in self.rows
            ],
        }


def _sweep_task(train, test, alpha, radius, method, settings, scaler):
    t0 = time.perf_counter()
    try:
        if method == "dr_cvar":
            fit = fit_dr_cvar(train, RiskSpec(alpha=alpha, radius=radius),
                              settings=settings)
        else:
            fit = fit_dr_mse(train, radius, settings=settings)
        metrics = evaluate_out_of_sample(fit.estimator, test, alpha, scaler)
        return SweepRow(
            radius=radius, method=method, in_sample_value=fit.optimal_value,
            oos_cvar=metrics.cvar, oos_mse=metrics.mse, gamma=fit.gamma,
            solve_time=fit.solve_time, status="optimal",
            oos_cvar_original=metrics.cvar_original,
            oos_mse_original=metrics.mse_original,
        )
    except FitError as exc:
        return SweepRow(radius=radius, method=method,
                        in_sample_value=float("nan"), oos_cvar=float("nan"),
                        oos_mse=float("nan"), gamma=float("nan"),
                        solve_time=time.perf_counter() - t0,
                        status=exc.status)


def radius_sweep(train: EmpiricalDistribution, test: EmpiricalDistribution,
                 alpha: float, radii, settings: SolverSettings | None = None,
                 scaler: MinMaxScaler | None = None,
                 threads: int = 1) -> SweepReport:
    """Refit dr_cvar and dr_mse per radius and evaluate out of sample.

    Radii must be positive and sorted ascending, and ``threads`` at least
    1.  Failed solves are recorded with their status and the sweep
    continues.  Rows come back ordered by radius then method; numerical
    outputs do not depend on ``threads``.
    """
    if threads < 1:
        raise ValueError("threads must be at least 1")
    radii = [float(r) for r in radii]
    if any(r <= 0.0 for r in radii):
        raise ValueError("radii must be positive")
    if radii != sorted(radii):
        raise ValueError("radii must be sorted ascending")

    tasks = [(r, method) for r in radii for method in ("dr_cvar", "dr_mse")]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(_sweep_task, train, test, alpha, r, method,
                               settings, scaler)
                   for r, method in tasks]
        rows = [f.result() for f in futures]
    return SweepReport(alpha=alpha, rows=tuple(rows))


@dataclass(frozen=True)
class SpikyConfig:
    """Synthetic day-ahead market generator settings.

    Loads follow a smooth two-peak daily shape with weekly modulation and
    bounded uniform noise; prices are affine in load plus bounded noise,
    with price spikes hitting a random afternoon window on a ``spike_prob``
    fraction of days.  ``spike_ramp`` grows spike magnitude linearly across
    the horizon (later days spike harder), which makes a date-split test set
    systematically spikier than the training set.
    """

    days: int = 120
    spike_prob: float = 0.08
    spike_scale: float = 60.0
    noise: float = 5.0
    spike_ramp: float = 0.0
    start_date: datetime.date = field(default=datetime.date(2013, 5, 1))

    def __post_init__(self):
        if self.days < 1:
            raise ValueError("days must be positive")
        if not (0.0 <= self.spike_prob <= 1.0):
            raise ValueError("spike_prob must be in [0, 1]")
        if not all(math.isfinite(v) and v >= 0.0
                   for v in (self.spike_scale, self.noise, self.spike_ramp)):
            raise ValueError("spike_scale, noise and spike_ramp must be "
                             "finite and >= 0")


# Affine price/load relation of the generator (known to tests).
PRICE_SLOPE = 0.05
PRICE_INTERCEPT = -20.0


def synth_spiky(config: SpikyConfig, seed: int) -> Dataset:
    """Deterministic synthetic dataset; identical seeds give identical data.

    All random draws happen whether or not a spike fires, so datasets that
    differ only in ``spike_prob`` share their base curves draw for draw.
    """
    rng = np.random.default_rng(seed)
    hours = np.arange(HOURS)
    shape = (
        0.55
        + 0.30 * np.exp(-0.5 * ((hours - 8.5) / 2.2) ** 2)
        + 0.45 * np.exp(-0.5 * ((hours - 18.5) / 2.8) ** 2)
    )
    dates = tuple(config.start_date + datetime.timedelta(days=i)
                  for i in range(config.days))

    prices = np.empty((config.days, HOURS))
    loads = np.empty((config.days, HOURS))
    for i in range(config.days):
        weekly = 1.0 + 0.06 * np.sin(2.0 * np.pi * i / 7.0)
        load = 1400.0 * shape * weekly
        load = load + rng.uniform(-1.0, 1.0, HOURS) * (10.0 + config.noise)
        price = PRICE_SLOPE * load + PRICE_INTERCEPT
        price = price + rng.uniform(-1.0, 1.0, HOURS) * config.noise

        # spike draws consumed every day to keep streams aligned
        fire = rng.random() < config.spike_prob
        center = int(rng.integers(12, 21))
        width = int(rng.integers(1, 4))
        heavy = rng.pareto(2.5) + 1.0
        if fire:
            ramp = 1.0 + config.spike_ramp * i / max(config.days - 1, 1)
            lo = max(center - width // 2, 0)
            hi = min(lo + width, HOURS)
            price[lo:hi] += config.spike_scale * ramp * heavy

        prices[i] = price
        loads[i] = load
    return Dataset(dates=dates, prices=prices, loads=loads)
