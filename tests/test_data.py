"""Unit tests for dataset handling, normalization, sweeps, and the generator."""

import datetime

import numpy as np
import pytest

from drcvar.conic import SolverSettings
from drcvar.data import (
    DataError,
    Dataset,
    MinMaxScaler,
    SpikyConfig,
    PRICE_INTERCEPT,
    PRICE_SLOPE,
    evaluate_out_of_sample,
    load_dataset,
    radius_sweep,
    split_and_normalize,
    synth_spiky,
    write_dataset,
)
from drcvar.estimate import fit_nominal_cvar, fit_nominal_mse
from drcvar.model import AffineEstimator, EmpiricalDistribution

JULY = datetime.date(2013, 7, 1)


def tiny_dataset(days=4, seed=0):
    cfg = SpikyConfig(days=days, spike_prob=0.0, noise=2.0)
    return synth_spiky(cfg, seed=seed)


class TestDataset:
    def test_dates_must_increase(self):
        base = tiny_dataset(3)
        with pytest.raises(DataError):
            Dataset(dates=(base.dates[0], base.dates[0], base.dates[2]),
                    prices=base.prices, loads=base.loads)

    def test_shapes_checked(self):
        base = tiny_dataset(3)
        with pytest.raises(DataError):
            Dataset(dates=base.dates, prices=base.prices[:, :10],
                    loads=base.loads)


class TestLoadDataset:
    def test_round_trip_bit_exact(self, tmp_path):
        ds = tiny_dataset(5, seed=3)
        path = tmp_path / "data.csv"
        write_dataset(ds, path)
        loaded = load_dataset(path)
        assert loaded.dates == ds.dates
        assert np.array_equal(loaded.prices, ds.prices)
        assert np.array_equal(loaded.loads, ds.loads)

    def test_two_day_file(self, tmp_path):
        ds = tiny_dataset(2)
        path = tmp_path / "two.csv"
        write_dataset(ds, path)
        assert load_dataset(path).days == 2

    def test_missing_column_named(self, tmp_path):
        ds = tiny_dataset(2)
        path = tmp_path / "bad.csv"
        write_dataset(ds, path)
        lines = path.read_text().splitlines()
        header = lines[0].replace("p07,", "")
        rows = [",".join(ln.split(",")[:8] + ln.split(",")[9:])
                for ln in lines[1:]]
        path.write_text("\n".join([header] + rows) + "\n")
        with pytest.raises(DataError, match="p07"):
            load_dataset(path)

    def test_unparseable_row_is_located(self, tmp_path):
        ds = tiny_dataset(2)
        path = tmp_path / "bad.csv"
        write_dataset(ds, path)
        text = path.read_text().splitlines()
        fields = text[2].split(",")
        fields[3] = "oops"
        text[2] = ",".join(fields)
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(DataError, match=":3"):
            load_dataset(path)

    def test_long_format_pivots(self, tmp_path):
        ds = tiny_dataset(2, seed=9)
        path = tmp_path / "long.csv"
        with open(path, "w") as fh:
            fh.write("date,hour,price,load\n")
            for i, day in enumerate(ds.dates):
                for h in range(24):
                    fh.write(f"{day},{h},{float(ds.prices[i, h])!r},{float(ds.loads[i, h])!r}\n")
        loaded = load_dataset(path)
        assert np.array_equal(loaded.prices, ds.prices)
        assert np.array_equal(loaded.loads, ds.loads)

    def test_long_format_missing_hour(self, tmp_path):
        ds = tiny_dataset(1)
        path = tmp_path / "long.csv"
        with open(path, "w") as fh:
            fh.write("date,hour,price,load\n")
            for h in range(23):  # hour 23 missing
                fh.write(f"{ds.dates[0]},{h},{float(ds.prices[0, h])!r},{float(ds.loads[0, h])!r}\n")
        with pytest.raises(DataError, match=r"missing hour.*23"):
            load_dataset(path)

    @pytest.mark.parametrize("hour", ["nan", "inf", "3.5", "24"])
    def test_long_format_hour_must_be_an_hour(self, tmp_path, hour):
        ds = tiny_dataset(1)
        path = tmp_path / "long.csv"
        with open(path, "w") as fh:
            fh.write("date,hour,price,load\n")
            for h in range(24):
                text = hour if h == 5 else str(h)
                fh.write(f"{ds.dates[0]},{text},{float(ds.prices[0, h])!r},{float(ds.loads[0, h])!r}\n")
        with pytest.raises(DataError, match=":7: hour"):
            load_dataset(path)


class TestScaler:
    def test_midpoint_example(self):
        scaler = MinMaxScaler.fit(np.array([[0.0], [10.0]]))
        assert scaler.transform(np.array([[5.0]]))[0, 0] == pytest.approx(0.5)

    def test_constant_coordinate_flagged(self):
        rows = np.array([[1.0, 3.0], [2.0, 3.0]])
        with pytest.warns(UserWarning, match="constant"):
            scaler = MinMaxScaler.fit(rows)
        out = scaler.transform(rows)
        assert np.allclose(out[:, 1], 0.5)
        assert np.array_equal(scaler.transform(rows[0]), out[0])

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(8)
        rows = rng.uniform(-5.0, 20.0, size=(12, 7))
        scaler = MinMaxScaler.fit(rows)
        back = scaler.inverse_transform(scaler.transform(rows))
        assert np.max(np.abs(back - rows)) <= 1e-12

    def test_test_rows_not_clipped(self):
        scaler = MinMaxScaler.fit(np.array([[0.0], [1.0]]))
        out = scaler.transform(np.array([[2.5]]))
        assert out[0, 0] == pytest.approx(2.5)


class TestSplit:
    def test_split_sides_and_dims(self):
        ds = tiny_dataset(10)
        split = ds.dates[7]
        train, test, scaler = split_and_normalize(ds, split)
        assert train.size == 7
        assert test.size == 3
        assert train.n == train.m == 24
        assert np.all(train.atoms >= -1e-12)
        assert np.all(train.atoms <= 1.0 + 1e-12)

    def test_empty_side_rejected(self):
        ds = tiny_dataset(4)
        with pytest.raises(DataError):
            split_and_normalize(ds, ds.dates[0])
        with pytest.raises(DataError):
            split_and_normalize(ds, ds.dates[-1] + datetime.timedelta(days=1))


class TestEvaluate:
    def test_perfect_estimator(self):
        rng = np.random.default_rng(4)
        a_mat = rng.standard_normal((2, 2))
        b_vec = rng.standard_normal(2)
        y = rng.standard_normal((6, 2))
        x = y @ a_mat.T + b_vec
        test = EmpiricalDistribution(atoms=np.hstack([x, y]), n=2, m=2)
        metrics = evaluate_out_of_sample(AffineEstimator(A=a_mat, b=b_vec),
                                         test, 0.5)
        assert metrics.cvar == pytest.approx(0.0, abs=1e-18)
        assert metrics.mse == pytest.approx(0.0, abs=1e-18)

    def test_alpha_one_equals_mse(self):
        rng = np.random.default_rng(5)
        test = EmpiricalDistribution(atoms=rng.standard_normal((9, 3)),
                                     n=1, m=2)
        est = AffineEstimator(A=rng.standard_normal((1, 2)),
                              b=rng.standard_normal(1))
        metrics = evaluate_out_of_sample(est, test, 1.0)
        assert metrics.cvar == pytest.approx(metrics.mse, abs=1e-12)

    def test_small_alpha_is_max(self):
        rng = np.random.default_rng(6)
        test = EmpiricalDistribution(atoms=rng.standard_normal((9, 3)),
                                     n=1, m=2)
        est = AffineEstimator(A=np.zeros((1, 2)), b=np.zeros(1))
        metrics = evaluate_out_of_sample(est, test, 0.01)
        losses = (test.x[:, 0]) ** 2
        assert metrics.cvar == pytest.approx(float(losses.max()))

    def test_original_units(self):
        rng = np.random.default_rng(7)
        scaler = MinMaxScaler(minimum=np.zeros(4), maximum=2.0 * np.ones(4))
        test = EmpiricalDistribution(atoms=rng.uniform(0, 1, (5, 4)), n=2, m=2)
        est = AffineEstimator(A=np.zeros((2, 2)), b=np.zeros(2))
        metrics = evaluate_out_of_sample(est, test, 1.0, scaler)
        assert metrics.mse_original == pytest.approx(4.0 * metrics.mse)


class TestRadiusSweep:
    def _dists(self, seed=10):
        rng = np.random.default_rng(seed)
        train = EmpiricalDistribution(atoms=rng.standard_normal((8, 2)),
                                      n=1, m=1)
        test = EmpiricalDistribution(atoms=rng.standard_normal((5, 2)),
                                     n=1, m=1)
        return train, test

    def test_row_count_and_order(self):
        train, test = self._dists()
        report = radius_sweep(train, test, 0.4, [0.05, 0.5])
        assert len(report.rows) == 4
        assert [(r.radius, r.method) for r in report.rows] == [
            (0.05, "dr_cvar"), (0.05, "dr_mse"),
            (0.5, "dr_cvar"), (0.5, "dr_mse"),
        ]

    def test_small_radius_near_nominal(self):
        train, test = self._dists()
        report = radius_sweep(train, test, 0.4, [1e-6])
        nominal_cvar = fit_nominal_cvar(train, 0.4).optimal_value
        nominal_mse = fit_nominal_mse(train).optimal_value
        by_method = {r.method: r for r in report.rows}
        assert [r.status for r in report.rows] == ["optimal", "optimal"]
        assert abs(by_method["dr_cvar"].in_sample_value - nominal_cvar) <= 1e-3
        assert abs(by_method["dr_mse"].in_sample_value - nominal_mse) <= 1e-3

    def test_in_sample_monotone(self):
        train, test = self._dists(11)
        report = radius_sweep(train, test, 0.5, [0.01, 0.1, 1.0])
        for method in ("dr_cvar", "dr_mse"):
            vals = [r.in_sample_value for r in report.rows
                    if r.method == method]
            assert all(a <= b + 1e-8 for a, b in zip(vals, vals[1:]))

    def test_deterministic_and_thread_invariant(self):
        train, test = self._dists(12)
        r1 = radius_sweep(train, test, 0.4, [0.1, 1.0])
        r2 = radius_sweep(train, test, 0.4, [0.1, 1.0])
        r4 = radius_sweep(train, test, 0.4, [0.1, 1.0], threads=4)
        for a, b in zip(r1.rows, r2.rows):
            assert a.in_sample_value == b.in_sample_value
            assert a.oos_cvar == b.oos_cvar
        for a, b in zip(r1.rows, r4.rows):
            assert a.in_sample_value == b.in_sample_value
            assert a.oos_cvar == b.oos_cvar

    def test_failed_rows_are_timed(self):
        train, test = self._dists(15)
        report = radius_sweep(train, test, 0.4, [0.1],
                              settings=SolverSettings(max_iter=1))
        assert [r.status for r in report.rows] == ["max_iter", "max_iter"]
        assert all(r.solve_time > 0.0 for r in report.rows)

    def test_csv_schema(self, tmp_path):
        train, test = self._dists(13)
        report = radius_sweep(train, test, 0.4, [0.1])
        path = tmp_path / "sweep.csv"
        report.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == ("radius,method,in_sample,oos_cvar,oos_mse,"
                            "gamma,solve_time_s,status")
        assert len(lines) == 3

    def test_validation(self):
        train, test = self._dists(14)
        with pytest.raises(ValueError):
            radius_sweep(train, test, 0.4, [0.0, 0.1])
        with pytest.raises(ValueError):
            radius_sweep(train, test, 0.4, [1.0, 0.1])

    @pytest.mark.parametrize("threads", [0, -3])
    def test_rejects_fewer_than_one_thread(self, threads):
        # a thread count below 1 is an error, not a serial sweep
        train, test = self._dists(14)
        with pytest.raises(ValueError, match="threads"):
            radius_sweep(train, test, 0.4, [0.1], threads=threads)


class TestSynthSpiky:
    def test_same_seed_identical(self, tmp_path):
        cfg = SpikyConfig(days=30)
        a = synth_spiky(cfg, seed=7)
        b = synth_spiky(cfg, seed=7)
        assert np.array_equal(a.prices, b.prices)
        assert np.array_equal(a.loads, b.loads)
        pa = tmp_path / "a.csv"
        pb = tmp_path / "b.csv"
        write_dataset(a, pa)
        write_dataset(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_no_spikes_means_affine_plus_bounded_noise(self):
        cfg = SpikyConfig(days=40, spike_prob=0.0, noise=3.0)
        ds = synth_spiky(cfg, seed=1)
        resid = ds.prices - (PRICE_SLOPE * ds.loads + PRICE_INTERCEPT)
        assert np.max(np.abs(resid)) <= 3.0 + 1e-9

    def test_spike_frequency_binomial_band(self):
        prob = 0.12
        days = 1000
        spiked = synth_spiky(SpikyConfig(days=days, spike_prob=prob,
                                         noise=1.0), seed=42)
        clean = synth_spiky(SpikyConfig(days=days, spike_prob=0.0,
                                        noise=1.0), seed=42)
        # aligned draws: spike days are exactly where the prices differ
        hit = np.any(spiked.prices != clean.prices, axis=1)
        freq = float(np.mean(hit))
        band = 3.0 * np.sqrt(prob * (1.0 - prob) / days)
        assert abs(freq - prob) <= band

    def test_ramp_raises_late_spikes(self):
        cfg = SpikyConfig(days=120, spike_prob=0.5, spike_scale=50.0,
                          noise=0.0, spike_ramp=3.0)
        ds = synth_spiky(cfg, seed=5)
        clean = synth_spiky(SpikyConfig(days=120, spike_prob=0.0,
                                        spike_scale=50.0, noise=0.0,
                                        spike_ramp=3.0), seed=5)
        excess = np.max(ds.prices - clean.prices, axis=1)
        first = excess[:40][excess[:40] > 0]
        last = excess[80:][excess[80:] > 0]
        assert last.mean() > first.mean()
