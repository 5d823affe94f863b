"""Unit tests for the fitting layer and its dual cross-validation."""

import dataclasses
import math

import numpy as np
import pytest

from drcvar.conic import solve_sdp
from drcvar.data import SpikyConfig, split_and_normalize, synth_spiky
from drcvar.dual import worst_case_cvar, worst_case_mse_closed
from drcvar.estimate import (
    CROSS_CHECK_TOL,
    FitError,
    default_solver_settings,
    fit_dr_cvar,
    fit_dr_mse,
    fit_nominal_cvar,
    fit_nominal_mse,
)
from drcvar.model import (
    AffineEstimator,
    EmpiricalDistribution,
    RiskSpec,
    affine_to_quadratic,
    loss_batch,
)
from drcvar.risk import cvar_discrete
from drcvar.sdp import build_drcvar_sdp

SEED = 2718


def random_dist(rng, n=None, m=None, big_n=None):
    n = n or int(rng.integers(1, 4))
    m = m or int(rng.integers(1, 4))
    big_n = big_n or int(rng.integers(3, 15))
    return EmpiricalDistribution(atoms=rng.standard_normal((big_n, n + m)),
                                 n=n, m=m)


class TestDrCvar:
    def test_cross_check_gap_small(self):
        rng = np.random.default_rng(SEED)
        for _ in range(4):
            dist = random_dist(rng)
            spec = RiskSpec(alpha=float(rng.choice([0.2, 0.5, 1.0])),
                            radius=float(rng.choice([0.05, 0.3, 1.0])))
            fit = fit_dr_cvar(dist, spec)
            assert fit.cross_check_gap <= CROSS_CHECK_TOL * (
                1.0 + abs(fit.optimal_value))
            assert fit.method == "dr_cvar"
            assert fit.certificate == worst_case_cvar(
                affine_to_quadratic(fit.estimator), dist, spec)
            assert fit.cross_check_gap == abs(fit.optimal_value
                                              - fit.certificate.value)

    def test_tiny_radius_day_ahead_alpha_one(self):
        # gamma* grows like 1/r here; a dual path that subtracts
        # gamma ||z||^2 from a term of the same size loses the value
        ds = synth_spiky(SpikyConfig(days=7), seed=6)
        train, _, _ = split_and_normalize(ds, ds.dates[6])
        fit = fit_dr_cvar(train, RiskSpec(alpha=1.0, radius=1e-8))
        assert train.size == 6
        assert fit.cross_check_gap <= CROSS_CHECK_TOL * (
            1.0 + abs(fit.optimal_value))

    def test_single_atom_origin_boundary(self):
        dist = EmpiricalDistribution(atoms=np.zeros((1, 2)), n=1, m=1)
        for alpha, radius in [(1.0, 0.5), (0.5, 0.5)]:
            fit = fit_dr_cvar(dist, RiskSpec(alpha=alpha, radius=radius))
            expected = radius**2 / alpha
            assert abs(fit.optimal_value - expected) <= 1e-3 * expected
            assert abs(float(np.max(np.abs(fit.estimator.A)))) <= 1e-3
            assert abs(float(np.max(np.abs(fit.estimator.b)))) <= 1e-3
            assert fit.boundary_gamma

    def test_optimality_against_perturbations(self):
        # the fit must beat random nearby estimators in worst-case risk
        rng = np.random.default_rng(SEED + 1)
        dist = random_dist(rng, n=2, m=2, big_n=8)
        spec = RiskSpec(alpha=0.5, radius=0.3)
        fit = fit_dr_cvar(dist, spec)
        for _ in range(20):
            other = AffineEstimator(
                A=fit.estimator.A + 0.1 * rng.standard_normal((2, 2)),
                b=fit.estimator.b + 0.1 * rng.standard_normal(2))
            other_value = worst_case_cvar(affine_to_quadratic(other), dist,
                                          spec).value
            assert fit.optimal_value <= other_value + 1e-6

    def test_value_dominates_nominal_cvar(self):
        rng = np.random.default_rng(SEED + 2)
        dist = random_dist(rng)
        spec = RiskSpec(alpha=0.3, radius=0.4)
        fit = fit_dr_cvar(dist, spec)
        nominal = cvar_discrete(loss_batch(fit.estimator, dist),
                                spec.alpha).cvar
        assert fit.optimal_value >= nominal - 1e-8

    def test_monotone_in_radius_and_alpha(self):
        rng = np.random.default_rng(SEED + 3)
        dist = random_dist(rng, n=1, m=2, big_n=6)
        values_r = [fit_dr_cvar(dist, RiskSpec(alpha=0.25, radius=r)).optimal_value
                    for r in (1e-3, 1e-2, 0.1, 1.0)]
        assert all(a <= b + 1e-8 for a, b in zip(values_r, values_r[1:]))
        values_a = [fit_dr_cvar(dist, RiskSpec(alpha=a, radius=0.1)).optimal_value
                    for a in (0.1, 0.25, 0.5, 1.0)]
        assert all(a >= b - 1e-8 for a, b in zip(values_a, values_a[1:]))

    def test_zero_radius_routes_to_nominal(self):
        rng = np.random.default_rng(SEED + 4)
        dist = random_dist(rng)
        fit = fit_dr_cvar(dist, RiskSpec(alpha=1.0, radius=0.0))
        assert fit.method == "nominal_mse"
        fit2 = fit_dr_cvar(dist, RiskSpec(alpha=0.5, radius=0.0))
        assert fit2.method == "nominal_cvar"
        assert fit.certificate is None and fit2.certificate is None


class TestDrMse:
    def test_tiny_radius_recovers_least_squares(self):
        rng = np.random.default_rng(SEED + 5)
        dist = random_dist(rng, n=2, m=2, big_n=10)
        robust = fit_dr_mse(dist, 1e-8)
        nominal = fit_nominal_mse(dist)
        drift = (np.linalg.norm(robust.estimator.A - nominal.estimator.A)
                 + np.linalg.norm(robust.estimator.b - nominal.estimator.b))
        assert drift <= 1e-3
        assert robust.method == "dr_mse"

    def test_value_matches_closed_form_concentrated(self):
        # exactness domain of the closed form: scalar target (n = 1)
        rng = np.random.default_rng(SEED + 6)
        for _ in range(4):
            dist = random_dist(rng, n=1, m=int(rng.integers(1, 4)))
            r = float(rng.choice([0.1, 0.5, 1.0]))
            fit = fit_dr_mse(dist, r)
            closed = worst_case_mse_closed(fit.estimator, dist, r)
            assert abs(fit.optimal_value - closed) <= 1e-5 * (
                1.0 + abs(closed))

    def test_value_bounded_by_closed_form_everywhere(self):
        # with a spread residual spectrum the closed form strictly
        # overestimates (observed gaps up to ~8% on random fits); the fit
        # value must stay below it
        rng = np.random.default_rng(SEED + 7)
        for _ in range(3):
            dist = random_dist(rng, n=int(rng.integers(2, 4)),
                               m=int(rng.integers(1, 4)))
            fit = fit_dr_mse(dist, 0.5)
            closed = worst_case_mse_closed(fit.estimator, dist, 0.5)
            assert fit.optimal_value <= closed + 1e-8 * (1.0 + abs(closed))

    def test_single_atom_origin_radius_one(self):
        dist = EmpiricalDistribution(atoms=np.zeros((1, 2)), n=1, m=1)
        fit = fit_dr_mse(dist, 1.0)
        assert fit.optimal_value == pytest.approx(1.0, rel=1e-3)


class TestNominalMse:
    def test_perfect_fit(self):
        dist = EmpiricalDistribution(atoms=np.array([[0.0, 0.0], [1.0, 1.0]]),
                                     n=1, m=1)
        fit = fit_nominal_mse(dist)
        assert fit.estimator.A[0, 0] == pytest.approx(1.0, abs=1e-9)
        assert fit.estimator.b[0] == pytest.approx(0.0, abs=1e-9)
        assert fit.optimal_value == pytest.approx(0.0, abs=1e-12)

    def test_constant_regressor(self):
        atoms = np.array([[0.0, 3.0], [1.0, 3.0], [4.0, 3.0]])
        dist = EmpiricalDistribution(atoms=atoms, n=1, m=1)
        fit = fit_nominal_mse(dist)
        assert abs(fit.estimator.A[0, 0]) <= 1e-6
        assert fit.estimator.b[0] == pytest.approx(atoms[:, 0].mean(), abs=1e-6)

    def test_normal_equation_residual(self):
        rng = np.random.default_rng(SEED + 8)
        dist = random_dist(rng, n=2, m=3, big_n=40)
        fit = fit_nominal_mse(dist)
        # gradient of the empirical MSE at the solution vanishes
        resid = dist.x - fit.estimator.predict(dist.y)
        grad_a = -2.0 * resid.T @ dist.y / dist.size
        grad_b = -2.0 * resid.mean(axis=0)
        assert float(np.max(np.abs(grad_a))) <= 1e-8
        assert float(np.max(np.abs(grad_b))) <= 1e-8

    def test_minimum_norm_fit_of_a_short_window(self):
        # a 6-day day-ahead window: N = 6 atoms and m = 24 regressors, so
        # the centered regressors have rank 5 and A interpolates the atoms
        ds = synth_spiky(SpikyConfig(days=7), seed=1)
        dist, _, _ = split_and_normalize(ds, ds.dates[6])
        assert dist.size <= dist.m
        fit = fit_nominal_mse(dist)
        xc = dist.x - dist.x.mean(axis=0)
        yc = dist.y - dist.y.mean(axis=0)
        a_pinv = (np.linalg.pinv(yc) @ xc).T
        assert np.linalg.norm(fit.estimator.A - a_pinv) \
            <= 1e-10 * np.linalg.norm(a_pinv)
        assert fit.optimal_value <= 1e-20


class TestNominalCvar:
    def test_alpha_one_matches_mse(self):
        rng = np.random.default_rng(SEED + 9)
        dist = random_dist(rng, n=1, m=2, big_n=8)
        via_cvar = fit_nominal_cvar(dist, 1.0)
        via_mse = fit_nominal_mse(dist)
        assert abs(via_cvar.optimal_value - via_mse.optimal_value) <= 1e-6

    def test_minimax_two_atoms(self):
        # alpha <= 1/2 makes the objective the worst squared error; with
        # y = 0 on both atoms the best constant predictor is the midpoint
        dist = EmpiricalDistribution(atoms=np.array([[0.0, 0.0], [1.0, 0.0]]),
                                     n=1, m=1)
        fit = fit_nominal_cvar(dist, 0.5)
        assert fit.estimator.b[0] == pytest.approx(0.5, abs=1e-5)
        assert abs(fit.estimator.A[0, 0]) <= 1e-4
        assert fit.optimal_value == pytest.approx(0.25, abs=1e-6)

    def test_brute_force_grid_oracle(self):
        # coarse grid over (A, b) cannot beat the conic fit
        rng = np.random.default_rng(SEED + 10)
        dist = random_dist(rng, n=1, m=1, big_n=5)
        alpha = 0.4
        fit = fit_nominal_cvar(dist, alpha)
        grid = np.linspace(-2.0, 2.0, 41)
        best = math.inf
        for a in grid:
            for b in grid:
                est = AffineEstimator(A=[[a]], b=[b])
                best = min(best,
                           cvar_discrete(loss_batch(est, dist), alpha).cvar)
        assert fit.optimal_value <= best + 1e-6

    def test_matches_dr_cvar_tiny_radius(self):
        rng = np.random.default_rng(SEED + 11)
        dist = random_dist(rng, n=1, m=2, big_n=6)
        alpha = 0.5
        nominal = fit_nominal_cvar(dist, alpha)
        robust = fit_dr_cvar(dist, RiskSpec(alpha=alpha, radius=1e-8))
        assert abs(nominal.optimal_value - robust.optimal_value) <= 1e-3

    def test_empirical_recompute_matches(self):
        rng = np.random.default_rng(SEED + 12)
        dist = random_dist(rng)
        fit = fit_nominal_cvar(dist, 0.3)
        assert fit.cross_check_gap <= 1e-6 * (1.0 + abs(fit.optimal_value))


def test_day_ahead_alpha_one_at_a_tiny_radius_is_optimal():
    # the day-ahead reference data, N = 30, alpha = 1, r = 1e-8: from an
    # identity start gamma would creep toward its optimum of order 1/r by
    # a few percent per iteration and the fit would end max_iter after
    # 200; the builder's start scale puts gamma at that scale from the
    # first iteration
    ds = synth_spiky(SpikyConfig(days=40), seed=1)
    train, _, _ = split_and_normalize(ds, ds.dates[30])
    res = fit_dr_cvar(train, RiskSpec(alpha=1.0, radius=1e-8))
    assert res.iterations <= 40
    assert res.cross_check_gap <= CROSS_CHECK_TOL * (1.0 + abs(res.optimal_value))


def day_ahead_window(big_n):
    """The reference data's first big_n days: n = m = 24, N = big_n."""
    ds = synth_spiky(SpikyConfig(days=big_n + 10), seed=1)
    return split_and_normalize(ds, ds.dates[big_n])[0]


def span_basis(rows):
    """Orthonormal basis of the span of the rows, by SVD."""
    rank = np.linalg.matrix_rank(rows)
    return np.linalg.svd(rows)[2][:rank].T


def recorded_builds(monkeypatch):
    """The distributions the fit hands build_drcvar_sdp, in call order."""
    built = []

    def build(dist, spec):
        built.append(dist)
        return build_drcvar_sdp(dist, spec)

    monkeypatch.setattr("drcvar.estimate.build_drcvar_sdp", build)
    return built


class TestObservationSpan:
    # observations spanning r < m dimensions and targets spanning k < n: the
    # fit solves the program on the reduced atoms (U'x_i, V'y_i) and returns
    # A = U A~ V', b = U b~

    @pytest.mark.parametrize("big_n", [6, 12])
    def test_reduced_fit_matches_the_full_program(self, big_n):
        train = day_ahead_window(big_n)
        v_basis, u_basis = span_basis(train.y), span_basis(train.x)
        assert v_basis.shape[1] < train.m and u_basis.shape[1] < train.n
        for alpha in (0.1, 1.0):
            for radius in (0.0, 1e-4, 1e-2, 1.0):
                spec = RiskSpec(alpha=alpha, radius=radius)
                fit = (fit_nominal_cvar(train, alpha) if radius == 0.0
                       else fit_dr_cvar(train, spec))
                full = solve_sdp(build_drcvar_sdp(train, spec))
                assert full.status == "optimal"
                value = fit.optimal_value
                assert abs(value - full.objective_value) \
                    <= 1e-7 * (1.0 + abs(value)), (alpha, radius)
                a_mat, b_vec = fit.estimator.A, fit.estimator.b
                assert np.linalg.norm(a_mat - a_mat @ v_basis @ v_basis.T) \
                    <= 1e-12 * np.linalg.norm(a_mat)
                assert np.linalg.norm(a_mat - u_basis @ u_basis.T @ a_mat) \
                    <= 1e-12 * np.linalg.norm(a_mat)
                assert np.linalg.norm(b_vec - u_basis @ u_basis.T @ b_vec) \
                    <= 1e-12 * np.linalg.norm(b_vec)

    @pytest.mark.parametrize("radius", [0.0, 0.3])
    def test_targets_in_a_subspace_reduce_the_targets_only(
            self, monkeypatch, radius):
        # N = 30 > m with full-rank y, and targets in a 2-dim subspace of
        # R^4: the program is built on (U'x_i, y_i)
        rng = np.random.default_rng(SEED + 17)
        y = rng.standard_normal((30, 3))
        x = (y @ rng.standard_normal((3, 2))
             + 0.5 * rng.standard_normal((30, 2))) @ rng.standard_normal(
                 (2, 4))
        dist = EmpiricalDistribution(atoms=np.hstack([x, y]), n=4, m=3)
        spec = RiskSpec(alpha=0.5, radius=radius)
        built = recorded_builds(monkeypatch)
        fit = (fit_nominal_cvar(dist, 0.5) if radius == 0.0
               else fit_dr_cvar(dist, spec))
        assert len(built) == 1
        assert (built[0].n, built[0].m) == (2, 3)
        np.testing.assert_array_equal(built[0].y, dist.y)
        full = solve_sdp(build_drcvar_sdp(dist, spec))
        assert full.status == "optimal"
        value = fit.optimal_value
        assert abs(value - full.objective_value) <= 1e-7 * (1.0 + abs(value))
        u_basis = span_basis(x)
        a_mat = fit.estimator.A
        assert np.linalg.norm(a_mat - u_basis @ u_basis.T @ a_mat) \
            <= 1e-12 * np.linalg.norm(a_mat)

    @pytest.mark.parametrize("radius", [0.0, 0.3])
    def test_zero_targets_keep_the_callers_distribution(self, monkeypatch,
                                                        radius):
        # rank-0 targets and full-rank y: there is no span to reduce to on
        # either side, and the fit solves the caller's program as it is
        rng = np.random.default_rng(SEED + 18)
        dist = EmpiricalDistribution(
            atoms=np.hstack([np.zeros((8, 2)), rng.standard_normal((8, 3))]),
            n=2, m=3)
        spec = RiskSpec(alpha=0.5, radius=radius)
        built = recorded_builds(monkeypatch)
        fit = (fit_nominal_cvar(dist, 0.5) if radius == 0.0
               else fit_dr_cvar(dist, spec))
        assert len(built) == 1 and built[0] is dist
        direct = solve_sdp(build_drcvar_sdp(dist, spec))
        assert fit.optimal_value == direct.objective_value
        assert fit.iterations == direct.iterations

    def test_rank_deficient_window_passes_its_cross_check(self):
        # the first 6-day window of a 25-day history, normalized on its own
        # days, as perfbench's fit_n6 builds it: 6 atoms of rank 5, one of
        # them y = 0.  A basis with a column outside the span of the y_i (a
        # full-column QR basis, for one) leaves that column of A~ free at
        # radius zero, and the empirical CVaR of the returned A then misses
        # the conic value
        ds = synth_spiky(SpikyConfig(days=25), seed=1)
        mask = np.zeros(ds.days, dtype=bool)
        mask[:7] = True
        train, _, _ = split_and_normalize(ds.subset(mask), ds.dates[6])
        assert train.size == 6
        assert np.linalg.matrix_rank(train.y) == 5
        fit = fit_nominal_cvar(train, 0.1)
        assert fit.cross_check_gap <= CROSS_CHECK_TOL * (
            1.0 + abs(fit.optimal_value))

    @pytest.mark.parametrize("radius", [0.0, 0.3])
    def test_zero_observations_keep_the_full_program(self, monkeypatch,
                                                     radius):
        # rank 0: there is no span to reduce to, and the fit solves the
        # caller's program as it is
        rng = np.random.default_rng(SEED + 16)
        dist = EmpiricalDistribution(
            atoms=np.hstack([rng.standard_normal((4, 2)), np.zeros((4, 3))]),
            n=2, m=3)
        spec = RiskSpec(alpha=0.5, radius=radius)
        built = recorded_builds(monkeypatch)
        fit = (fit_nominal_cvar(dist, 0.5) if radius == 0.0
               else fit_dr_cvar(dist, spec))
        assert len(built) == 1 and built[0] is dist
        direct = solve_sdp(build_drcvar_sdp(dist, spec))
        assert fit.optimal_value == direct.objective_value
        assert fit.iterations == direct.iterations

    def test_full_rank_observations_keep_the_callers_distribution(
            self, monkeypatch):
        # N = 30 >= m: rank 24, so the program is the caller's, unreduced
        train = day_ahead_window(30)
        assert np.linalg.matrix_rank(train.y) == train.m

        class Built(Exception):
            pass

        def build(dist, spec):
            built.append(dist)
            raise Built

        built = []
        monkeypatch.setattr("drcvar.estimate.build_drcvar_sdp", build)
        with pytest.raises(Built):
            fit_dr_cvar(train, RiskSpec(alpha=0.1, radius=0.01))
        assert len(built) == 1 and built[0] is train


class TestSettingsAndErrors:
    def test_profiles(self):
        assert default_solver_settings("strict").tol == 1e-8
        assert default_solver_settings("fast").tol == 1e-6
        with pytest.raises(ValueError):
            default_solver_settings("sloppy")

    def test_fit_error_carries_solution(self):
        rng = np.random.default_rng(SEED + 13)
        dist = random_dist(rng, n=1, m=1, big_n=4)
        from drcvar.conic import SolverSettings

        with pytest.raises(FitError) as info:
            fit_dr_cvar(dist, RiskSpec(alpha=0.5, radius=0.5),
                        settings=SolverSettings(max_iter=2))
        assert info.value.solution is not None
        assert info.value.solution.status == "max_iter"
        assert info.value.status == "max_iter"

    @pytest.mark.parametrize("path", ["robust", "nominal"])
    def test_no_estimated_coordinate_rejected(self, path):
        # n = 0 leaves the SDP no estimator rows; the builder names n
        rng = np.random.default_rng(SEED + 15)
        dist = EmpiricalDistribution(atoms=rng.standard_normal((5, 2)), n=0,
                                     m=2)
        with pytest.raises(ValueError, match="n = 0"):
            if path == "robust":
                fit_dr_cvar(dist, RiskSpec(alpha=0.5, radius=0.5))
            else:
                fit_nominal_cvar(dist, 0.5)

    @pytest.mark.parametrize("path", ["robust", "nominal"])
    def test_cross_check_bound_enforced(self, monkeypatch, path):
        # an optimal solve whose value its cross-check (the dual path, or
        # the empirical CVaR at radius zero) does not reproduce is a defect,
        # reported under its own status
        def shifted_dual(qf, dist, spec):
            cert = worst_case_cvar(qf, dist, spec)
            return dataclasses.replace(cert, value=cert.value + 1e-3)

        def shifted_cvar(losses, alpha):
            report = cvar_discrete(losses, alpha)
            return dataclasses.replace(report, cvar=report.cvar + 1e-3)

        rng = np.random.default_rng(SEED + 14)
        dist = random_dist(rng, n=1, m=1, big_n=4)
        if path == "robust":
            monkeypatch.setattr("drcvar.estimate.worst_case_cvar",
                                shifted_dual)
            fit, args = fit_dr_cvar, (dist, RiskSpec(alpha=0.5, radius=0.5))
        else:
            monkeypatch.setattr("drcvar.estimate.cvar_discrete", shifted_cvar)
            fit, args = fit_nominal_cvar, (dist, 0.5)
        with pytest.raises(FitError) as info:
            fit(*args)
        assert info.value.status == "cross_check"
        assert info.value.solution.status == "optimal"
