"""Unit tests for the interior-point solver.

Analytic instances with known optima, randomized KKT-consistent instances
(optimum constructed from complementary primal/dual pairs), certificate
statuses, determinism, and independent recomputation of the reported
residuals.
"""

import numpy as np
import pytest

from drcvar import conic
from drcvar.conic import SdpSolution, SolverSettings, certify, solve_sdp
from drcvar.data import SpikyConfig, split_and_normalize, synth_spiky
from drcvar.model import EmpiricalDistribution, RiskSpec
from drcvar.sdp import LmiStack, SdpProblem, build_drcvar_sdp


def lmi_problem(c, blocks_spec):
    """Assemble an SdpProblem from dense (M0, [Mk]) block descriptions, read
    from their lower triangles; the blocks of one size form one stack, the
    stacks in order of size."""
    k_total = len(c)
    stacks = []
    for size in sorted({m0.shape[0] for m0, _ in blocks_spec}):
        members = [spec for spec in blocks_spec if spec[0].shape[0] == size]
        entries = []
        for i, (_, mats) in enumerate(members):
            for k, mat in enumerate(mats):
                low = [(p, q) for p in range(size) for q in range(p + 1)
                       if mat[p, q] != 0.0]
                entries += [(i, k, p, q, mat[p, q]) for p, q in low]
                entries += [(i, k, q, p, mat[p, q]) for p, q in low if p != q]
        arr = np.array(entries, dtype=float).reshape(-1, 5)
        member, var, p, q = arr[:, :4].T.astype(np.int64)
        m0 = np.stack([np.tril(m0) + np.tril(m0, -1).T for m0, _ in members])
        stacks.append(LmiStack(f"size{size}", m0, member, var, p, q,
                               arr[:, 4]))
    return SdpProblem(num_vars=k_total, objective=np.asarray(c, dtype=float),
                      stacks=tuple(stacks), var_layout={})


def random_kkt_instance(seed):
    """Instance with a known optimum built from complementary (S*, Z*)."""
    rng = np.random.default_rng(seed)
    sizes = [int(rng.integers(1, 9)) for _ in range(int(rng.integers(1, 4)))]
    symdim = sum(s * (s + 1) // 2 for s in sizes)
    k_total = int(rng.integers(2, min(11, max(3, symdim))))
    mats = []
    for s in sizes:
        ms = []
        for _ in range(k_total):
            base = rng.standard_normal((s, s))
            ms.append((base + base.T) / 2.0)
        mats.append(ms)
    x_star = rng.standard_normal(k_total)
    blocks_spec = []
    z_star = []
    for j, s in enumerate(sizes):
        qm, _ = np.linalg.qr(rng.standard_normal((s, s)))
        rank = int(rng.integers(0, s + 1))
        diag_s = np.concatenate([rng.uniform(0.5, 2.0, rank),
                                 np.zeros(s - rank)])
        diag_z = np.concatenate([np.zeros(rank),
                                 rng.uniform(0.5, 2.0, s - rank)])
        s_mat = qm @ np.diag(diag_s) @ qm.T
        z_mat = qm @ np.diag(diag_z) @ qm.T
        m0 = s_mat - sum(x_star[k] * mats[j][k] for k in range(k_total))
        blocks_spec.append((m0, mats[j]))
        z_star.append(z_mat)
    c = np.array([sum(np.sum(mats[j][k] * z_star[j]) for j in range(len(sizes)))
                  for k in range(k_total)])
    return lmi_problem(c, blocks_spec), float(c @ x_star)


class TestAnalyticInstances:
    def test_min_x_offdiag_ones(self):
        # minimize x s.t. [[x,1],[1,x]] PSD -> x* = 1
        m0 = np.array([[0.0, 1.0], [1.0, 0.0]])
        prob = lmi_problem([1.0], [(m0, [np.eye(2)])])
        sol = solve_sdp(prob)
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(1.0, abs=1e-6)

    def test_diagonal_lp(self):
        # minimize x+y s.t. diag(x-1, y-2) PSD -> 3
        b1 = (np.array([[-1.0]]), [np.array([[1.0]]), np.array([[0.0]])])
        b2 = (np.array([[-2.0]]), [np.array([[0.0]]), np.array([[1.0]])])
        prob = lmi_problem([1.0, 1.0], [b1, b2])
        sol = solve_sdp(prob)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(3.0, abs=1e-6)
        assert np.allclose(sol.x, [1.0, 2.0], atol=1e-6)

    def test_infeasible(self):
        # constant block indefinite in a direction no variable can fix
        m0 = np.diag([-1.0, 0.0])
        m1 = np.diag([0.0, 1.0])
        prob = lmi_problem([1.0], [(m0, [m1])])
        sol = solve_sdp(prob)
        assert sol.status == "infeasible"

    def test_unbounded(self):
        # minimize -x s.t. [x] PSD: objective unbounded below
        prob = lmi_problem([-1.0], [(np.array([[0.0]]), [np.array([[1.0]])])])
        sol = solve_sdp(prob)
        assert sol.status == "unbounded"


class TestRandomKkt:
    @pytest.mark.parametrize("seed", range(25))
    def test_reaches_known_optimum(self, seed):
        prob, opt = random_kkt_instance(seed)
        sol = solve_sdp(prob)
        assert sol.status == "optimal"
        assert abs(sol.objective_value - opt) <= 1e-6 * (1.0 + abs(opt))


class TestReporting:
    def test_residuals_recomputed_independently(self):
        prob, _ = random_kkt_instance(123)
        sol = solve_sdp(prob)
        gap, pinf, dinf = certify(prob, sol.x, sol.slack_blocks,
                                  sol.dual_blocks)
        assert abs(gap - sol.duality_gap) <= 1e-10 * (1.0 + abs(gap))
        assert abs(pinf - sol.primal_infeasibility) <= 1e-10
        assert abs(dinf - sol.dual_infeasibility) <= 1e-10

    def test_gap_matches_objective_difference(self):
        prob, _ = random_kkt_instance(321)
        sol = solve_sdp(prob)
        dobj = -sum(np.sum(st.m0 * z)
                    for st, z in zip(prob.stacks, sol.dual_blocks))
        assert sol.objective_value - dobj == pytest.approx(sol.duality_gap,
                                                           abs=1e-7)

    def test_deterministic(self):
        prob, _ = random_kkt_instance(7)
        sol1 = solve_sdp(prob)
        sol2 = solve_sdp(prob)
        assert sol1.iterations == sol2.iterations
        assert np.array_equal(sol1.x, sol2.x)
        for a, b in zip(sol1.dual_blocks, sol2.dual_blocks):
            assert np.array_equal(a, b)

    def test_optimal_closes_objective_gap(self):
        # a robust fit at a tiny radius drives gamma toward 1/radius; the
        # solver may only report optimal once primal and dual objectives
        # agree, not merely once <S, Z> is small
        rng = np.random.default_rng(2723)
        dist = EmpiricalDistribution(atoms=rng.standard_normal((10, 4)),
                                     n=2, m=2)
        prob = build_drcvar_sdp(dist, RiskSpec(alpha=1.0, radius=1e-8))
        settings = SolverSettings()
        sol = solve_sdp(prob, settings)
        assert sol.status == "optimal"
        dobj = -sum(np.sum(st.m0 * z)
                    for st, z in zip(prob.stacks, sol.dual_blocks))
        pobj = sol.objective_value
        scale = max(1.0, 0.5 * (abs(pobj) + abs(dobj)))
        assert abs(pobj - dobj) / scale <= settings.tol

    def test_eigh_failure_falls_back_to_svd(self, monkeypatch):
        # LAPACK's eigensolvers can fail to converge on finite iterates; the
        # scaling must fall back to the SVD of P rather than end 'numerical'
        prob, opt = random_kkt_instance(3)
        eigh, svd = np.linalg.eigh, np.linalg.svd
        calls, svd_calls = [], []

        def flaky(a, *args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(a, *args, **kwargs)

        def counted(a, *args, **kwargs):
            svd_calls.append(1)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", flaky)
        monkeypatch.setattr(np.linalg, "svd", counted)
        sol = solve_sdp(prob)
        assert len(calls) > 1
        assert len(svd_calls) == 1
        assert sol.status == "optimal"
        assert abs(sol.objective_value - opt) <= 1e-6 * (1.0 + abs(opt))

    def test_ridge_exhaustion_is_numerical(self, monkeypatch):
        # a normal matrix that no ridge up to 1e-8 makes definite ends the
        # solve as 'numerical' with the best iterate seen so far
        prob, _ = random_kkt_instance(3)
        accumulate = conic.schur_accumulate
        calls = []

        def indefinite(h_mat, *args):
            accumulate(h_mat, *args)
            calls.append(1)
            if len(calls) > 4:
                h_mat[0, 0] = -1.0

        monkeypatch.setattr(conic, "schur_accumulate", indefinite)
        sol = solve_sdp(prob)
        assert sol.status == "numerical"
        assert sol.iterations > 0
        assert np.all(np.isfinite(sol.x))
        assert np.isfinite(sol.objective_value)

    def test_ridge_retry_reaches_the_optimum(self, monkeypatch):
        # when every first factorization of a fresh normal matrix fails,
        # each iteration factors with the 1e-13 ridge and refines twice;
        # the solve must still reach the known optimum
        prob, opt = random_kkt_instance(3)
        accumulate = conic.schur_accumulate
        factor = conic._cholesky_factor
        fresh, failures = [], []

        def flagging(h_mat, *args):
            accumulate(h_mat, *args)
            fresh[:] = [True]

        def failing_first(a):
            if fresh:
                fresh.clear()
                failures.append(1)
                raise np.linalg.LinAlgError("not positive definite")
            return factor(a)

        monkeypatch.setattr(conic, "schur_accumulate", flagging)
        monkeypatch.setattr(conic, "_cholesky_factor", failing_first)
        sol = solve_sdp(prob)
        assert sol.status == "optimal"
        assert len(failures) == sol.iterations > 0
        assert abs(sol.objective_value - opt) <= 1e-9 * (1.0 + abs(opt))

    def test_non_finite_normal_matrix_is_numerical(self, monkeypatch):
        # a NaN in H ends the solve as 'numerical' with the best iterate
        # seen so far, instead of escaping the factorization as an error
        prob, _ = random_kkt_instance(1)
        accumulate = conic.schur_accumulate
        calls = []

        def poisoned(h_mat, *args):
            accumulate(h_mat, *args)
            calls.append(1)
            if len(calls) == 9:
                h_mat[3, 5] = np.nan

        monkeypatch.setattr(conic, "schur_accumulate", poisoned)
        sol = solve_sdp(prob)
        assert len(calls) >= 9
        assert sol.status == "numerical"
        assert sol.iterations > 0
        assert np.all(np.isfinite(sol.x))
        assert np.isfinite(sol.objective_value)

    def test_max_iter_status(self):
        prob, _ = random_kkt_instance(11)
        sol = solve_sdp(prob, SolverSettings(max_iter=2))
        assert sol.status == "max_iter"
        assert isinstance(sol, SdpSolution)


class TestCholeskyFloored:
    def test_slightly_negative_eigenvalue_is_floored(self):
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        bad = (q * np.array([3.0, 1.0, 0.5, -1e-12])) @ q.T
        good = q @ np.diag([2.0, 1.5, 1.0, 0.5]) @ q.T
        stack = np.stack([good, bad])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(stack)
        factor, repaired = conic._cholesky_floored(stack)
        assert np.array_equal(repaired, repaired.transpose(0, 2, 1))
        assert np.min(np.linalg.eigvalsh(repaired)) > 0.0
        np.testing.assert_allclose(factor @ factor.transpose(0, 2, 1),
                                   repaired, atol=1e-12)
        np.testing.assert_allclose(repaired, stack, atol=1e-11)
        healthy = stack[:1]
        factor, out = conic._cholesky_floored(healthy)
        assert out is healthy


def psd_stack(rng, count, size, cond):
    """count random PSD matrices, each with eigenvalues log-spaced from a
    random scale in [0.5, 2] down to that scale over ``cond``."""
    q, _ = np.linalg.qr(rng.standard_normal((count, size, size)))
    w = (np.logspace(0.0, -np.log10(cond), size)
         * rng.uniform(0.5, 2.0, (count, 1)))
    m = (q * w[:, None, :]) @ q.transpose(0, 2, 1)
    return 0.5 * (m + m.transpose(0, 2, 1))


def spectral_norm(stack):
    return np.linalg.norm(stack, ord=2, axis=(1, 2))


class TestLinearAlgebra:
    @pytest.mark.parametrize("k", [1, conic._LEAF, conic._LEAF + 1, 176, 333])
    def test_factor_and_solve(self, k):
        rng = np.random.default_rng(k)
        a = rng.standard_normal((k, k))
        h = a @ a.T + k * np.eye(k)
        low, invs = conic._cholesky_factor(h)
        np.testing.assert_allclose(low, np.linalg.cholesky(h), rtol=0.0,
                                   atol=1e-13 * np.abs(low).max())
        starts = range(0, k, conic._LEAF)
        assert [len(inv) for inv in invs] == [min(conic._LEAF, k - a)
                                              for a in starts]
        for a, inv in zip(starts, invs):
            block = low[a:a + len(inv), a:a + len(inv)]
            expected = np.linalg.inv(block)
            np.testing.assert_allclose(inv, expected, rtol=0.0,
                                       atol=1e-13 * np.abs(expected).max())
            assert not np.triu(inv, 1).any()
        vec = rng.standard_normal(k)
        x = conic._cholesky_solve((low, invs), vec)
        np.testing.assert_allclose(x, np.linalg.solve(h, vec), rtol=1e-12,
                                   atol=1e-14 * np.abs(x).max())
        assert (np.linalg.norm(h @ x - vec)
                <= 1e-14 * np.linalg.norm(h, 2) * np.linalg.norm(x))

    @pytest.mark.parametrize("size", [1, 7, 55, 73])
    @pytest.mark.parametrize("kind",
                             ["random", "central", "identity", "independent"])
    def test_nt_scaling_identities(self, kind, size):
        # random: S and Z of condition 10; the rest have S of condition
        # 1e8, and Z is 1e-6 S^-1 off the central path, where interior-point
        # iterates are and P is well conditioned (central), the identity, so
        # that P = L_s spans 4 decades and a square root of the eigenvalues
        # of P P' would lose the small lambda (identity), or of condition
        # 1e8 as well (independent)
        rng = np.random.default_rng(size)
        s_mat = psd_stack(rng, 4, size, 10.0 if kind == "random" else 1e8)
        if kind == "central":
            z_mat = (1e-6 * np.linalg.inv(s_mat)
                     + 1e-7 * psd_stack(rng, 4, size, 10.0))
            z_mat = 0.5 * (z_mat + z_mat.transpose(0, 2, 1))
        elif kind == "identity":
            z_mat = np.repeat(np.eye(size)[None], 4, axis=0)
        else:
            z_mat = psd_stack(rng, 4, size,
                              10.0 if kind == "random" else 1e8)
        l_s, l_z = np.linalg.cholesky(s_mat), np.linalg.cholesky(z_mat)
        g_inv, lam = conic._nt_scaling(l_s, l_z)
        g = np.linalg.inv(g_inv)
        g_t, g_inv_t = g.transpose(0, 2, 1), g_inv.transpose(0, 2, 1)
        lam_diag = np.zeros_like(s_mat)
        conic._diag(lam_diag)[...] = lam
        w_inv = g_inv_t @ g_inv
        # U diagonalizes P P' to an eigensolve's size * eps * ||P||^2, which
        # leaves the small lambda_j, and G^-1 S G^-T = diag(lambda) along
        # them, resolved to size * eps * cond(P) * ||P||: negligible unless
        # P is ill conditioned, as it is for the independent pairs alone
        sig = np.linalg.svd(l_z.transpose(0, 2, 1) @ l_s, compute_uv=False)
        limit = size * np.finfo(float).eps * sig[:, 0] ** 2 / sig[:, -1]

        # each product within 1e-12 of the scale it is formed at
        for got, want, scale in [
                (g_t @ z_mat @ g, lam_diag,
                 spectral_norm(g) ** 2 * spectral_norm(z_mat)),
                (g_inv @ s_mat @ g_inv_t, lam_diag,
                 spectral_norm(g_inv) ** 2 * spectral_norm(s_mat)),
                (w_inv @ s_mat @ w_inv, z_mat,
                 spectral_norm(w_inv) ** 2 * spectral_norm(s_mat))]:
            err = np.abs(got - want).max(axis=(1, 2))
            assert np.all(err <= 1e-12 * scale + limit)

        assert np.all(np.abs(lam - sig) <= 1e-12 * sig + limit[:, None])
        if kind != "independent":
            np.testing.assert_allclose(lam, sig, rtol=1e-12)


class TestSettings:
    def test_defaults(self):
        # every CLI command and the solve digest run these settings
        assert SolverSettings() == SolverSettings(tol=1e-8, max_iter=200)

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverSettings(tol=0.0)
        with pytest.raises(ValueError):
            SolverSettings(max_iter=0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-8])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        # a NaN tol compares false with every merit, so a solve with it
        # could never end optimal; it ran to max_iter instead of raising
        with pytest.raises(ValueError, match="positive and finite"):
            SolverSettings(tol=tol)

    def test_loose_tolerances_still_solve(self):
        prob, opt = random_kkt_instance(5)
        sol = solve_sdp(prob, SolverSettings(tol=1e-6, max_iter=100))
        assert sol.status == "optimal"
        assert abs(sol.objective_value - opt) <= 1e-4 * (1.0 + abs(opt))


def test_steps_near_the_boundary_do_not_cost_iterations():
    # solve_digest.py's `strict plain 1 dr_cvar 0.1 0.01` problem.  A
    # corrector step taken at 0.999 of the way to the boundary leaves the
    # next dual step blocked at 0.04-0.13; taking such steps whenever the
    # gap is small costs this solve 21 iterations, against 14 with the
    # fraction set from the previous step length
    ds = synth_spiky(SpikyConfig(days=7), 1)
    train, _, _ = split_and_normalize(ds, ds.dates[6])
    problem = build_drcvar_sdp(train, RiskSpec(alpha=0.1, radius=0.01))
    sol = solve_sdp(problem)
    assert sol.status == "optimal"
    assert sol.iterations <= 16
