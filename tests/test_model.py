"""Unit tests for the domain types and the affine/quadratic bridge."""

import numpy as np
import pytest

from drcvar.estimate import fit_nominal_mse
from drcvar.model import (
    AffineEstimator,
    EmpiricalDistribution,
    QuadraticForm,
    RiskSpec,
    affine_to_quadratic,
    loss_batch,
)
from oracles import loss_eval

SEED = 1234


class TestTypes:
    def test_distribution_shapes(self):
        dist = EmpiricalDistribution(atoms=np.arange(12.0).reshape(4, 3),
                                     n=2, m=1)
        assert dist.size == 4
        assert dist.dim == 3
        assert dist.x.shape == (4, 2)
        assert dist.y.shape == (4, 1)

    def test_distribution_validation(self):
        with pytest.raises(ValueError):
            EmpiricalDistribution(atoms=np.zeros((2, 3)), n=1, m=1)
        with pytest.raises(ValueError):
            EmpiricalDistribution(atoms=np.zeros((0, 2)), n=1, m=1)
        with pytest.raises(ValueError):
            EmpiricalDistribution(atoms=np.array([[np.inf, 0.0]]), n=1, m=1)

    def test_distribution_immutable(self):
        dist = EmpiricalDistribution(atoms=np.zeros((1, 2)), n=1, m=1)
        with pytest.raises(ValueError):
            dist.atoms[0, 0] = 1.0

    def test_estimator_validation(self):
        with pytest.raises(ValueError):
            AffineEstimator(A=np.zeros((2, 3)), b=np.zeros(3))
        with pytest.raises(ValueError):
            AffineEstimator(A=np.array([[np.nan]]), b=np.zeros(1))

    def test_quadratic_symmetrized(self):
        qf = QuadraticForm(Q=[[1.0, 2.0], [0.0, 3.0]], q=[0.0, 0.0])
        assert np.allclose(qf.Q, qf.Q.T)
        assert qf.Q[0, 1] == 1.0

    def test_quadratic_stores_its_spectrum(self):
        qf = QuadraticForm(Q=[[1.0, 2.0], [0.0, 3.0]], q=[0.0, 0.0])
        lam, vecs = qf.eigenvalues, qf.eigenvectors
        assert np.all(np.diff(lam) >= 0.0)
        assert np.allclose(vecs @ np.diag(lam) @ vecs.T, qf.Q)
        assert np.allclose(vecs.T @ vecs, np.eye(2))
        with pytest.raises(ValueError):
            lam[0] = 0.0

    @pytest.mark.parametrize("make", [
        lambda: EmpiricalDistribution(atoms=np.arange(12.0).reshape(4, 3),
                                      n=2, m=1),
        lambda: AffineEstimator(A=np.ones((2, 3)), b=np.zeros(2)),
        lambda: QuadraticForm(Q=np.eye(3), q=np.ones(3), c=1.0),
    ], ids=["distribution", "estimator", "quadratic"])
    def test_equality_and_hash_are_identity(self, make):
        # arrays have no single truth value, so equality is identity, and
        # so is the hash
        first, second = make(), make()
        assert (first == second) is False
        assert (first != second) is True
        assert first == first
        assert hash(first) == hash(first)
        assert {first: 1, second: 2}[first] == 1

    def test_fit_results_compare_to_a_bool(self):
        rng = np.random.default_rng(SEED)
        dist = EmpiricalDistribution(atoms=rng.standard_normal((8, 4)),
                                     n=2, m=2)
        first, second = fit_nominal_mse(dist), fit_nominal_mse(dist)
        assert (first == second) is False
        assert first == first
        assert len({first, second}) == 2

    def test_risk_spec_validation(self):
        RiskSpec(alpha=1.0, radius=0.0)
        with pytest.raises(ValueError):
            RiskSpec(alpha=0.0, radius=1.0)
        with pytest.raises(ValueError):
            RiskSpec(alpha=1.5, radius=1.0)
        with pytest.raises(ValueError):
            RiskSpec(alpha=0.5, radius=-1.0)


class TestAffineToQuadratic:
    def test_hand_example(self):
        # n=m=1, A=[2], b=[3]: Q=[[1,-2],[-2,4]], q=(-3,6), c=9
        est = AffineEstimator(A=[[2.0]], b=[3.0])
        qf = affine_to_quadratic(est)
        assert np.allclose(qf.Q, [[1.0, -2.0], [-2.0, 4.0]])
        assert np.allclose(qf.q, [-3.0, 6.0])
        assert qf.c == 9.0
        z = np.array([1.0, 1.0])
        assert qf(z) == pytest.approx(16.0)
        assert loss_eval(est, z) == pytest.approx(16.0)

    def test_zero_estimator(self):
        est = AffineEstimator(A=np.zeros((2, 3)), b=np.zeros(2))
        qf = affine_to_quadratic(est)
        expected = np.zeros((5, 5))
        expected[:2, :2] = np.eye(2)
        assert np.allclose(qf.Q, expected)
        assert np.allclose(qf.q, 0.0)
        assert qf.c == 0.0

    def test_quadratic_matches_direct_loss(self):
        # oracle: direct loss evaluation on random points
        rng = np.random.default_rng(SEED)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            est = AffineEstimator(A=rng.standard_normal((n, m)),
                                  b=rng.standard_normal(n))
            qf = affine_to_quadratic(est)
            for _ in range(5):
                z = rng.standard_normal(n + m)
                direct = loss_eval(est, z)
                quad = qf(z)
                assert abs(quad - direct) <= 1e-12 * (1.0 + abs(direct))

    def test_psd_and_top_eigenvalue(self):
        # lambda_max(F'F) = 1 + sigma_max(A)^2
        rng = np.random.default_rng(SEED + 1)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            est = AffineEstimator(A=rng.standard_normal((n, m)),
                                  b=rng.standard_normal(n))
            qf = affine_to_quadratic(est)
            eigs = qf.eigenvalues
            smax = np.linalg.svd(est.A, compute_uv=False)[0] if min(n, m) else 0.0
            assert eigs[0] >= -1e-12
            assert eigs[-1] == pytest.approx(1.0 + smax**2, rel=1e-10)


class TestLossEval:
    def test_trivial_values(self):
        assert loss_eval(AffineEstimator(A=[[0.0]], b=[0.0]),
                         np.array([3.0, 7.0])) == pytest.approx(9.0)
        assert loss_eval(AffineEstimator(A=[[1.0]], b=[0.0]),
                         np.array([5.0, 5.0])) == pytest.approx(0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            loss_eval(AffineEstimator(A=[[1.0]], b=[0.0]), np.zeros(3))

    def test_nonnegative(self):
        rng = np.random.default_rng(SEED + 2)
        est = AffineEstimator(A=rng.standard_normal((2, 2)),
                              b=rng.standard_normal(2))
        for _ in range(50):
            assert loss_eval(est, rng.standard_normal(4)) >= 0.0

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(SEED + 3)
        est = AffineEstimator(A=rng.standard_normal((2, 3)),
                              b=rng.standard_normal(2))
        dist = EmpiricalDistribution(atoms=rng.standard_normal((6, 5)), n=2, m=3)
        batch = loss_batch(est, dist)
        for i in range(6):
            assert batch[i] == pytest.approx(loss_eval(est, dist.atoms[i]))
