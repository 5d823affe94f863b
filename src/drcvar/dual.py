"""Worst-case CVaR of a quadratic loss over a Wasserstein ball, by duality.

For the loss z'Qz + 2q'z (constant handled by translation) over the type-2
transport ball of radius r around an empirical distribution, the worst-case
CVaR at level alpha equals a one-dimensional convex minimization

    inf_{gamma in G}  gamma*r^2/alpha
                      + CVaR_alpha( (gamma z_i + q)' Qg^{-1} (gamma z_i + q)
                                    - gamma ||z_i||^2 ),

where Qg = gamma*I - Q and G = { gamma >= 0 : Qg positive definite }.  Each
gamma is evaluated in the eigenbasis of Q that the QuadraticForm stores, by
a sum that factors nothing, cannot fail inside G and keeps its accuracy as
gamma grows like 1/r for r -> 0 (see :func:`_transformed_losses`).  The
scalar objective is convex and coercive, so bracketing plus golden-section
search locates the minimizer; when the infimum sits at the open lower
boundary of G the result is flagged rather than extrapolated.

This module is the cross-validation path for the semidefinite formulation:
it shares no code with the conic solver beyond the CVaR primitive.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    AffineEstimator,
    EmpiricalDistribution,
    QuadraticForm,
    RiskSpec,
    loss_batch,
)
from .risk import cvar_discrete

# Relative margin above the largest eigenvalue of Q at which the gamma
# search starts; the open boundary itself is excluded.
_GAMMA_BOUNDARY_MARGIN = 1e-6

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# golden-section search stops at this relative bracket width
_SEARCH_TOL = 1e-10
# doublings allowed while bracketing the minimizer
_MAX_DOUBLINGS = 200


@dataclass(frozen=True)
class GammaDomain:
    """Feasible set of the dual scalar gamma.

    The set is (lambda_max, inf) when lambda_max >= 0 (the lower endpoint is
    excluded) and [0, inf) otherwise.
    """

    lambda_max: float
    lower_open: bool

    def contains(self, gamma: float) -> bool:
        """Membership test, honoring the open/closed lower boundary."""
        if gamma < 0.0:
            return False
        if self.lower_open:
            return gamma > self.lambda_max
        return True

    def search_start(self) -> float:
        """Smallest gamma used by the minimizer (just inside an open boundary)."""
        if not self.lower_open:
            return 0.0
        lam = self.lambda_max
        return lam * (1.0 + _GAMMA_BOUNDARY_MARGIN) + 1e-9


@dataclass(frozen=True)
class DualCertificate:
    """Minimizer data returned by :func:`worst_case_cvar`.

    gamma_star is the optimal dual scalar and value the worst-case CVaR
    (constant term included).  at_boundary is set when the minimizer
    converged onto the open lower boundary of the gamma domain, where the
    infimum is approached but not attained.
    """

    gamma_star: float
    value: float
    at_boundary: bool = False


def gamma_domain(qf: QuadraticForm) -> GammaDomain:
    """Feasible gamma set for the dual of a quadratic worst-case problem."""
    lam = float(qf.eigenvalues[-1])
    return GammaDomain(lambda_max=lam, lower_open=lam >= 0.0)


def _transformed_losses(gamma: float, qf: QuadraticForm,
                        atoms: np.ndarray) -> np.ndarray:
    """Per-atom values (gamma z + q)' Qg^{-1} (gamma z + q) - gamma ||z||^2.

    With g = gamma, Q = V diag(l) V', z^ = V'z and q^ = V'q, each value is
    sum_j (g l_j z^_j^2 + 2 g z^_j q^_j + q^_j^2) / (g - l_j), which folds
    g ||z||^2 into each term rather than subtracting it from a total of the
    same O(g) size.  In the domain every denominator is positive.
    """
    lam = qf.eigenvalues
    zh = atoms @ qf.eigenvectors
    qh = qf.q @ qf.eigenvectors
    num = (gamma * lam * zh + 2.0 * gamma * qh) * zh + qh * qh
    return num @ (1.0 / (gamma - lam))


def dual_objective(gamma: float, qf: QuadraticForm, dist: EmpiricalDistribution,
                   spec: RiskSpec) -> float:
    """Scalar dual objective at a fixed gamma (constant term included).

    Evaluates gamma*r^2/alpha + CVaR_alpha of the transformed per-atom
    losses, plus the constant offset of the quadratic form.  Returns inf
    when gamma is outside the strict interior of the feasible domain.
    """
    if not gamma_domain(qf).contains(gamma):
        return math.inf
    report = cvar_discrete(_transformed_losses(gamma, qf, dist.atoms),
                           spec.alpha)
    return gamma * spec.radius**2 / spec.alpha + report.cvar + qf.c


def worst_case_cvar(qf: QuadraticForm, dist: EmpiricalDistribution,
                    spec: RiskSpec) -> DualCertificate:
    """Worst-case CVaR of a quadratic loss over the transport ball.

    Minimizes :func:`dual_objective` over feasible gamma by doubling
    expansion (to bracket the convex, coercive objective) followed by
    golden-section search to relative bracket width ``_SEARCH_TOL``.  The
    two-variable dual form, evaluated at gamma_star and the optimal CVaR
    threshold, is asserted to agree with the returned value.

    Raises
    ------
    RuntimeError
        If no bracket is found or the two dual forms disagree.
    ValueError
        If the radius is zero (the ambiguity set degenerates; use the
        nominal CVaR directly).
    """
    if spec.radius <= 0.0:
        raise ValueError("worst_case_cvar requires radius > 0")
    if qf.dim != dist.dim:
        raise ValueError(f"form dimension {qf.dim} != atom dimension {dist.dim}")

    dom = gamma_domain(qf)
    lo = dom.search_start()
    f_prev = dual_objective(lo, qf, dist, spec)

    # Doubling expansion: stop once the objective increases, which brackets
    # the minimizer of a convex function.
    hi = lo + max(1.0, abs(dom.lambda_max))
    for _ in range(_MAX_DOUBLINGS):
        f_hi = dual_objective(hi, qf, dist, spec)
        if f_hi > f_prev:
            break
        f_prev = f_hi
        hi = lo + 2.0 * (hi - lo)
    else:
        raise RuntimeError(
            f"no bracket after {_MAX_DOUBLINGS} doublings: last gamma={hi}, "
            f"objective={f_prev} (search start {lo})"
        )

    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1 = dual_objective(x1, qf, dist, spec)
    f2 = dual_objective(x2, qf, dist, spec)
    while (b - a) > _SEARCH_TOL * max(1.0, abs(b)):
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = dual_objective(x1, qf, dist, spec)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = dual_objective(x2, qf, dist, spec)
    gamma_star = 0.5 * (a + b)

    ell = _transformed_losses(gamma_star, qf, dist.atoms)
    report = cvar_discrete(ell, spec.alpha)
    value = gamma_star * spec.radius**2 / spec.alpha + report.cvar + qf.c
    tau_star = report.var

    # Two-variable dual form at (tau_star, gamma_star) must agree with the
    # one-variable form; they are linked by an exact change of variables.
    value_2d = (
        tau_star
        + (gamma_star * spec.radius**2
           + np.mean(np.maximum(ell - tau_star, 0.0))) / spec.alpha
        + qf.c
    )
    if abs(value_2d - value) > 1e-8 * (1.0 + abs(value)):
        raise RuntimeError(
            f"dual-form mismatch: two-variable form {value_2d} vs "
            f"one-variable form {value} at gamma={gamma_star}"
        )

    boundary = dom.lower_open and (
        gamma_star - dom.lambda_max
        <= 10.0 * (dom.search_start() - dom.lambda_max)
    )
    return DualCertificate(
        gamma_star=float(gamma_star),
        value=float(value),
        at_boundary=bool(boundary),
    )


def worst_case_mse_closed(est: AffineEstimator, dist: EmpiricalDistribution,
                          r: float) -> float:
    """Closed-form (sqrt(nominal MSE) + r * sigma_max(F))^2 with F = [-I, A].

    This is the worst-case mean squared error over the transport ball
    exactly when the nominal residual energy concentrates in the top
    singular direction of the residual map: always for n = 1, for A = 0
    (all singular values of F coincide), and trivially when the nominal MSE
    is zero.  Outside that regime the adversary cannot realize the top
    singular gain on all residual energy at once and this expression is a
    strict upper bound on the exact value inf_g { g r^2 + sum_i g e_i /
    (g - sigma_i^2) }.  The test suite validates both facts against the
    general dual path before any oracle use.
    """
    if r < 0.0:
        raise ValueError("radius must be nonnegative")
    mse0 = float(np.mean(loss_batch(est, dist)))
    smax = float(np.linalg.svd(est.error_matrix(), compute_uv=False)[0])
    return (math.sqrt(mse0) + r * smax) ** 2
