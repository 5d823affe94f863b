"""End-to-end estimator fitting with dual cross-validation.

Four fitting modes share the FitResult contract:

``dr_cvar``       robust CVaR-optimal affine estimator (conic solve of the
                  transport-ball reformulation), cross-checked against the
                  independent one-dimensional dual path.
``dr_mse``        the same program at alpha = 1 (robust mean squared error).
``nominal_mse``   closed-form least squares on the empirical atoms.
``nominal_cvar``  empirical CVaR minimization (no transport term), also a
                  conic solve.

Zero-radius requests are routed to the nominal fits: the transport
reformulation assumes a positive radius, while the nominal problems have
their own exact convex forms.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla

from .conic import SdpSolution, SolverSettings, solve_sdp
from .dual import worst_case_cvar
from .model import (
    AffineEstimator,
    EmpiricalDistribution,
    RiskSpec,
    affine_to_quadratic,
    loss_batch,
)
from .risk import cvar_discrete
from .sdp import build_drcvar_sdp, build_nominal_cvar_sdp, extract_estimator

#: Hard bound on |conic optimum - dual evaluation| for robust fits,
#: relative to 1 + value.  Exceedance is a defect, not a warning.
CROSS_CHECK_TOL = 1e-5


class FitError(RuntimeError):
    """Raised when a fit cannot be certified.

    ``status`` names the failure: the solver status when the conic solve
    does not reach optimality, or ``cross_check`` when an optimal solve
    disagrees with the independent dual path by more than
    :data:`CROSS_CHECK_TOL`.
    """

    def __init__(self, message: str, solution: SdpSolution | None = None,
                 status: str | None = None):
        super().__init__(message)
        self.solution = solution
        if status is None:
            status = solution.status if solution is not None else "error"
        self.status = status


@dataclass(frozen=True)
class FitResult:
    """Fitted estimator with its certified objective and diagnostics.

    cross_check_gap is |conic value - dual value at the fitted estimator|
    for the robust methods, and |conic value - empirical risk recompute| for
    nominal_cvar; nominal_mse sets it to the normal-equation residual scale
    (effectively zero).  gamma/tau are NaN where the method has no such
    variable.  boundary_gamma flags fits whose optimal gamma sits against
    the spectral lower boundary, where the infimum is approached rather
    than attained.
    """

    estimator: AffineEstimator
    optimal_value: float
    gamma: float
    tau: float
    method: str
    cross_check_gap: float
    boundary_gamma: bool = False
    solve_time: float = 0.0
    iterations: int = 0


def default_solver_settings(profile: str = "strict") -> SolverSettings:
    """Settings for the named tolerance profile ('strict' or 'fast')."""
    if profile == "strict":
        return SolverSettings()
    if profile == "fast":
        return SolverSettings(tol_gap=1e-6, tol_feas=1e-6, max_iter=100)
    raise ValueError(f"unknown tolerance profile '{profile}'")


def fit_dr_cvar(dist: EmpiricalDistribution, spec: RiskSpec,
                settings: SolverSettings | None = None) -> FitResult:
    """Fit the robust CVaR-optimal affine estimator.

    Builds and solves the conic reformulation, then evaluates the
    independent dual path at the fitted estimator and records the gap.
    Raises :class:`FitError` when the solver does not certify optimality,
    or with status ``cross_check`` when the gap exceeds
    ``CROSS_CHECK_TOL * (1 + |value|)``.
    """
    if spec.radius == 0.0:
        if spec.alpha == 1.0:
            return fit_nominal_mse(dist)
        return fit_nominal_cvar(dist, spec.alpha, settings=settings)

    t0 = time.perf_counter()
    problem = build_drcvar_sdp(dist, spec)
    sol = solve_sdp(problem, settings)
    if sol.status != "optimal":
        raise FitError(
            f"robust CVaR fit failed: solver status '{sol.status}' "
            f"(gap {sol.duality_gap:.3e}, primal {sol.primal_infeasibility:.3e}, "
            f"dual {sol.dual_infeasibility:.3e} after {sol.iterations} iterations)",
            solution=sol,
        )
    est, gamma, tau, _ = extract_estimator(problem, sol)
    value = sol.objective_value
    elapsed = time.perf_counter() - t0

    cert = worst_case_cvar(affine_to_quadratic(est), dist, spec)
    gap = abs(value - cert.value)
    if gap > CROSS_CHECK_TOL * (1.0 + abs(value)):
        raise FitError(
            f"robust CVaR fit failed the dual cross-check: conic value "
            f"{value:.9g}, dual value {cert.value:.9g} (gap {gap:.3e} > "
            f"{CROSS_CHECK_TOL:g} * (1 + |value|))",
            solution=sol, status="cross_check",
        )

    smax_sq = float(np.linalg.svd(est.error_matrix(), compute_uv=False)[0] ** 2)
    boundary = cert.at_boundary or gamma - smax_sq <= 1e-6 * (1.0 + smax_sq)
    return FitResult(
        estimator=est, optimal_value=float(value), gamma=gamma, tau=tau,
        method="dr_cvar", cross_check_gap=float(gap), boundary_gamma=boundary,
        solve_time=elapsed, iterations=sol.iterations,
    )


def fit_dr_mse(dist: EmpiricalDistribution, r: float,
               settings: SolverSettings | None = None) -> FitResult:
    """Robust mean-squared-error fit: the alpha = 1 case of fit_dr_cvar."""
    res = fit_dr_cvar(dist, RiskSpec(alpha=1.0, radius=r), settings=settings)
    return replace(res, method="dr_mse")


def fit_nominal_mse(dist: EmpiricalDistribution) -> FitResult:
    """Closed-form least squares of x on y over the atoms.

    Normal equations on centered data, with a 1e-10 ridge on the y-Gram
    matrix when its Cholesky factorization fails (degenerate regressors).
    """
    t0 = time.perf_counter()
    x = dist.x
    y = dist.y
    xbar = x.mean(axis=0)
    ybar = y.mean(axis=0)
    xc = x - xbar
    yc = y - ybar
    n_atoms = dist.size
    gram = yc.T @ yc / n_atoms
    cross = xc.T @ yc / n_atoms
    try:
        factor = sla.cho_factor(gram, lower=True)
    except np.linalg.LinAlgError:
        factor = sla.cho_factor(gram + 1e-10 * np.eye(dist.m), lower=True)
    a_mat = sla.cho_solve(factor, cross.T).T
    b_vec = xbar - a_mat @ ybar
    est = AffineEstimator(A=a_mat, b=b_vec)
    value = float(np.mean(loss_batch(est, dist)))
    elapsed = time.perf_counter() - t0
    return FitResult(
        estimator=est, optimal_value=value, gamma=math.nan, tau=math.nan,
        method="nominal_mse", cross_check_gap=0.0, solve_time=elapsed,
    )


def fit_nominal_cvar(dist: EmpiricalDistribution, alpha: float,
                     settings: SolverSettings | None = None) -> FitResult:
    """Minimize the empirical CVaR of squared error (no transport term)."""
    t0 = time.perf_counter()
    problem = build_nominal_cvar_sdp(dist, alpha)
    sol = solve_sdp(problem, settings)
    if sol.status != "optimal":
        raise FitError(
            f"nominal CVaR fit failed: solver status '{sol.status}'",
            solution=sol,
        )
    est, _, tau, _ = extract_estimator(problem, sol)
    value = float(sol.objective_value)
    elapsed = time.perf_counter() - t0

    empirical = cvar_discrete(loss_batch(est, dist), alpha).cvar
    return FitResult(
        estimator=est, optimal_value=value, gamma=math.nan, tau=tau,
        method="nominal_cvar", cross_check_gap=abs(value - empirical),
        solve_time=elapsed, iterations=sol.iterations,
    )
