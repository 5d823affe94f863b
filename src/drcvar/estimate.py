"""End-to-end estimator fitting with certified objective values.

Four fitting modes share the FitResult contract:

``dr_cvar``       robust CVaR-optimal affine estimator (conic solve of the
                  transport-ball reformulation), cross-checked against the
                  independent one-dimensional dual path.
``dr_mse``        the same program at alpha = 1 (robust mean squared error).
``nominal_mse``   closed-form least squares on the empirical atoms.
``nominal_cvar``  empirical CVaR minimization: the same conic program at
                  radius zero, cross-checked against the empirical CVaR
                  recomputed at the fitted estimator.

Both conic fits go through one certified path, and both raise when their
cross-check gap exceeds :data:`CROSS_CHECK_TOL`.  A zero-radius request at
alpha = 1 is routed to the closed-form least squares fit.

Short windows are fitted on the span of the observations.  Let V (m x r)
be an orthonormal basis of span{y_i} with 1 <= r < m, as in every window
of fewer than m atoms.  A distribution of the transport ball pushed forward
by (x, y) -> (x, V V'y) stays in the ball, since y_i = V V'y_i and the
projection does not lengthen y - y_i, and the loss of A at the pushed point
is the loss of A V V' at the original one.  So A V V' is no worse than A,
and the optimum is attained at some A = A~ V', whose worst case over the
ball around the (x_i, y_i) is that of A~ over the ball around the
(x_i, V'y_i).  The conic program is built on those reduced atoms: n(r+1)
estimator variables and atom blocks of size 1 + n + r + n instead of
1 + n + m + n.  The cross-check still reads the full distribution and the
full A = A~ V'.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .conic import SdpSolution, SolverSettings, solve_sdp
from .dual import DualCertificate, worst_case_cvar
from .model import (
    AffineEstimator,
    EmpiricalDistribution,
    RiskSpec,
    affine_to_quadratic,
    loss_batch,
)
from .risk import cvar_discrete
from .sdp import build_drcvar_sdp, extract_estimator

#: Hard bound on |conic optimum - cross-check value| for conic fits,
#: relative to 1 + value.  Exceedance is a defect, not a warning.
CROSS_CHECK_TOL = 1e-5


class FitError(RuntimeError):
    """Raised when a fit cannot be certified.

    ``status`` names the failure: the solver status when the conic solve
    does not reach optimality, ``validation`` when its point fails the
    checks of ``extract_estimator``, or ``cross_check`` when the dual path
    fails or disagrees with the conic value (at radius zero, the empirical
    CVaR does) by more than :data:`CROSS_CHECK_TOL`.
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
    nominal_cvar; both are enforced to at most
    ``CROSS_CHECK_TOL * (1 + |value|)``.  nominal_mse sets it to zero.
    gamma/tau are NaN where the method has no such variable.  At alpha = 1
    every tau at or below the smallest transformed loss is optimal, and tau
    is the one the solver stopped at.
    boundary_gamma flags fits whose optimal gamma sits against the spectral
    lower boundary, where the infimum is approached rather than attained.
    certificate is the dual result checked against (None at radius 0).
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
    certificate: DualCertificate | None = None


def default_solver_settings(profile: str = "strict") -> SolverSettings:
    """Settings for the named tolerance profile ('strict' or 'fast')."""
    if profile == "strict":
        return SolverSettings()
    if profile == "fast":
        return SolverSettings(tol=1e-6, max_iter=100)
    raise ValueError(f"unknown tolerance profile '{profile}'")


def fit_dr_cvar(dist: EmpiricalDistribution, spec: RiskSpec,
                settings: SolverSettings | None = None) -> FitResult:
    """Fit the robust CVaR-optimal affine estimator.

    Builds and solves the conic reformulation, then evaluates the
    independent dual path at the fitted estimator and records the gap.
    Every failure raises :class:`FitError`, whose status names it.  At
    radius zero this is :func:`fit_nominal_cvar`, or
    :func:`fit_nominal_mse` at alpha = 1.
    """
    if spec.radius == 0.0 and spec.alpha == 1.0:
        return fit_nominal_mse(dist)
    return _certified_fit(dist, spec, settings)


def _observation_basis(y: np.ndarray) -> np.ndarray | None:
    """Orthonormal basis V (m x r) of the span of the rows of y, or None
    when r is 0 or m.

    V holds the leading right singular vectors, r counted with the
    tolerance of ``np.linalg.matrix_rank``.  A rank-revealing basis matters:
    a QR basis of a rank-deficient y keeps a column with no observation
    along it, and nothing in the conic program bounds A~'s matching column.
    """
    _, sv, vt = np.linalg.svd(y, full_matrices=False)
    tol = sv.max(initial=0.0) * max(y.shape) * np.finfo(y.dtype).eps
    rank = int(np.count_nonzero(sv > tol))
    if rank == 0 or rank == y.shape[1]:
        return None
    return vt[:rank].T


def _certified_fit(dist: EmpiricalDistribution, spec: RiskSpec,
                   settings: SolverSettings | None) -> FitResult:
    """Solve the CVaR SDP and check its value: against the dual path when
    the radius is positive, against the empirical CVaR when it is zero.

    When the y_i span r < m dimensions (r >= 1), the program is built on
    the atoms (x_i, V'y_i) and the fit returns A = A~ V'.  The pushforward
    (x, y) -> (x, V V'y) does not increase the transport cost, and the loss
    of A at the pushed point is the loss of A V V' at the original one, so
    the worst case of A V V' is at most that of A (module docstring).
    Otherwise, r = 0 included, the program is built on the caller's
    distribution as it is.
    """
    t0 = time.perf_counter()
    basis = _observation_basis(dist.y)
    reduced = dist if basis is None else EmpiricalDistribution(
        atoms=np.hstack([dist.x, dist.y @ basis]), n=dist.n,
        m=basis.shape[1])
    problem = build_drcvar_sdp(reduced, spec)
    method = problem.meta["kind"]
    sol = solve_sdp(problem, settings)
    if sol.status != "optimal":
        raise FitError(
            f"{method} fit failed: solver status '{sol.status}' "
            f"(gap {sol.duality_gap:.3e}, primal {sol.primal_infeasibility:.3e}, "
            f"dual {sol.dual_infeasibility:.3e} after {sol.iterations} iterations)",
            solution=sol,
        )
    try:
        est, gamma, tau, _ = extract_estimator(problem, sol)
    except RuntimeError as exc:
        raise FitError(f"{method} fit failed: {exc}", solution=sol,
                       status="validation") from exc
    if basis is not None:
        est = AffineEstimator(A=est.A @ basis.T, b=est.b)
    value = sol.objective_value
    elapsed = time.perf_counter() - t0

    if spec.radius > 0.0:
        qf = affine_to_quadratic(est)
        try:
            cert = worst_case_cvar(qf, dist, spec)
        except RuntimeError as exc:
            raise FitError(f"{method} fit failed the cross-check: {exc}",
                           solution=sol, status="cross_check") from exc
        check, check_name = cert.value, "dual value"
        smax_sq = float(qf.eigenvalues[-1])  # sigma_max(F)^2 = lambda_max(F'F)
        boundary = (cert.at_boundary
                    or gamma - smax_sq <= 1e-6 * (1.0 + smax_sq))
    else:
        cert, boundary = None, False
        check = cvar_discrete(loss_batch(est, dist), spec.alpha).cvar
        check_name = "empirical CVaR"
    gap = abs(value - check)
    if gap > CROSS_CHECK_TOL * (1.0 + abs(value)):
        raise FitError(
            f"{method} fit failed the cross-check: conic value {value:.9g}, "
            f"{check_name} {check:.9g} (gap {gap:.3e} > "
            f"{CROSS_CHECK_TOL:g} * (1 + |value|))",
            solution=sol, status="cross_check",
        )
    return FitResult(
        estimator=est, optimal_value=float(value), gamma=gamma, tau=tau,
        method=method, cross_check_gap=float(gap), boundary_gamma=boundary,
        solve_time=elapsed, iterations=sol.iterations, certificate=cert,
    )


def fit_dr_mse(dist: EmpiricalDistribution, r: float,
               settings: SolverSettings | None = None) -> FitResult:
    """Robust mean-squared-error fit: the alpha = 1 case of fit_dr_cvar."""
    res = fit_dr_cvar(dist, RiskSpec(alpha=1.0, radius=r), settings=settings)
    return replace(res, method="dr_mse")


def fit_nominal_mse(dist: EmpiricalDistribution) -> FitResult:
    """Closed-form least squares of x on y over the atoms.

    A is one SVD-based ``np.linalg.lstsq`` solve on centered data: the
    minimum-norm solution when the regressors are rank deficient (at most
    m atoms, or a constant coordinate).
    """
    t0 = time.perf_counter()
    x = dist.x
    y = dist.y
    xbar = x.mean(axis=0)
    ybar = y.mean(axis=0)
    a_mat = np.linalg.lstsq(y - ybar, x - xbar, rcond=None)[0].T
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
    """Minimize the empirical CVaR of squared error: the radius-zero SDP."""
    return _certified_fit(dist, RiskSpec(alpha=alpha, radius=0.0), settings)
