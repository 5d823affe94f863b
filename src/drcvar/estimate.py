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

Short windows are fitted on the spans of the observations and of the
targets.  Let V (m x r) be an orthonormal basis of span{y_i} and U (n x k)
one of span{x_i}.  V is used when 1 <= r < m and U when 1 <= k < n, as in
every day-ahead window of fewer than 24 days; otherwise each is the
identity.

- Observations.  A distribution of the transport ball pushed forward by
  (x, y) -> (x, V V'y) stays in the ball, since y_i = V V'y_i and the
  projection does not lengthen y - y_i, and the loss of A at the pushed
  point is the loss of A V V' at the original one.  So A V V' is no worse
  than A.
- Targets.  The loss reads x directly, so the projection argument does
  not carry over; reflection and convexity do.  Let R = 2 U U' - I, the
  reflection through span{x_i}.  The map (x, y) -> (R x, y) is an
  isometry that fixes every atom, so it maps the ball onto itself, and
  the loss of (A, b) at (R x, y) is the loss of (R A, R b) at (x, y).  So
  the worst-case CVaR J has J(R A, R b) = J(A, b).  J is convex in (A, b)
  (a supremum of CVaRs of losses convex in (A, b)), and U U' = (I + R)/2,
  so J(U U'A, U U'b) <= J(A, b).

Hence some optimum has the form A = U A~ V', b = U b~.  At such a point,
in the coordinates (U, U_perp) of the x rows, the x_perp rows of every
atom block (module :mod:`drcvar.sdp`) split off as [[gamma I, -I], [-I,
I]]: nothing couples them to the rest, since every residual
e_i = x_i - A y_i - b and every column of A lie in span U.  That part is
PSD iff gamma >= 1, which the reduced block already implies (its
F~ = [-I_k, A~] has norm >= 1); at radius zero it is I.  So the worst
case of (U A~ V', U b~) over the ball around the (x_i, y_i) is that of
(A~, b~) over the ball around the (U'x_i, V'y_i).  The conic program is
built on those reduced atoms: k(r+1) estimator variables and atom blocks
of size 1 + (k + r) + k instead of 1 + (n + m) + n.  The cross-check
still reads the full distribution and the lifted estimator.
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


def _span_basis(rows: np.ndarray) -> np.ndarray | None:
    """Orthonormal basis (p x k) of the span of the rows of a (N, p) array,
    or None when k is 0 or p.

    The basis holds the leading right singular vectors, k counted with the
    tolerance of ``np.linalg.matrix_rank``; it serves the targets x and the
    observations y alike.  A rank-revealing basis matters: a QR basis of a
    rank-deficient y keeps a column with no observation along it, and
    nothing in the conic program bounds A~'s matching column.
    """
    _, sv, vt = np.linalg.svd(rows, full_matrices=False)
    tol = sv.max(initial=0.0) * max(rows.shape) * np.finfo(rows.dtype).eps
    rank = int(np.count_nonzero(sv > tol))
    if rank == 0 or rank == rows.shape[1]:
        return None
    return vt[:rank].T


def _span_reduction(dist: EmpiricalDistribution) -> tuple[
        EmpiricalDistribution, np.ndarray | None, np.ndarray | None]:
    """(reduced, U, V): the distribution on the atoms (U'x_i, V'y_i) and
    the bases U of span{x_i} and V of span{y_i} (module docstring).

    A basis is None where its span is 0 or all of the space, and that side
    is not reduced; when both are None, reduced is ``dist`` itself.
    """
    u_basis, v_basis = _span_basis(dist.x), _span_basis(dist.y)
    if u_basis is None and v_basis is None:
        return dist, None, None
    x = dist.x if u_basis is None else dist.x @ u_basis
    y = dist.y if v_basis is None else dist.y @ v_basis
    reduced = EmpiricalDistribution(atoms=np.hstack([x, y]), n=x.shape[1],
                                    m=y.shape[1])
    return reduced, u_basis, v_basis


def _certified_fit(dist: EmpiricalDistribution, spec: RiskSpec,
                   settings: SolverSettings | None) -> FitResult:
    """Solve the CVaR SDP and check its value: against the dual path when
    the radius is positive, against the empirical CVaR when it is zero.

    The program is built on the atoms (U'x_i, V'y_i) of
    :func:`_span_reduction`, and the fit returns the lift A = U A~ V',
    b = U b~.  The optimum is attained there (module docstring): the
    pushforward (x, y) -> (x, V V'y) does not increase the transport cost,
    and the reflection through span{x_i} fixes the ball, so by convexity
    projecting A and b onto span{x_i} does not raise the worst case.
    When the x_i and the y_i each span 0 dimensions or all of them, the
    program is built on the caller's distribution as it is.
    """
    t0 = time.perf_counter()
    reduced, u_basis, v_basis = _span_reduction(dist)
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
    if v_basis is not None:
        est = AffineEstimator(A=est.A @ v_basis.T, b=est.b)
    if u_basis is not None:
        est = AffineEstimator(A=u_basis @ est.A, b=u_basis @ est.b)
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
