"""Worst-case CVaR of a quadratic loss over a Wasserstein ball, by duality.

For the loss z'Qz + 2q'z (constant handled by translation) over the type-2
transport ball of radius r around an empirical distribution, the worst-case
CVaR at level alpha equals a one-dimensional convex minimization (Gao &
Kleywegt, Math. Oper. Res. 48, 2023)

    inf_{gamma in G}  g(gamma) = gamma*r^2/alpha + CVaR_alpha( l(gamma) ),

    l_i(gamma) = (gamma z_i + q)' Qg^{-1} (gamma z_i + q) - gamma ||z_i||^2,

where Qg = gamma*I - Q and G = { gamma >= 0 : Qg positive definite }.  In
the eigenbasis Q = V diag(lambda) V' that the QuadraticForm stores, each
transformed loss is its nominal value plus a sum of positive poles,

    l_i(gamma) = l0_i + sum_j U_ij / (gamma - lambda_j),
    l0_i = z_i'Q z_i + 2 q'z_i,   U_ij = u_ij^2,   u_i = V'(Q z_i + q),

so l0 and U are computed once per form and read-only atom set (the form
keeps them, see :func:`_loss_terms`), and each trial gamma costs three
matrix-vector products with U: l, its slope l' = -U (gamma - lambda)^-2 and
its curvature l'' = 2 U (gamma - lambda)^-3.  Every term has one sign, so
nothing cancels however large gamma grows (like 1/r as r -> 0), and nothing
is factored (see :func:`_dual_value`).

g is convex, and its slope is g'(gamma) = r^2/alpha + sum_i w_i l_i'(gamma)
with w the CVaR tail weights of l(gamma).  :func:`worst_case_cvar` searches
for the sign change of that slope: at the search start a nonnegative slope
puts the minimizer on the lower boundary of G (flagged when that boundary
is open, where the infimum is approached but not attained); otherwise a
closed-form upper end brackets the minimizer, and safeguarded Newton steps
on the slope equation shrink the bracket until the convexity gap closes.

This module is the cross-validation path for the semidefinite formulation:
it shares no code with the conic solver beyond the CVaR primitive.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .model import (
    AffineEstimator,
    EmpiricalDistribution,
    QuadraticForm,
    RiskSpec,
    loss_batch,
)
from .risk import RiskReport, cvar_discrete

# Relative margin above the largest eigenvalue of Q at which the gamma
# search starts; the open boundary itself is excluded.
_GAMMA_BOUNDARY_MARGIN = 1e-6

# The search stops once the best objective value is within this relative
# distance of the convexity lower bound (or the bracket is one float wide).
_GAP_TOL = 1e-14


@dataclass(frozen=True)
class GammaDomain:
    """Feasible set of the dual scalar gamma.

    The set is (lambda_max, inf) when lambda_max >= 0 (the lower endpoint is
    excluded) and [0, inf) otherwise.
    """

    lambda_max: float
    lower_open: bool

    def contains(self, gamma: float) -> bool:
        """Membership test, honoring the open/closed lower boundary.

        nan is in no domain.
        """
        if not gamma >= 0.0:
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
    (constant term included).  at_boundary is set when the domain's lower
    boundary is open and the dual objective already rises at the search
    start: the infimum is then approached on that boundary but not attained.
    """

    gamma_star: float
    value: float
    at_boundary: bool = False


def gamma_domain(qf: QuadraticForm) -> GammaDomain:
    """Feasible gamma set for the dual of a quadratic worst-case problem."""
    lam = float(qf.eigenvalues[-1])
    return GammaDomain(lambda_max=lam, lower_open=lam >= 0.0)


def _loss_terms(qf: QuadraticForm,
                atoms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The gamma-free terms (l0, U) of the transformed losses of the atoms.

    l0_i = z_i'Qz_i + 2q'z_i is computed in the eigenbasis as
    sum_j zh_ij (u_ij + qh_j), with zh_i = V'z_i, qh = V'q and
    u_i = V'(Q z_i + q) = lambda * zh_i + qh; U = u^2 elementwise.

    They are computed once per form and read-only atom set: the form's
    ``terms_memo`` keeps the last read-only array that owns its data (as
    every ``EmpiricalDistribution.atoms`` does) with its terms, made
    read-only, and a later call on that very array, still read-only,
    returns them.  A writeable array or a view is never stored, since its
    values may change.  The memo is replaced by one assignment, so threads
    sharing a form at worst compute the terms twice.
    """
    memo = qf.terms_memo
    if memo is not None and memo[0] is atoms and not atoms.flags.writeable:
        return memo[1]
    zh = atoms @ qf.eigenvectors
    qh = qf.q @ qf.eigenvectors
    u = qf.eigenvalues * zh + qh
    terms = np.einsum("ij,ij->i", zh, u + qh), u * u
    if not atoms.flags.writeable and atoms.flags.owndata:
        for arr in terms:
            arr.flags.writeable = False
        object.__setattr__(qf, "terms_memo", (atoms, terms))
    return terms


def _dual_value(gamma: float, terms: tuple[np.ndarray, np.ndarray],
                qf: QuadraticForm, spec: RiskSpec) -> tuple:
    """The transformed losses l(gamma), their CVaR report and g(gamma).

    With g = gamma, Q = V diag(l) V', z^ = V'z and q^ = V'q, the loss of
    atom z is (g z + q)' Qg^{-1} (g z + q) - g ||z||^2
    = sum_j (g z^_j + q^_j)^2 / (g - l_j) - g z^_j^2.  Writing
    g z^_j + q^_j = (g - l_j) z^_j + u_j with u = V'(Qz + q) splits it into
    the nominal loss l0 = z'Qz + 2q'z and the poles U_j / (g - l_j),
    U_j = u_j^2, from the terms (l0, U) of :func:`_loss_terms`: g ||z||^2
    is never subtracted from a total of the same O(g) size, and in the
    domain every pole is positive.  g(gamma) includes the constant term of
    the quadratic form.
    """
    ell0, u2 = terms
    ell = ell0 + u2 @ (1.0 / (gamma - qf.eigenvalues))
    report = cvar_discrete(ell, spec.alpha)
    f = gamma * spec.radius**2 / spec.alpha + report.cvar + qf.c
    return ell, report, f


def dual_objective(gamma: float, qf: QuadraticForm, dist: EmpiricalDistribution,
                   spec: RiskSpec) -> float:
    """Scalar dual objective at a fixed gamma (constant term included).

    Evaluates gamma*r^2/alpha + CVaR_alpha of the transformed per-atom
    losses, plus the constant offset of the quadratic form.  Returns inf
    when gamma is outside the strict interior of the feasible domain.
    """
    if not gamma_domain(qf).contains(gamma):
        return math.inf
    return _dual_value(gamma, _loss_terms(qf, dist.atoms), qf, spec)[2]


@dataclass(frozen=True)
class _Trial:
    """The dual objective at one gamma: value f (constant included), slope,
    curvature, and the transformed losses with their CVaR report."""

    gamma: float
    f: float
    slope: float
    curvature: float
    ell: np.ndarray
    report: RiskReport


def _trial(gamma: float, terms: tuple[np.ndarray, np.ndarray],
           qf: QuadraticForm, spec: RiskSpec) -> _Trial:
    """Evaluate the dual objective at gamma from the terms (l0, U).

    Slope and curvature weight each atom by its CVaR tail weight: 1/(alpha
    N) above the VaR, and the rest of the unit mass shared by the losses
    equal to it (one loss, unless some tie), so that sum_i w_i l_i is the
    CVaR.
    """
    ell, report, f = _dual_value(gamma, terms, qf, spec)
    u2 = terms[1]
    inv = 1.0 / (gamma - qf.eigenvalues)
    scale = 1.0 / (spec.alpha * ell.size)
    at_var = ell == report.var
    w = np.where(ell > report.var, scale, 0.0)
    w[at_var] = (1.0 - report.tail_count * scale) / np.count_nonzero(at_var)
    rate = spec.radius**2 / spec.alpha
    return _Trial(
        gamma=gamma,
        f=f,
        slope=rate - float(w @ (u2 @ (inv * inv))),
        curvature=2.0 * float(w @ (u2 @ (inv * inv * inv))),
        ell=ell,
        report=report,
    )


def _tangent_bound(a: _Trial, b: _Trial) -> tuple[float, float]:
    """Where the tangents at a and b meet, and the value there.

    By convexity that value bounds the objective from below on [a, b].  It
    is taken from the end whose tangent moves less to get there, so a huge
    f near an open boundary does not swamp it.
    """
    meet = a.gamma + ((b.f - a.f - b.slope * (b.gamma - a.gamma))
                      / (a.slope - b.slope))
    meet = min(max(meet, a.gamma), b.gamma)
    rise_a = a.slope * (meet - a.gamma)
    rise_b = b.slope * (meet - b.gamma)
    if abs(rise_a) <= abs(rise_b):
        return meet, a.f + rise_a
    return meet, b.f + rise_b


def _newton_target(p: _Trial, rate: float) -> float:
    """Newton's next gamma for the slope equation, nan when it has none.

    With rate = r^2/alpha and phi = rate - slope, the weighted sum
    sum_ij w_i U_ij / (gamma - lambda_j)^2, the equation g' = 0 reads
    phi^(-1/2) = rate^(-1/2).  For fixed weights the left side is a power
    mean of order -2 of the gamma - lambda_j, so it is concave in gamma, and
    exactly linear when one pole dominates, as it does next to an open
    boundary; Newton's method on g' itself crawls there, gaining a factor
    1.5 in gamma - lambda_max per step.
    """
    phi = rate - p.slope
    if rate > 0.0 and phi > 0.0 and p.curvature > 0.0:
        return p.gamma - 2.0 * phi * (1.0 - math.sqrt(phi / rate)) / p.curvature
    return math.nan


def _bracket_end(dom: GammaDomain, u2: np.ndarray, spec: RiskSpec) -> float:
    """A gamma above the domain where the dual objective's slope is >= 0.

    At gamma = max(lambda_max, 0) + t every pole has gamma - lambda_j >= t,
    so |l_i'| <= max_i sum_j U_ij / t^2, and the tail weights sum to 1: the
    slope r^2/alpha + sum_i w_i l_i' is nonnegative once
    t = sqrt(alpha * max_i sum_j U_ij) / r.  That bound is tight when one
    atom leads the CVaR with all of its U on the top pole, so t is widened
    by a relative 1e-6, which keeps the slope above about 2e-6 r^2/alpha,
    far beyond rounding.  The result is capped at the largest float; below
    a radius of about 1e-154, where r^2 underflows, the slope may stay
    negative up to there, and the infimum is its limit, the nominal CVaR
    to rounding.
    """
    reach = math.sqrt(spec.alpha * float(np.max(u2.sum(axis=1))))
    return min(max(dom.lambda_max, 0.0) + 1.000001 * reach / spec.radius,
               sys.float_info.max)


def _slope_search(a: _Trial, b: _Trial, rate: float, trial) -> _Trial:
    """Minimize the convex objective on a bracket with a.slope < 0 <= b.slope.

    Each step is a Newton step (:func:`_newton_target`) from the latest
    trial when it lands inside the bracket, else the point where the end
    tangents meet; it is a bisection instead when it would be more than
    half the step before last, so the search cannot stall.  The search
    stops when the best value is within ``_GAP_TOL`` of the convexity
    lower bound, or when the bracket is one float wide, and returns the
    trial with the smallest objective value.
    """
    best = min(a, b, key=lambda p: p.f)
    last = b
    step = step_before = math.inf
    while True:
        meet, bound = _tangent_bound(a, b)
        if best.f - bound <= _GAP_TOL * (1.0 + abs(best.f)):
            return best
        gamma = _newton_target(last, rate)
        if not a.gamma < gamma < b.gamma:
            gamma = meet
        if abs(gamma - last.gamma) > 0.5 * step_before:
            gamma = 0.5 * (a.gamma + b.gamma)
        if not a.gamma < gamma < b.gamma:
            return best
        step_before, step = step, abs(gamma - last.gamma)
        last = trial(gamma)
        if last.slope < 0.0:
            a = last
        else:
            b = last
        if last.f < best.f:
            best = last


def worst_case_cvar(qf: QuadraticForm, dist: EmpiricalDistribution,
                    spec: RiskSpec) -> DualCertificate:
    """Worst-case CVaR of a quadratic loss over the transport ball.

    Minimizes :func:`dual_objective` over feasible gamma by a search on its
    slope.  If the slope at the search start is nonnegative, the minimizer
    is the start itself, and ``at_boundary`` is set when the domain's lower
    boundary is open.  Otherwise :func:`_bracket_end` gives a gamma where
    the slope is nonnegative, and :func:`_slope_search` shrinks that bracket
    until the best value found is within ``_GAP_TOL`` of the convexity
    lower bound.  The value is :func:`dual_objective` at gamma_star, and
    the two-variable dual form, evaluated at gamma_star and the optimal
    CVaR threshold, is asserted to agree with it.

    Raises
    ------
    RuntimeError
        If the two dual forms disagree.
    ValueError
        If the radius is zero (the ambiguity set degenerates; use the
        nominal CVaR directly).
    """
    if spec.radius <= 0.0:
        raise ValueError("worst_case_cvar requires radius > 0")
    if qf.dim != dist.dim:
        raise ValueError(f"form dimension {qf.dim} != atom dimension {dist.dim}")

    dom = gamma_domain(qf)
    terms = _loss_terms(qf, dist.atoms)

    def trial(gamma):
        return _trial(gamma, terms, qf, spec)

    best = start = trial(dom.search_start())
    if start.slope < 0.0:
        best = end = trial(max(_bracket_end(dom, terms[1], spec), start.gamma))
        if end.slope >= 0.0:
            best = _slope_search(start, end, spec.radius**2 / spec.alpha,
                                 trial)
    gamma_star = best.gamma

    value = dual_objective(gamma_star, qf, dist, spec)
    tau_star = best.report.var

    # Two-variable dual form at (tau_star, gamma_star) must agree with the
    # one-variable form; they are linked by an exact change of variables.
    value_2d = (
        tau_star
        + (gamma_star * spec.radius**2
           + np.mean(np.maximum(best.ell - tau_star, 0.0))) / spec.alpha
        + qf.c
    )
    if abs(value_2d - value) > 1e-8 * (1.0 + abs(value)):
        raise RuntimeError(
            f"dual-form mismatch: two-variable form {value_2d} vs "
            f"one-variable form {value} at gamma={gamma_star}"
        )

    return DualCertificate(
        gamma_star=float(gamma_star),
        value=float(value),
        at_boundary=bool(dom.lower_open and start.slope >= 0.0),
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
