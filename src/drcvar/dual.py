"""Worst-case CVaR of a quadratic loss over a Wasserstein ball, by duality.

For the loss z'Qz + 2q'z (constant handled by translation) over the type-2
transport ball of radius r around an empirical distribution, the worst-case
CVaR at level alpha equals a one-dimensional convex minimization

    inf_{gamma in G}  gamma*r^2/alpha
                      + CVaR_alpha( (gamma z_i + q)' Qg^{-1} (gamma z_i + q)
                                    - gamma ||z_i||^2 ),

where Qg = gamma*I - Q and G = { gamma >= 0 : Qg positive definite }.  The
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
import scipy.linalg as sla
from scipy.optimize import minimize

from .model import (
    AffineEstimator,
    EmpiricalDistribution,
    QuadraticForm,
    RiskSpec,
    loss_batch,
)
from .risk import cvar_discrete

#: Saturating stand-in for an infinite objective value.  Callers must treat
#: it as a comparison-only marker (never feed it into arithmetic).
INF_MARKER = float("inf")

#: Relative margin above the largest eigenvalue of Q at which the gamma
#: search starts; the open boundary itself is excluded.
GAMMA_BOUNDARY_MARGIN = 1e-6

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def is_infinite(value: float) -> bool:
    """True when ``value`` is the saturating infinity marker."""
    return math.isinf(value)


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
        return lam * (1.0 + GAMMA_BOUNDARY_MARGIN) + 1e-9


@dataclass(frozen=True)
class DualCertificate:
    """Minimizer data returned by :func:`worst_case_cvar`.

    gamma_star and tau_star are the optimal dual scalars, value the
    worst-case CVaR (constant term included), and per_atom_transported the
    (N, d) matrix of inner maximizers v_i* = Qg^{-1} (gamma z_i + q).
    at_boundary is set when the minimizer converged onto the open lower
    boundary of the gamma domain, where the infimum is approached but not
    attained.
    """

    gamma_star: float
    tau_star: float
    value: float
    per_atom_transported: np.ndarray
    at_boundary: bool = False


def gamma_domain(qf: QuadraticForm) -> GammaDomain:
    """Feasible gamma set for the dual of a quadratic worst-case problem."""
    lam = float(np.linalg.eigvalsh(qf.Q)[-1])
    return GammaDomain(lambda_max=lam, lower_open=lam >= 0.0)


def _hinge_objective(v: np.ndarray, tau: float, gamma: float, z: np.ndarray,
                     qf: QuadraticForm) -> float:
    """Inner objective (loss(v) - tau)_+ - gamma ||v - z||^2 at a point v.

    The loss here is the pure quadratic v'Qv + 2q'v (no constant term).
    """
    lv = float(v @ qf.Q @ v + 2.0 * qf.q @ v)
    diff = v - z
    return max(lv - tau, 0.0) - gamma * float(diff @ diff)


def phi(tau: float, gamma: float, z: np.ndarray, qf: QuadraticForm) -> float:
    """Closed-form per-atom dual transform.

    Returns ((gamma z + q)' Qg^{-1} (gamma z + q) - gamma ||z||^2 - tau)_+
    for gamma strictly inside the feasible domain, and the infinity marker
    below or on an excluded boundary (where the inner supremum is unbounded
    or only attained in the limit).  Evaluated by the batched
    :func:`_transformed_losses` that :func:`dual_objective` runs.
    """
    if not gamma_domain(qf).contains(gamma):
        return INF_MARKER
    atom = np.asarray(z, dtype=float)[None, :]
    return max(float(_transformed_losses(gamma, qf, atom)[0]) - tau, 0.0)


def phi_oracle(tau: float, gamma: float, z: np.ndarray, qf: QuadraticForm,
               grid_radius: float = 4.0, grid_steps: int = 11) -> float:
    """Brute-force evaluation of the per-atom supremum defining :func:`phi`.

    Maximizes (loss(v) - tau)_+ - gamma ||v - z||^2 over a dense grid around
    both the atom z and the analytic maximizer, then polishes the best point
    by derivative-free local ascent.  The returned value never exceeds the
    true supremum (every evaluation is feasible), and converges to it as the
    grid refines; it is the independent check on the closed form.
    """
    z = np.asarray(z, dtype=float)
    d = z.shape[0]
    dom = gamma_domain(qf)
    if not dom.contains(gamma):
        raise ValueError(
            f"gamma={gamma} is outside the interior of the feasible domain "
            f"(lambda_max={dom.lambda_max}); the supremum is unbounded there"
        )

    qg = gamma * np.eye(d) - qf.Q
    v_analytic = sla.solve(qg, gamma * z + qf.q, assume_a="pos")

    offsets = np.linspace(-grid_radius, grid_radius, grid_steps)
    grids = np.stack(np.meshgrid(*([offsets] * d), indexing="ij"), axis=-1)
    grids = grids.reshape(-1, d)

    best_val = -INF_MARKER
    best_v = z
    for center in (z, v_analytic):
        pts = center + grids
        lv = np.einsum("ij,jk,ik->i", pts, qf.Q, pts) + 2.0 * pts @ qf.q
        diff = pts - z
        vals = np.maximum(lv - tau, 0.0) - gamma * np.einsum("ij,ij->i", diff, diff)
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val = float(vals[i])
            best_v = pts[i]

    res = minimize(
        lambda v: -_hinge_objective(v, tau, gamma, z, qf),
        best_v,
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000},
    )
    polished = float(-res.fun)
    return max(best_val, polished)


def _transformed_losses(gamma: float, qf: QuadraticForm,
                        atoms: np.ndarray) -> np.ndarray:
    """Per-atom values (gamma z + q)' Qg^{-1} (gamma z + q) - gamma ||z||^2.

    One Cholesky factorization of Qg serves all atoms.
    """
    d = atoms.shape[1]
    qg = gamma * np.eye(d) - qf.Q
    L = np.linalg.cholesky(qg)
    w = gamma * atoms + qf.q
    half = sla.solve_triangular(L, w.T, lower=True)
    quad = np.einsum("ji,ji->i", half, half)
    return quad - gamma * np.einsum("ij,ij->i", atoms, atoms)


def dual_objective(gamma: float, qf: QuadraticForm, dist: EmpiricalDistribution,
                   spec: RiskSpec) -> float:
    """Scalar dual objective at a fixed gamma (constant term included).

    Evaluates gamma*r^2/alpha + CVaR_alpha of the transformed per-atom
    losses, plus the constant offset of the quadratic form.  Returns the
    infinity marker when gamma is outside the strict interior of the
    feasible domain.
    """
    if not gamma_domain(qf).contains(gamma):
        return INF_MARKER
    try:
        ell = _transformed_losses(gamma, qf, dist.atoms)
    except np.linalg.LinAlgError:
        return INF_MARKER
    if not np.all(np.isfinite(ell)):
        return INF_MARKER
    report = cvar_discrete(ell, spec.alpha)
    return gamma * spec.radius**2 / spec.alpha + report.cvar + qf.c


def worst_case_cvar(qf: QuadraticForm, dist: EmpiricalDistribution,
                    spec: RiskSpec, tol: float = 1e-10,
                    max_expand: int = 200) -> DualCertificate:
    """Worst-case CVaR of a quadratic loss over the transport ball.

    Minimizes :func:`dual_objective` over feasible gamma by doubling
    expansion (to bracket the convex, coercive objective) followed by
    golden-section search to relative width ``tol``.  The certificate also
    records the optimal CVaR threshold tau_star and the per-atom inner
    maximizers; the two-variable dual form evaluated at (tau_star,
    gamma_star) is asserted to agree with the returned value.

    Raises
    ------
    RuntimeError
        If no finite bracket is found after ``max_expand`` doublings.
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
    f_lo = dual_objective(lo, qf, dist, spec)
    if is_infinite(f_lo):
        # pathological conditioning right at the margin; nudge upward
        lo = lo + max(1.0, abs(dom.lambda_max)) * 1e-6
        f_lo = dual_objective(lo, qf, dist, spec)
        if is_infinite(f_lo):
            raise RuntimeError(f"dual objective infinite at search start gamma={lo}")

    # Doubling expansion: stop once the objective increases, which brackets
    # the minimizer of a convex function.
    step = max(1.0, abs(dom.lambda_max))
    hi = lo + step
    f_prev = f_lo
    hi_prev = lo
    for _ in range(max_expand):
        f_hi = dual_objective(hi, qf, dist, spec)
        if f_hi > f_prev:
            break
        f_prev = f_hi
        hi_prev = hi
        hi = lo + 2.0 * (hi - lo)
    else:
        raise RuntimeError(
            f"no bracket after {max_expand} doublings: last gamma={hi}, "
            f"objective={f_prev} (bracket state: lo={lo}, hi_prev={hi_prev})"
        )

    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1 = dual_objective(x1, qf, dist, spec)
    f2 = dual_objective(x2, qf, dist, spec)
    while (b - a) > tol * max(1.0, abs(b)):
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

    qg = gamma_star * np.eye(qf.dim) - qf.Q
    transported = sla.solve(qg, (gamma_star * dist.atoms + qf.q).T,
                            assume_a="pos").T

    boundary = dom.lower_open and (
        gamma_star - dom.lambda_max
        <= 10.0 * (dom.search_start() - dom.lambda_max)
    )
    return DualCertificate(
        gamma_star=float(gamma_star),
        tau_star=float(tau_star),
        value=float(value),
        per_atom_transported=transported,
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


def primal_candidate(cert: DualCertificate, qf: QuadraticForm,
                     dist: EmpiricalDistribution, spec: RiskSpec,
                     t: float = 1.0) -> tuple[EmpiricalDistribution, float]:
    """Feasible perturbed distribution and its CVaR, a certified lower bound.

    Moves each atom the fraction ``t`` of the way toward its inner maximizer
    v_i*; ``t`` is scaled down if the mean squared displacement would exceed
    the transport budget.  The returned CVaR never exceeds the dual value
    (weak duality), and approaches it at alpha = 1 when the dual minimizer
    is interior.
    """
    if not (0.0 <= t <= 1.0):
        raise ValueError("t must lie in [0, 1]")
    disp = cert.per_atom_transported - dist.atoms
    msd = float(np.mean(np.einsum("ij,ij->i", disp, disp)))
    if msd > 0.0:
        t_cap = spec.radius / math.sqrt(msd)
        t = min(t, t_cap)
    shifted = dist.atoms + t * disp
    perturbed = EmpiricalDistribution(atoms=shifted, n=dist.n, m=dist.m)
    losses = np.einsum("ij,jk,ik->i", shifted, qf.Q, shifted) \
        + 2.0 * shifted @ qf.q + qf.c
    bound = cvar_discrete(losses, spec.alpha).cvar
    return perturbed, float(bound)
