"""Reference computations that the tests check the production code against.

Brute-force searches, variational forms and one-point evaluations that the
package itself never needs.  pytest does not collect this module (its name
does not match ``test_*.py``); test modules import it as
``from oracles import ...``.
"""
import math

import numpy as np
import scipy.linalg as sla
from scipy.optimize import minimize

from drcvar import dual
from drcvar.model import (
    AffineEstimator,
    EmpiricalDistribution,
    QuadraticForm,
    RiskSpec,
)
from drcvar.risk import cvar_discrete


def loss_eval(est: AffineEstimator, z) -> float:
    """Squared estimation error ||x - A y - b||^2 at one joint sample z = (x, y)."""
    z = np.asarray(z, dtype=float)
    n, m = est.n, est.m
    if z.shape != (n + m,):
        raise ValueError(f"z has shape {z.shape}, expected ({n + m},)")
    resid = z[:n] - est.predict(z[n:])
    return float(resid @ resid)


def cvar_objective(losses, alpha: float, tau: float) -> float:
    """The variational CVaR objective tau + mean((l - tau)_+) / alpha.

    Its infimum over tau equals ``cvar_discrete(losses, alpha).cvar``.
    """
    ls = np.asarray(losses, dtype=float).ravel()
    return float(tau + np.mean(np.maximum(ls - tau, 0.0)) / alpha)


def phi(tau: float, gamma: float, z, qf: QuadraticForm) -> float:
    """Closed-form per-atom dual transform.

    Returns ((gamma z + q)' Qg^{-1} (gamma z + q) - gamma ||z||^2 - tau)_+
    for gamma strictly inside the feasible domain, and inf below it or on
    an excluded boundary (where the inner supremum is unbounded or only
    attained in the limit).  Evaluated by the batched ``dual._dual_value``
    that ``dual.dual_objective`` and every trial gamma of
    ``dual.worst_case_cvar`` run, as the nominal loss plus the poles
    U_j / (gamma - lambda_j) of ``dual._loss_terms``.
    """
    if not dual.gamma_domain(qf).contains(gamma):
        return math.inf
    atom = np.asarray(z, dtype=float)[None, :]
    ell = dual._dual_value(gamma, dual._loss_terms(qf, atom), qf,
                           RiskSpec(alpha=1.0, radius=1.0))[0]
    return max(float(ell[0]) - tau, 0.0)


def _hinge_objective(v: np.ndarray, tau: float, gamma: float, z: np.ndarray,
                     qf: QuadraticForm) -> float:
    """Inner objective (loss(v) - tau)_+ - gamma ||v - z||^2 at a point v.

    The loss here is the pure quadratic v'Qv + 2q'v (no constant term).
    """
    lv = float(v @ qf.Q @ v + 2.0 * qf.q @ v)
    diff = v - z
    return max(lv - tau, 0.0) - gamma * float(diff @ diff)


def phi_oracle(tau: float, gamma: float, z, qf: QuadraticForm,
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
    dom = dual.gamma_domain(qf)
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

    best_val = -math.inf
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


def primal_candidate(cert: dual.DualCertificate, qf: QuadraticForm,
                     dist: EmpiricalDistribution, spec: RiskSpec,
                     t: float = 1.0) -> tuple[EmpiricalDistribution, float]:
    """Feasible perturbed distribution and its CVaR, a certified lower bound.

    Moves each atom the fraction ``t`` of the way toward its inner maximizer
    v_i* = (gamma* I - Q)^{-1} (gamma* z_i + q) at the certificate's
    gamma_star; ``t`` is scaled down if the mean squared displacement would
    exceed the transport budget.  The returned CVaR never exceeds the dual
    value (weak duality), and approaches it at alpha = 1 when the dual
    minimizer is interior.
    """
    if not (0.0 <= t <= 1.0):
        raise ValueError("t must lie in [0, 1]")
    gamma = cert.gamma_star
    qg = gamma * np.eye(qf.dim) - qf.Q
    transported = sla.solve(qg, (gamma * dist.atoms + qf.q).T,
                            assume_a="pos").T
    disp = transported - dist.atoms
    msd = float(np.mean(np.einsum("ij,ij->i", disp, disp)))
    if msd > 0.0:
        t = min(t, spec.radius / math.sqrt(msd))
    shifted = dist.atoms + t * disp
    perturbed = EmpiricalDistribution(atoms=shifted, n=dist.n, m=dist.m)
    bound = cvar_discrete(qf(shifted), spec.alpha).cvar
    return perturbed, float(bound)
