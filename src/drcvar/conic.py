"""Primal-dual interior-point solver for small/medium block-diagonal SDPs.

Solves ``minimize c'x  s.t.  S_j(x) = M0_j + sum_k x_k Mk_j  PSD`` with an
infeasible-start Mehrotra predictor-corrector method.  Each iteration
computes Nesterov-Todd scaling per block from Cholesky factors and one SVD
(retried with LAPACK's ``gesvd`` driver when the default ``gesdd`` fails to
converge), factors the dense normal (Schur-complement) matrix once, and
takes two directions through one routine: the predictor (affine scaling,
step fraction 1), whose step lengths set sigma = (mu_aff / mu)^3, and the
corrector (centering at sigma * mu plus the second-order term), taken with
one step length for both sides.  A direction's primal and dual step
lengths come from the spectra of Lambda^-1/2 dS~ Lambda^-1/2 and
Lambda^-1/2 dZ~ Lambda^-1/2, dS~ = G^-1 dS G^-T and dZ~ = G' dZ G being
the scaled directions, by one batched ``eigvalsh`` per block stack.  The
predictor's dZ~ is -Lambda - dS~, so its dual spectrum is -1 minus its
primal one: its ``eigvalsh`` takes the primal side alone, and its
right-hand side uses G^-T (-Lambda) G^-1 = -Z (G'ZG = Lambda).  The
corrector's ``eigvalsh`` stacks both sides; its second-order term
(dS~ dZ~ + dZ~ dS~) / 2 is (P + P') / 2 with P = dS~ dZ~ from the
predictor, one product per stack.  These are the NT-scaling identities
SDPT3 is built on.  The corrector goes the fraction
0.9 + 0.099 * alpha_prev of the way to the cone boundary, alpha_prev being
the step length the previous iteration took (1 at the first), after
SDPT3's 0.9 + 0.09 * alpha_prev (Toh, Todd & Tutuncu, Optim. Methods
Softw. 11, 1999).  A fraction pushed
toward 1 as the gap closes leaves each full step next to the boundary, and
the next direction is then blocked after a short step: on an N = 6 fit,
the dual step fell to 0.04-0.13 every other iteration.  A cone block whose
Cholesky factorization fails by rounding has its spectrum floored
(:func:`_cholesky_floored`).

Dense linear algebra throughout, on the problem's block stacks
(:class:`drcvar.sdp.LmiStack`) as given: the per-block factorizations hit
batched LAPACK calls instead of Python loops, the affine map and its
adjoint are the stack's own, and the normal matrix is assembled by one
:func:`drcvar.kernels.schur_accumulate` call per stack, with the pair
index arrays built once per stack and kept with it.  The normal
matrix H, the buffer of its Cholesky factor and the Jacobi scale
jac = sqrt(diag H) are allocated once per solve, so no iteration makes a
K x K temporary.  H is assembled, checked once for finite entries and
equilibrated in place to H[i,j] / jac_i / jac_j, the one frame the normal
equations are solved in (for jac * dx).  A factorization copies it (plus
any ridge) into the buffer, whose transpose, H being symmetric, LAPACK
factors in place as far as SciPy allows (``overwrite_a`` is a permission,
not a promise, so the solves use the factor it returns); the solves skip
the finiteness scan.  Determinism over scalability: sized for problems up
to a few hundred variables and blocks below ~100x100.

SciPy is loaded at the first solve, not when this module is imported:
``solve_sdp`` imports ``scipy.linalg`` for ``cho_factor`` and
``cho_solve`` (NumPy has no triangular solve), as does the ``gesvd``
retry.  A process that never solves (``import drcvar``, ``drcvar
gen-data``, ``drcvar eval``, a least-squares fit) never imports SciPy.

Status classification
---------------------
``optimal``     a finite iterate whose relative complementarity gap <S, Z>,
                relative objective gap |pobj - dobj| / max(1, (|pobj| +
                |dobj|) / 2) and two scaled residuals are each <= ``tol``;
                their maximum is also the merit that ranks the best iterate.
``infeasible``  a diverging dual iterate yields a Farkas-type certificate:
                the dual objective has grown past 1e8 times the primal
                scale while the dual constraint image satisfies
                ||A'Z|| <= 1e-8 * (-<M0, Z>).
``unbounded``   the mirrored test on the primal iterate: c'x diverges below
                -1e8 times the dual scale while x/||x|| is an improving ray
                (c'(x/||x||) <= -1e-8 and min eig of the homogeneous map at
                x/||x|| >= -1e-8).
``max_iter``    iteration cap hit; the best iterate seen is returned.
``numerical``   the normal matrix is not finite, no ridge up to 1e-8 on
                the diagonal of the equilibrated normal matrix made it
                factor, a scaling factorization or search direction
                failed, the step length stayed below 1e-10 for 3
                iterations, or iterates stopped being finite without a
                certificate; the best iterate seen is returned.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import schur_accumulate
from .sdp import SdpProblem

_DIVERGENCE_FACTOR = 1e8
_CERT_TOL = 1e-8
_MIN_STEP = 1e-10
# the corrector's fraction of the step to the cone boundary is
# _FRAC_FLOOR + _FRAC_SLOPE * (the previous iteration's step length)
_FRAC_FLOOR = 0.9
_FRAC_SLOPE = 0.099


@dataclass(frozen=True)
class SolverSettings:
    """Stopping tolerance and iteration cap: ``optimal`` once the relative
    gap, objective gap and both scaled residuals are each at most ``tol``."""

    tol: float = 1e-8
    max_iter: int = 200

    def __post_init__(self):
        if not 0.0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class SdpSolution:
    """Solver output: point, certified objective, and residual summary.

    ``slack_blocks`` and ``dual_blocks`` hold S and Z as one (count, s, s)
    array per stack of the problem.
    """

    status: str
    x: np.ndarray
    objective_value: float
    duality_gap: float
    primal_infeasibility: float
    dual_infeasibility: float
    iterations: int
    slack_blocks: tuple
    dual_blocks: tuple


def _normal_matrix(stacks, u_w, h_mat):
    """Fill h_mat with H[k,l] = sum_j <Mk, W_j^-1 Ml W_j^-1>, both triangles.

    ``u_w`` holds the (count, s, s) stack of W^-1 per block stack; h_mat is
    zeroed first.  The kernel is called once per stack through this
    module's ``schur_accumulate`` attribute, so a wrapper installed there
    sees every call.
    """
    h_mat.fill(0.0)
    for st, u in zip(stacks, u_w):
        schur_accumulate(h_mat, u, st.member, st.p, st.q, st.v, st.pairs,
                         st.slot)


def _diag(stack):
    """Writable view of the diagonals of a (count, s, s) stack, (count, s)."""
    return np.einsum("...ii->...i", stack)


def _step_lengths(w_p, w_d, frac):
    """(a_p, a_d): frac times the longest step that keeps each side PSD,
    capped at 1, from the smallest eigenvalues of the scaled directions
    Lambda^-1/2 dS~ Lambda^-1/2 (w_p) and Lambda^-1/2 dZ~ Lambda^-1/2
    (w_d), one array per block stack."""
    steps = []
    for w_min in (w_p, w_d):
        w_min = min(float(w.min()) for w in w_min)
        steps.append(min(1.0, frac * (-1.0 / w_min))
                     if w_min < -1e-14 else 1.0)
    return steps


def _left_svd(stack):
    """Left singular vectors and singular values of a stack of matrices.

    NumPy's SVD uses LAPACK's divide-and-conquer driver ``gesdd``, which can
    report non-convergence on finite, moderately conditioned iterates; the
    QR-iteration driver ``gesvd`` is slower but converges on those.  The
    retry is live: in perfbench's seed-1 ``fit_n6`` window 3, ``gesdd``
    (NumPy's and SciPy's OpenBLAS alike) has failed once per fit on a
    73 x 73 member of condition number 3.6 that ``gesvd``, and ``gesdd`` of
    the transpose, converge on; whether an iterate trips it moves with its
    last bits.
    """
    try:
        u_sv, sig, _ = np.linalg.svd(stack)
    except np.linalg.LinAlgError:
        import scipy.linalg as sla

        u_sv, sig, _ = sla.svd(stack, lapack_driver="gesvd")
    return u_sv, sig


def _cholesky_floored(stack):
    """Cholesky factors of a stack of symmetric matrices, and the stack.

    Rounding can push the smallest eigenvalue of a cone block marginally
    negative near convergence.  When the factorization fails, the spectrum
    of every member is floored at 1e-14 times its largest eigenvalue (at
    least 1e-14) and the repaired stack is returned with its factors, so
    the caller can store it and keep the residuals consistent.
    """
    try:
        return np.linalg.cholesky(stack), stack
    except np.linalg.LinAlgError:
        w, vecs = np.linalg.eigh(stack)
        floor = 1e-14 * np.maximum(w[:, -1], 1.0)
        w = np.maximum(w, floor[:, None])
        repaired = (vecs * w[:, None, :]) @ vecs.transpose(0, 2, 1)
        repaired = 0.5 * (repaired + repaired.transpose(0, 2, 1))
        return np.linalg.cholesky(repaired), repaired


def _residuals(problem: SdpProblem, x, s_st, z_st, norm_m0, norm_c):
    """(r_p, r_d, A'(Z), <S, Z>, pinf, dinf) at a primal/dual point.

    r_p = (S - M0) - A(x) per stack and r_d = c - A'(Z); pinf and dinf are
    their norms over 1 + ||M0|| and 1 + ||c||.  The stopping test and
    :func:`certify` both read them, so they agree bit for bit.
    """
    r_p = [s - st.m0 - st.linear(x) for s, st in zip(s_st, problem.stacks)]
    atz = sum(st.adjoint(z, problem.num_vars)
              for z, st in zip(z_st, problem.stacks))
    r_d = problem.objective - atz
    gap = sum(float(np.sum(s * z)) for s, z in zip(s_st, z_st))
    pinf = math.sqrt(sum(float(np.sum(r**2)) for r in r_p)) / (1.0 + norm_m0)
    dinf = float(np.linalg.norm(r_d)) / (1.0 + norm_c)
    return r_p, r_d, atz, gap, pinf, dinf


def certify(problem: SdpProblem, x: np.ndarray, slack_blocks, dual_blocks):
    """Recompute gap and scaled residuals for a candidate primal/dual pair.

    ``slack_blocks`` and ``dual_blocks`` hold one (count, s, s) array per
    stack of the problem.  Used both by the solver post-solve and by tests
    that verify the reported numbers independently.
    """
    norm_m0 = math.sqrt(sum(float(np.sum(st.m0**2)) for st in problem.stacks))
    norm_c = float(np.linalg.norm(problem.objective))
    _, _, _, gap, pinf, dinf = _residuals(problem, x, slack_blocks,
                                          dual_blocks, norm_m0, norm_c)
    return gap, pinf, dinf


def solve_sdp(problem: SdpProblem, settings: SolverSettings | None = None) -> SdpSolution:
    """Solve a block-diagonal LMI program.

    Deterministic: identical problems and settings produce identical iterate
    sequences.  See the module docstring for status semantics.
    """
    import scipy.linalg as sla

    if settings is None:
        settings = SolverSettings()

    k_total = problem.num_vars
    c = problem.objective
    stacks = problem.stacks
    dim = sum(st.size * st.count for st in stacks)

    norm_m0 = math.sqrt(sum(float(np.sum(st.m0**2)) for st in stacks))
    norm_c = float(np.linalg.norm(c))

    x = np.zeros(k_total)
    eta_p = max(1.0, norm_m0)
    eta_d = max(1.0, norm_c)
    s_st = [np.repeat(eta_p * np.eye(st.size)[None], st.count, axis=0)
            for st in stacks]
    z_st = [np.repeat(eta_d * np.eye(st.size)[None], st.count, axis=0)
            for st in stacks]

    # per-solve workspace: the normal matrix, the buffer of its factor and
    # the equilibration scale; local to the call, as radius_sweep solves on
    # threads
    h_mat = np.empty((k_total, k_total))
    h_fact = np.empty((k_total, k_total))
    jac = np.empty(k_total)

    best = None  # (merit, x, S stacks, Z stacks)

    def finish(status, it, xs=None, ss=None, zs=None):
        xs = x if xs is None else xs
        ss = s_st if ss is None else ss
        zs = z_st if zs is None else zs
        gap, pinf, dinf = certify(problem, xs, ss, zs)
        return SdpSolution(
            status=status, x=xs, objective_value=float(c @ xs),
            duality_gap=gap, primal_infeasibility=pinf,
            dual_infeasibility=dinf, iterations=it,
            slack_blocks=tuple(ss), dual_blocks=tuple(zs),
        )

    def fail(status, it):
        return finish(status, it, *(best[1:] if best else ()))

    stall_count = 0
    alpha = 1.0  # the previous iteration's step length
    for it in range(settings.max_iter):
        r_p, r_d, atz, gap, pinf, dinf = _residuals(problem, x, s_st, z_st,
                                                    norm_m0, norm_c)
        mu = gap / dim
        pobj = float(c @ x)
        dobj = -sum(float(np.sum(st.m0 * z_st[gi_]))
                    for gi_, st in enumerate(stacks))
        obj_scale = max(1.0, 0.5 * (abs(pobj) + abs(dobj)))
        relgap = gap / obj_scale
        objgap = abs(pobj - dobj) / obj_scale

        finite = (np.all(np.isfinite(x)) and math.isfinite(gap)
                  and math.isfinite(pobj) and math.isfinite(dobj))

        merit = max(relgap, objgap, pinf, dinf)
        if finite and merit <= settings.tol:
            return finish("optimal", it)
        if finite and (best is None or merit < best[0]):
            best = (merit, x.copy(), [s.copy() for s in s_st],
                    [z.copy() for z in z_st])

        # Farkas-style certificates from diverging iterates.
        znorm = math.sqrt(sum(float(np.sum(z**2)) for z in z_st))
        if dobj > _DIVERGENCE_FACTOR * max(1.0, abs(pobj), norm_m0):
            if np.linalg.norm(atz) <= _CERT_TOL * dobj:
                return finish("infeasible", it)
        xnorm = float(np.linalg.norm(x))
        if pobj < -_DIVERGENCE_FACTOR * max(1.0, abs(dobj), norm_c) and xnorm > 0:
            ray = x / xnorm
            ray_min = min(float(np.min(np.linalg.eigvalsh(st.linear(ray))))
                          for st in stacks)
            if float(c @ ray) <= -_CERT_TOL and ray_min >= -_CERT_TOL:
                return finish("unbounded", it)

        if not finite or znorm > 1e150 or xnorm > 1e150 or mu <= 0.0:
            return fail("numerical", it)

        # Nesterov-Todd scaling, batched per size group:
        # G^-1 = diag(sig^-1/2) Usv' Lz', lambda = sig, W^-1 = G^-T G^-1.
        g_inv, g_inv_t, lam, u_w, rt_outer = [], [], [], [], []
        try:
            for gi_, st in enumerate(stacks):
                l_s, s_st[gi_] = _cholesky_floored(s_st[gi_])
                l_z, z_st[gi_] = _cholesky_floored(z_st[gi_])
                u_sv, sig = _left_svd(l_z.transpose(0, 2, 1) @ l_s)
                ginv = ((u_sv / np.sqrt(sig)[:, None, :]).transpose(0, 2, 1)
                        @ l_z.transpose(0, 2, 1))
                g_inv.append(ginv)
                g_inv_t.append(ginv.transpose(0, 2, 1).copy())
                lam.append(sig)
                u_w.append(ginv.transpose(0, 2, 1) @ ginv)
                root = np.sqrt(sig)
                rt_outer.append(root[:, :, None] * root[:, None, :])
        except np.linalg.LinAlgError:
            return fail("numerical", it)

        _normal_matrix(stacks, u_w, h_mat)
        # the one finiteness check of H; the factor and solves skip theirs
        if not np.isfinite(h_mat).all():
            return fail("numerical", it)

        # Jacobi equilibration keeps the factorization accurate when the
        # variable scales diverge (e.g. the transport multiplier blows up
        # as the radius shrinks).  From here on h_mat holds
        # H[i,j] / jac_i / jac_j, and each direction is solved for jac * dx.
        np.sqrt(np.maximum(np.diagonal(h_mat), 1e-300), out=jac)
        np.divide(h_mat, jac[:, None], out=h_mat)
        np.divide(h_mat, jac, out=h_mat)
        ridge = 0.0
        while True:
            np.copyto(h_fact, h_mat)
            if ridge > 0.0:
                h_fact.flat[::k_total + 1] += ridge
            try:
                # h_fact.T is the copy in Fortran order (H is symmetric),
                # which LAPACK can factor in place; overwrite_a only permits
                # that, so solve with the factor returned
                factor, _ = sla.cho_factor(h_fact.T, lower=True,
                                           overwrite_a=True,
                                           check_finite=False)
                break
            except np.linalg.LinAlgError:
                ridge = 1e-13 if ridge == 0.0 else ridge * 100.0
                if ridge > 1e-8:
                    return fail("numerical", it)

        def solve_eq(vec):
            return sla.cho_solve((factor, True), vec, check_finite=False)

        # W^-1 R_p W^-1, the primal residual's part of both right-hand sides
        wrw = [u @ r @ u for u, r in zip(u_w, r_p)]

        def direction(t_st):
            # dx for the right-hand side -r_d + sum_j A_j'(t_j), with dS and
            # its scaled form G^-1 dS G^-T per stack
            rhs = -r_d
            for t, st in zip(t_st, stacks):
                rhs += st.adjoint(t, k_total)
            rhs /= jac
            dx = solve_eq(rhs)
            # iterative refinement; the normal matrix gets ill-conditioned
            # near convergence despite the equilibration, and any ridge
            # perturbs the factorization
            for _ in range(2 if ridge > 0.0 else 1):
                dx += solve_eq(rhs - h_mat @ dx)
            dx /= jac
            ds = [st.linear(dx) - r for st, r in zip(stacks, r_p)]
            ds_sc = [gi @ d @ git for gi, d, git in zip(g_inv, ds, g_inv_t)]
            return dx, ds, ds_sc

        frac = _FRAC_FLOOR + _FRAC_SLOPE * alpha
        try:
            # predictor: the affine-scaling direction, full step lengths.
            # Its target is -Lambda, so its right-hand side holds
            # G^-T (-Lambda) G^-1 = -Z, and dZ~ = -Lambda - dS~: in the
            # Lambda^-1/2 frame the dual spectrum is -1 minus the primal
            # one, and one eigvalsh gives both step lengths
            _, _, dss_a = direction([t - z for t, z in zip(wrw, z_st)])
            w_sc = [np.linalg.eigvalsh(d / ro)
                    for d, ro in zip(dss_a, rt_outer)]
            ap_aff, ad_aff = _step_lengths([w[:, 0] for w in w_sc],
                                           [-1.0 - w[:, -1] for w in w_sc],
                                           1.0)
            dzs_a, mu_aff = [], 0.0
            for d_s, lam_g in zip(dss_a, lam):
                d_z = -d_s
                _diag(d_z)[...] -= lam_g
                dzs_a.append(d_z)
                s_aff = ap_aff * d_s
                _diag(s_aff)[...] += lam_g
                z_aff = ad_aff * d_z
                _diag(z_aff)[...] += lam_g
                mu_aff += float(np.sum(s_aff * z_aff))
            mu_aff /= dim
            sigma = min(1.0, max(1e-8, (max(mu_aff, 0.0) / mu) ** 3))

            # corrector: centering at sigma * mu plus the second-order term
            # (dS~ dZ~ + dZ~ dS~) / 2 = (P + P') / 2, P = dS~ dZ~, both
            # being symmetric
            rtc = []
            for d_s, d_z, lam_g in zip(dss_a, dzs_a, lam):
                corr = d_s @ d_z
                corr += corr.transpose(0, 2, 1)
                corr *= -0.5
                _diag(corr)[...] += sigma * mu - lam_g**2
                corr /= 0.5 * (lam_g[:, :, None] + lam_g[:, None, :])
                rtc.append(corr)
            dx, ds, dss = direction([git @ r @ gi + t for git, r, gi, t
                                     in zip(g_inv_t, rtc, g_inv, wrw)])
            dzs = [r - d for r, d in zip(rtc, dss)]
            w_sc = [np.linalg.eigvalsh(np.stack([d_s, d_z]) / ro)
                    for d_s, d_z, ro in zip(dss, dzs, rt_outer)]
            a_p, a_d = _step_lengths([w[0, :, 0] for w in w_sc],
                                     [w[1, :, 0] for w in w_sc], frac)
        except (np.linalg.LinAlgError, ValueError):
            return fail("numerical", it)
        # a single step length for both sides
        alpha = min(a_p, a_d)

        if alpha < _MIN_STEP:
            stall_count += 1
            if stall_count >= 3:
                return fail("numerical", it)
        else:
            stall_count = 0

        x = x + alpha * dx
        for gi_ in range(len(stacks)):
            s_new = s_st[gi_] + alpha * ds[gi_]
            dz = g_inv_t[gi_] @ dzs[gi_] @ g_inv[gi_]
            z_new = z_st[gi_] + alpha * dz
            s_st[gi_] = 0.5 * (s_new + s_new.transpose(0, 2, 1))
            z_st[gi_] = 0.5 * (z_new + z_new.transpose(0, 2, 1))

    return fail("max_iter", settings.max_iter)
