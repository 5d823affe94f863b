"""Block-LMI problem container and assembly of the CVaR estimation SDP.

A problem is ``minimize c'x`` subject to linear matrix inequalities, each an
affine symmetric-matrix map

    S_j(x) = M0_j + sum_k x_k * Mk_j  required PSD.

The inequalities come in stacks (:class:`LmiStack`): ``count`` blocks of one
size and one sparsity shape, held as the dense (count, s, s) constants, a
matrix-variable slot (below) and the entries of the other variables, each
entry (member, var, p, q, v) putting v at (p, q) of Mk for k = var in that
member.  Entries cover both triangles, so an off-diagonal nonzero appears
once per triangle.  The solver runs on the stacks as given: one batched
factorization per stack and iteration, and the stack's own linear map and
adjoint.

The robust CVaR estimation problem for an empirical distribution with atoms
z_i = (x_i, y_i) has two stacks: ``nonneg``, the 1x1 nonnegativity blocks of
the epigraph slacks s_1..s_N; then ``atom``, the N per-atom blocks of size
(1+d+n).  The decision vector is

    x = [vec(A) column-major, b, gamma, tau, s_1..s_N].

With F = [-I_n, A] the per-atom LMI of the paper reads

    [[tau + s_i + gamma ||z_i||^2, gamma z_i', -b'],
     [gamma z_i,                   gamma I_d,  F' ],
     [-b,                          F,          I_n]]  PSD.

It is assembled after the congruence by T_i = [[1, -z_i'], [0, I_d]] + I_n
(direct sum), which preserves PSD because T_i is invertible:

    [[tau + s_i, 0,         e_i'],
     [0,         gamma I_d, F'  ],
     [e_i,       F,         I_n ]]  PSD,   e_i = x_i - A y_i - b.

In the paper form the corner entry minus the Schur correction of the
gamma z_i column recovers tau + s_i only through the cancellation of
O(gamma ||z_i||^2) terms.  As the radius shrinks the optimal gamma grows
like 1/radius, and that cancellation stalls the interior-point iterates
far from the optimum; in displacement coordinates gamma enters only as
gamma I_d and nothing cancels.

The paper's strict feasibility LMI [[gamma I_d, F'], [F, I_n]] PSD and
gamma >= 0 get no blocks of their own: that matrix is the trailing
principal submatrix of every atom block, and a principal submatrix of a
PSD matrix is PSD.

Start scale
-----------
The solver starts every block at eta I, eta = max(1, ||M0||_F), while the
optimal gamma grows like 1/radius: at small radii the iterates then creep
toward it by a few percent per iteration.  So the builder takes g0, the
gamma* of the constant estimator A = 0, b = x_bar = mean of the x_i, in
closed form:

- F = [-I_n, 0], so Q = F'F has one nonzero eigenvalue, 1, on the x's;
- every transformed loss plus the constant is gamma/(gamma-1) ||e_i||^2,
  here e_i = x_i - x_bar;
- CVaR is positively homogeneous, so the dual objective of
  :mod:`drcvar.dual` is gamma r^2/alpha + gamma/(gamma-1) C0 with
  C0 = CVaR_alpha of the ||e_i||^2;
- its minimizer over gamma > 1 is g0 = 1 + sqrt(alpha C0) / r.

When g0 > 2 eta the builder emits the atom blocks after the congruence
D = diag(1, g0^-1/2 I_d, I_n):

    [[tau + s_i, 0,                   e_i'         ],
     [0,         (gamma / g0) I_d,    g0^-1/2 F'   ],
     [e_i,       g0^-1/2 F,           I_n          ]]  PSD.

D is invertible, so the block is PSD exactly when the unscaled one is;
x keeps its meaning, and the solver's identity start is the start
S0 = eta diag(1, g0 I_d, I_n) of the unscaled block.  gamma's coefficient
becomes I_d / g0, and the -I entries of M0 and the slot's F' rows of C
are scaled by g0^-1/2.  The gate leaves the programs where gamma* is of
the order of eta alone: on the day-ahead reference fit (N = 30, alpha =
0.1, r = 0.01) g0 / eta is about 1.1, and scaling there costs iterations;
at N = 30 with alpha = 1 it is about 2.5.  g0 is capped at 2^1022 so
that 1 / g0 stays a normal float (the quotient overflows to inf below
r of about 1e-308), and a NaN g0 leaves the program unscaled.
``meta["gamma_scale"]`` holds the g0 applied (1.0 when none).

At radius zero the ball holds only the nominal distribution, and the
program is empirical CVaR minimization: the same assembly without gamma,
x = [vec(A), b, tau, s_1..s_N], and atom blocks of size 1 + n

    [[tau + s_i, e_i'],
     [e_i,       I_n ]]  PSD,

the displacement form with its gamma I_d rows and columns removed.

Matrix-variable slot
--------------------
Every block that depends on the estimator does so through the one matrix
variable X = [A b] (n x (m+1)), whose column-major vec is the leading
n(m+1) entries of x.  Variable X[u, v] enters member i of a stack as
a_u c_v' + c_v a_u' with a_u = e_{R_u} for a row set R shared by the stack
and c_v column v of the member's own matrix C_i.  A stack declares this as
its :class:`MatrixSlot`: R, one contiguous range of rows, and the
(count, s, w) stack of C_i.  The stack's map and adjoint and the slot's
part of the normal matrix all read that one form, by dense products
instead of entries (see :mod:`drcvar.kernels`).  The slot of the atom
stack is

    R = 1 + d + (0..n-1),  c_v = e_{1+n+v} - y_iv e_0 (v < m),  c_m = -e_0,

with d = 0 and no e_{1+n+v} term (no F' rows) at radius zero.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .kernels import pair_index
from .model import AffineEstimator, EmpiricalDistribution, RiskSpec
from .risk import cvar_discrete


@dataclass(frozen=True)
class MatrixSlot:
    """How every member of a stack depends on an n x w matrix variable X.

    Variable X[u, v] has index ``offset + v*n + u`` and, in member i, the
    coefficient matrix e_{rows[u]} c' + c e_{rows[u]}' with c =
    ``cols[i, :, v]``; ``cols`` is (count, s, w).  ``rows`` must be one
    ascending contiguous range of integers, so the stack adds into rows R
    through a slice and no row is repeated.
    """

    offset: int
    rows: np.ndarray
    cols: np.ndarray

    def __post_init__(self):
        rows = self.rows
        if rows.ndim != 1 or rows.shape[0] == 0 or np.any(np.diff(rows) != 1) \
                or not np.issubdtype(rows.dtype, np.integer):
            raise ValueError("slot rows are not one contiguous range")

    @property
    def num_vars(self) -> int:
        return self.rows.shape[0] * self.cols.shape[2]

    @cached_property
    def layout(self):
        """(R, S, C_S): the rows R and the shortest range S of rows holding
        every nonzero of C, as slices, and C on S as a contiguous
        (count * len(S), w) array.  The map, adjoint and Schur kernel skip
        the rows outside S (24 of the 73 rows of a day-ahead atom block)."""
        nonzero = np.flatnonzero(np.any(self.cols != 0.0, axis=(0, 2)))
        span = slice(nonzero[0], nonzero[-1] + 1) if nonzero.size \
            else slice(0, 0)
        packed = np.ascontiguousarray(self.cols[:, span, :])
        return (slice(self.rows[0], self.rows[-1] + 1), span,
                packed.reshape(-1, self.cols.shape[2]))


@dataclass(frozen=True)
class LmiStack:
    """``count`` PSD constraints of one size s and shape, named ``name_i``.

    ``m0`` holds the dense (count, s, s) constants.  ``member``, ``var``,
    ``p``, ``q``, ``v`` hold the entries of the variables outside ``slot``,
    both triangles, sorted by member, then variable.  :meth:`linear` and
    :meth:`adjoint` are the stack's linear map and its adjoint: one scatter
    or gather over those entries, plus the slot's part from R and C by
    dense products.
    """

    name: str
    m0: np.ndarray
    member: np.ndarray
    var: np.ndarray
    p: np.ndarray
    q: np.ndarray
    v: np.ndarray
    slot: MatrixSlot | None = None

    def __post_init__(self):
        if any(np.any((idx < 0) | (idx >= bound)) for idx, bound in
               ((self.member, self.count), (self.p, self.size),
                (self.q, self.size))):
            raise ValueError(f"stack {self.name}: an entry lies outside its "
                             f"{self.count} blocks of size {self.size}")
        slot = self.slot
        if slot is None:
            return
        if slot.cols.ndim != 3 or slot.cols.shape[:2] != self.m0.shape[:2] \
                or np.any(slot.rows < 0) or np.any(slot.rows >= self.size):
            raise ValueError(f"stack {self.name}: slot does not fit "
                             f"{self.count} blocks of size {self.size}")
        if np.any((self.var >= slot.offset)
                  & (self.var < slot.offset + slot.num_vars)):
            raise ValueError(f"stack {self.name}: entries given for slot "
                             "variables")

    @property
    def count(self) -> int:
        return self.m0.shape[0]

    @property
    def size(self) -> int:
        return self.m0.shape[1]

    @cached_property
    def _flat(self) -> np.ndarray:
        """Each entry's position in the flattened (count, s, s) stack."""
        return (self.member * self.size + self.p) * self.size + self.q

    @cached_property
    def pairs(self):
        """The :func:`~drcvar.kernels.pair_index` arrays of the entries.

        Built on first use, at the first solve, and kept with the stack.
        """
        return pair_index(self.member, self.var, self.p, self.q, self.v,
                          self.count, self.size)

    def linear(self, x: np.ndarray) -> np.ndarray:
        """Dense (count, s, s) stack of sum_k x_k Mk_i, without M0."""
        out = np.bincount(self._flat, weights=self.v * x[self.var],
                          minlength=self.m0.size).reshape(self.m0.shape)
        slot = self.slot
        if slot is not None:
            n, w = slot.rows.shape[0], slot.cols.shape[2]
            r, span, cols = slot.layout
            # the slot adds R X C_i' + C_i X' R': half = C_i X' on the rows S
            # into columns R, and its transpose into rows R
            x_t = x[slot.offset:slot.offset + n * w].reshape(w, n)
            half = (cols @ x_t).reshape(self.count, -1, n)
            out[:, span, r] += half
            out[:, r, span] += half.transpose(0, 2, 1)
        return out

    def adjoint(self, z: np.ndarray, k: int) -> np.ndarray:
        """Sum over the members of <Mk_i, z_i>, for variables 0..k-1."""
        out = np.bincount(self.var, weights=z.ravel()[self._flat] * self.v,
                          minlength=k)
        slot = self.slot
        if slot is not None:
            n, w = slot.rows.shape[0], slot.cols.shape[2]
            r, span, cols = slot.layout
            # <e_{R_u} c' + c e_{R_u}', z_i> = (z_i[R_u, :] + z_i[:, R_u]') c,
            # summed over the members by one GEMM with axes (u, (i, row))
            z_r = np.empty((n, self.count, span.stop - span.start))
            np.add(z[:, r, span].transpose(1, 0, 2),
                   z[:, span, r].transpose(2, 0, 1), out=z_r)
            g = z_r.reshape(n, -1) @ cols
            out[slot.offset:slot.offset + n * w] += g.T.ravel()
        return out

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Dense (count, s, s) stack of S_i(x) = M0_i + sum_k x_k Mk_i."""
        return self.m0 + self.linear(x)


@dataclass(frozen=True)
class SdpProblem:
    """Block-diagonal LMI program ``minimize c'x, S_j(x) PSD for all j``."""

    num_vars: int
    objective: np.ndarray
    stacks: tuple[LmiStack, ...]
    var_layout: dict[str, tuple[int, int]]
    meta: dict = field(default_factory=dict)

    def layout_slice(self, name: str) -> slice:
        lo, hi = self.var_layout[name]
        return slice(lo, hi)


def _constant_gamma(dist: EmpiricalDistribution, spec: RiskSpec) -> float:
    """gamma* of the constant estimator A = 0, b = x_bar = mean of the
    x_i: 1 + sqrt(alpha C0) / r, C0 the CVaR of the ||x_i - x_bar||^2
    (see the module docstring)."""
    resid = dist.x - dist.x.mean(axis=0)
    c0 = cvar_discrete(np.einsum("ij,ij->i", resid, resid), spec.alpha).cvar
    return 1.0 + math.sqrt(spec.alpha * c0) / spec.radius


def _start_scale(g0: float, eta: float) -> float:
    """The g0 of the start-scale congruence, or 1.0 for none (see the
    module docstring): g0 when it is above 2 eta, capped so that 1 / g0
    is a normal float."""
    return min(g0, 1.0 / sys.float_info.min) if g0 > 2.0 * eta else 1.0


def build_drcvar_sdp(dist: EmpiricalDistribution, spec: RiskSpec) -> SdpProblem:
    """Assemble the CVaR estimation SDP for an empirical distribution.

    Parameters
    ----------
    dist : EmpiricalDistribution
        Nominal atoms z_i = (x_i, y_i), uniform weights.
    spec : RiskSpec
        Tail level alpha and transport radius.  Radius zero builds the
        nominal program: no gamma variable and atom blocks of size 1 + n
        (see the module docstring).  Alpha and a positive radius enter
        the objective, and the start scale g0 (see the module docstring);
        unscaled, the constraints are the same at every alpha and every
        positive radius.
    """
    n, m = dist.n, dist.m
    if n < 1:
        raise ValueError(f"n = {n}: the CVaR SDP needs at least one "
                         "estimated coordinate")
    atoms = dist.atoms
    big_n = dist.size
    nm = n * m
    robust = spec.radius > 0.0
    # width of the gamma I_d block of each atom block; none at radius zero
    d = dist.dim if robust else 0

    i_gamma = nm + n  # only when robust
    i_tau = i_gamma + 1 if robust else i_gamma
    i_s0 = i_tau + 1
    k_total = i_s0 + big_n

    c = np.zeros(k_total)
    c[i_tau] = 1.0
    if robust:
        c[i_gamma] = spec.radius**2 / spec.alpha
    c[i_s0:] = 1.0 / (spec.alpha * big_n)

    # Nonnegativity of the epigraph slacks, one 1x1 block each.
    corner = np.zeros(big_n, dtype=np.int64)
    nonneg = LmiStack("nonneg", np.zeros((big_n, 1, 1)), np.arange(big_n),
                      i_s0 + np.arange(big_n), corner, corner,
                      np.ones(big_n))

    # Per-atom epigraph blocks, size 1 + d + n, in displacement coordinates
    # (see the module docstring); e_i = x_i - A y_i - b fills column 0.
    size = 1 + d + n
    rows = 1 + d + np.arange(n)
    m0 = np.zeros((big_n, size, size))
    m0[:, rows, rows] = 1.0
    m0[:, rows, 0] = m0[:, 0, rows] = atoms[:, :n]
    cols = np.zeros((big_n, size, m + 1))
    cols[:, 0, :m] = -atoms[:, n:]
    cols[:, 0, m] = -1.0
    # the start-scale congruence D = diag(1, g0^-1/2 I_d, I_n); g0 = 1
    # (none) writes the unscaled block, bit for bit
    g0 = 1.0
    if robust:
        f_rows = 1 + np.arange(n)
        m0[:, rows, f_rows] = m0[:, f_rows, rows] = -1.0
        # the solver's start scale eta = max(1, ||M0||_F), unscaled
        eta = max(1.0, math.sqrt(float(np.sum(m0**2))))
        g0 = _start_scale(_constant_gamma(dist, spec), eta)
        root = 1.0 / math.sqrt(g0)
        m0[:, rows, f_rows] = m0[:, f_rows, rows] = -root
        cols[:, 1 + n + np.arange(m), np.arange(m)] = root
    # outside the slot, member i holds gamma I_d / g0, then tau and s_i at
    # (0, 0)
    var = np.column_stack([
        np.tile(np.append(np.full(d, i_gamma), i_tau), (big_n, 1)),
        i_s0 + np.arange(big_n)]).ravel()
    diag = np.tile(np.concatenate([1 + np.arange(d), [0, 0]]), big_n)
    coef = np.ones(var.shape[0])
    coef[var == i_gamma] = 1.0 / g0
    atom = LmiStack("atom", m0, np.repeat(np.arange(big_n), d + 2), var,
                    diag, diag, coef,
                    MatrixSlot(offset=0, rows=rows, cols=cols))

    layout = {"A": (0, nm), "b": (nm, nm + n)}
    if robust:
        layout["gamma"] = (i_gamma, i_gamma + 1)
    layout["tau"] = (i_tau, i_tau + 1)
    layout["s"] = (i_s0, k_total)
    meta = {"kind": "dr_cvar" if robust else "nominal_cvar", "n": n, "m": m,
            "N": big_n, "alpha": spec.alpha, "radius": spec.radius,
            "gamma_scale": g0}
    return SdpProblem(num_vars=k_total, objective=c, stacks=(nonneg, atom),
                      var_layout=layout, meta=meta)


def extract_estimator(problem: SdpProblem, sol) -> tuple[AffineEstimator, float, float, np.ndarray]:
    """Unpack an optimal solution into (estimator, gamma, tau, s).

    gamma is NaN when the layout has none (the radius-zero program).
    Validates sign constraints and the PSD residual of every block at the
    returned point; a violation raises with the worst offender named.
    """
    if sol.status != "optimal":
        raise RuntimeError(f"cannot extract estimator from status '{sol.status}'")
    n = problem.meta["n"]
    m = problem.meta["m"]
    x = sol.x
    a_mat = x[problem.layout_slice("A")].reshape((n, m), order="F")
    b_vec = x[problem.layout_slice("b")]
    gamma = math.nan
    if "gamma" in problem.var_layout:
        gamma = float(x[problem.layout_slice("gamma")][0])
    tau = float(x[problem.layout_slice("tau")][0])
    s = x[problem.layout_slice("s")].copy()

    if gamma < -1e-9:
        raise RuntimeError(f"solution validation failed: gamma = {gamma} < -1e-9")
    if s.size and float(s.min()) < -1e-9:
        raise RuntimeError(f"solution validation failed: min s = {s.min()} < -1e-9")
    worst = 0.0
    worst_name = ""
    for st in problem.stacks:
        w = np.linalg.eigvalsh(st.evaluate(x))[:, 0]
        i = int(np.argmin(w))
        if w[i] < worst:
            worst = float(w[i])
            worst_name = f"{st.name}_{i}"
    if worst < -1e-7:
        raise RuntimeError(
            f"solution validation failed: block '{worst_name}' has minimum "
            f"eigenvalue {worst} < -1e-7"
        )
    return AffineEstimator(A=a_mat, b=b_vec), gamma, tau, s
