"""Block-LMI problem container and assembly of the CVaR estimation SDP.

A problem is ``minimize c'x`` subject to a list of linear matrix
inequalities, each an affine symmetric-matrix map

    S_j(x) = M0_j + sum_k x_k * Mk_j  required PSD.

Matrices are stored sparsely as packed lower-triangular entries (an entry at
(p, q) with p > q implies its mirror).  The robust CVaR estimation problem
for an empirical distribution with atoms z_i = (x_i, y_i) builds N per-atom
blocks of size (1+d+n), a 1x1 nonnegativity block for each epigraph slack
s_i and, at alpha = 1, one for tau, with decision vector

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
n(m+1) entries of x.  Variable X[u, v] enters such a block as
a_u c_v' + c_v a_u' with a_u = e_{R_u} for a fixed row set R and c_v
column v of a block-specific matrix C.  A block declares this as its
:class:`MatrixSlot`; :func:`_make_block` generates the slot's sparse
coefficient entries from the declaration, and the solver assembles the
slot's part of the normal matrix from R and C by dense products instead
of entry pairs (see :mod:`drcvar.kernels`).  The slot of atom block i is

    R = 1 + d + (0..n-1),  c_v = e_{1+n+v} - y_iv e_0 (v < m),  c_m = -e_0,

with d = 0 and no e_{1+n+v} term (no F' rows) at radius zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import AffineEstimator, EmpiricalDistribution, RiskSpec


@dataclass(frozen=True)
class MatrixSlot:
    """How a block depends on an n x w matrix variable X.

    Variable X[u, v] has index ``offset + v*n + u`` and coefficient matrix
    e_{rows[u]} c_v' + c_v e_{rows[u]}' with c_v = ``cols[:, v]``; ``cols``
    has one row per row of the block.
    """

    offset: int
    rows: np.ndarray
    cols: np.ndarray

    @property
    def num_vars(self) -> int:
        return self.rows.shape[0] * self.cols.shape[1]

    def entries(self) -> np.ndarray:
        """Packed lower-triangular entries (var, p, q, v) of every variable."""
        n = self.rows.shape[0]
        j, v = np.nonzero(self.cols)
        val = self.cols[j, v]
        u = np.repeat(np.arange(n), j.shape[0])
        r = self.rows[u]
        j, v, val = np.tile(j, n), np.tile(v, n), np.tile(val, n)
        # a diagonal position collects both halves of a_u c_v' + c_v a_u'
        val = np.where(r == j, 2.0 * val, val)
        return np.column_stack([self.offset + v * n + u, np.maximum(r, j),
                                np.minimum(r, j), val])


@dataclass(frozen=True)
class LmiBlock:
    """One PSD constraint: affine map stored as packed lower-tri entries.

    ``const_*`` arrays hold the constant matrix, ``coef_*`` the per-variable
    coefficients (sorted by variable index).  Row >= col for every entry.
    ``slot``, when set, declares the block's matrix-variable dependence;
    its variables' entries are among the ``coef_*`` arrays.
    """

    size: int
    name: str
    const_p: np.ndarray
    const_q: np.ndarray
    const_v: np.ndarray
    coef_var: np.ndarray
    coef_p: np.ndarray
    coef_q: np.ndarray
    coef_v: np.ndarray
    slot: MatrixSlot | None = None

    def dense_constant(self) -> np.ndarray:
        m = np.zeros((self.size, self.size))
        m[self.const_p, self.const_q] = self.const_v
        off = self.const_p != self.const_q
        m[self.const_q[off], self.const_p[off]] = self.const_v[off]
        return m

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Dense S(x) = M0 + sum_k x_k Mk for this block."""
        m = self.dense_constant()
        w = self.coef_v * x[self.coef_var]
        np.add.at(m, (self.coef_p, self.coef_q), w)
        off = self.coef_p != self.coef_q
        np.add.at(m, (self.coef_q[off], self.coef_p[off]), w[off])
        return m

    def expanded(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Both-triangle expansion (var, p, q, v), sorted by var.

        Off-diagonal packed entries appear twice (once per triangle) so that
        Mk = sum_a v_a e_{p_a} e_{q_a}' holds exactly; this is the layout the
        Schur kernel and the solver's scatter/gather paths consume.
        """
        off = self.coef_p != self.coef_q
        var = np.concatenate([self.coef_var, self.coef_var[off]])
        p = np.concatenate([self.coef_p, self.coef_q[off]])
        q = np.concatenate([self.coef_q, self.coef_p[off]])
        v = np.concatenate([self.coef_v, self.coef_v[off]])
        order = np.argsort(var, kind="stable")
        return (var[order].astype(np.int32), p[order].astype(np.int32),
                q[order].astype(np.int32), v[order].astype(np.float64))


@dataclass(frozen=True)
class SdpProblem:
    """Block-diagonal LMI program ``minimize c'x, S_j(x) PSD for all j``."""

    num_vars: int
    objective: np.ndarray
    blocks: tuple[LmiBlock, ...]
    var_layout: dict[str, tuple[int, int]]
    meta: dict = field(default_factory=dict)

    def layout_slice(self, name: str) -> slice:
        lo, hi = self.var_layout[name]
        return slice(lo, hi)


def _coalesce(keys: np.ndarray, vals: np.ndarray):
    """Sum values sharing a key row; keys returned in sorted order."""
    if keys.shape[0] == 0:
        return keys, vals
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    vals = vals[order]
    new_group = np.any(np.diff(keys, axis=0) != 0, axis=1)
    starts = np.concatenate([[0], np.flatnonzero(new_group) + 1])
    summed = np.add.reduceat(vals, starts)
    return keys[starts], summed


def _make_block(size, name, const_entries, coef_entries,
                slot: MatrixSlot | None = None) -> LmiBlock:
    """Block from (p, q, value) constant and (var, p, q, value) coefficient
    entries; the entries of ``slot``'s variables come from the slot alone."""
    coef = np.array(coef_entries, dtype=float).reshape(-1, 4)
    if slot is not None:
        if slot.cols.shape[0] != size or np.any(slot.rows < 0) \
                or np.any(slot.rows >= size):
            raise ValueError(f"block {name}: slot does not fit a size-{size} block")
        if np.any((coef[:, 0] >= slot.offset)
                  & (coef[:, 0] < slot.offset + slot.num_vars)):
            raise ValueError(f"block {name}: entries given for slot variables")
        coef = np.concatenate([coef, slot.entries()])
    if const_entries:
        arr = np.array(const_entries, dtype=float)
        keys, vals = _coalesce(arr[:, :2].astype(np.int64), arr[:, 2])
        cp, cq, cv = keys[:, 0], keys[:, 1], vals
    else:
        cp = cq = np.zeros(0, dtype=np.int64)
        cv = np.zeros(0)
    keys, v = _coalesce(coef[:, :3].astype(np.int64), coef[:, 3])
    var, p, q = keys[:, 0], keys[:, 1], keys[:, 2]
    if np.any(cp < cq) or np.any(p < q):
        raise ValueError(f"block {name}: packed entries must have row >= col")
    return LmiBlock(size=size, name=name,
                    const_p=cp, const_q=cq, const_v=cv,
                    coef_var=var, coef_p=p, coef_q=q, coef_v=v, slot=slot)


def build_drcvar_sdp(dist: EmpiricalDistribution, spec: RiskSpec) -> SdpProblem:
    """Assemble the CVaR estimation SDP for an empirical distribution.

    Parameters
    ----------
    dist : EmpiricalDistribution
        Nominal atoms z_i = (x_i, y_i), uniform weights.
    spec : RiskSpec
        Tail level alpha and transport radius.  Radius zero builds the
        nominal program: no gamma variable and atom blocks of size 1 + n
        (see the module docstring).
    """
    n, m = dist.n, dist.m
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

    blocks = []

    # Per-atom epigraph blocks, size 1 + d + n, in displacement coordinates
    # (see the module docstring); e_i = x_i - A y_i - b fills column 0.
    for i in range(big_n):
        x_i, y_i = atoms[i, :n], atoms[i, n:]
        const = [(1 + d + u, 1 + d + u, 1.0) for u in range(n)]
        const += [(1 + d + u, 0, float(x_i[u])) for u in range(n)]
        coef = [(i_tau, 0, 0, 1.0), (i_s0 + i, 0, 0, 1.0)]
        cols = np.zeros((1 + d + n, m + 1))
        cols[0, :m] = -y_i
        cols[0, m] = -1.0
        if robust:
            const += [(1 + d + u, 1 + u, -1.0) for u in range(n)]
            coef += [(i_gamma, 1 + j, 1 + j, 1.0) for j in range(d)]
            cols[1 + n + np.arange(m), np.arange(m)] = 1.0
        slot = MatrixSlot(offset=0, rows=1 + d + np.arange(n), cols=cols)
        blocks.append(_make_block(1 + d + n, f"atom_{i}", const, coef, slot))

    # Nonnegativity of the epigraph slacks.
    for i in range(big_n):
        blocks.append(_make_block(1, f"s_nonneg_{i}", [],
                                  [(i_s0 + i, 0, 0, 1.0)]))
    if spec.alpha == 1.0:
        # at alpha = 1 the objective is invariant along tau -> -inf with
        # s_i = raw_i - tau, an unbounded optimal ray that stalls the
        # interior-point iterates in cancellation.  The per-atom transform
        # of the (nonnegative) squared loss is itself nonnegative, so
        # tau >= 0 never cuts the optimum; it bounds the degenerate face.
        blocks.append(_make_block(1, "tau_nonneg", [], [(i_tau, 0, 0, 1.0)]))

    layout = {"A": (0, nm), "b": (nm, nm + n)}
    if robust:
        layout["gamma"] = (i_gamma, i_gamma + 1)
    layout["tau"] = (i_tau, i_tau + 1)
    layout["s"] = (i_s0, k_total)
    meta = {"kind": "dr_cvar" if robust else "nominal_cvar", "n": n, "m": m,
            "N": big_n, "alpha": spec.alpha, "radius": spec.radius}
    return SdpProblem(num_vars=k_total, objective=c, blocks=tuple(blocks),
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
    for blk in problem.blocks:
        w = float(np.linalg.eigvalsh(blk.evaluate(x))[0])
        if w < worst:
            worst = w
            worst_name = blk.name
    if worst < -1e-7:
        raise RuntimeError(
            f"solution validation failed: block '{worst_name}' has minimum "
            f"eigenvalue {worst} < -1e-7"
        )
    return AffineEstimator(A=a_mat, b=b_vec), gamma, tau, s
