"""Schur-complement (normal matrix) assembly.

The interior-point solver spends most of its time forming the normal matrix
H[j, k] = sum over blocks of <M_j, U M_k U>, U = W^-1 the scaling matrix
of each block, from the constraint matrices M.  The problem comes as
stacks of blocks of one size and shape (:class:`drcvar.sdp.LmiStack`),
and ``schur_accumulate`` adds one stack's whole contribution to H, in both
triangles.

Contract
--------
``schur_accumulate(H, U, member, p, q, v, index, slot=None)`` takes the
(count, s, s) stack U of the blocks' scaling matrices, the stack's entries
outside the slot, their pair index arrays ``index`` and the stack's
:class:`drcvar.sdp.MatrixSlot` (none when ``slot`` is None).  Entry e puts
v_e at (p_e, q_e) of the constraint matrix of variable var_e in block
member_e; the entries cover both triangles (an off-diagonal nonzero
appears once per triangle) and are sorted by ``member``, as the stack holds
them.  The variables var_e reach the kernel only through the index arrays
(:func:`pair_index`), which depend only on the entries, so they are built
once per stack (:attr:`drcvar.sdp.LmiStack.pairs`, at its first solve)
and passed on every call.  The slot is read through
``slot.layout`` (R, the nonzero rows S of C, C_S), as the stack's own map
and adjoint read it, so U C = U[:, S] C_S.

Other x other: every ordered pair (a, b) of entries of the same block i adds

    H[var_a, var_b] += v_a v_b U_i[p_a, p_b] U_i[q_a, q_b].

The pairs are formed explicitly, so the index arrays take memory of the
order of sum_i t_i^2 for t_i entries of block i outside the slot (about 50
per atom block of the robust SDP).

Slot x slot: X[u, v], variable ``slot.offset + v*n + u`` with n = |R|,
enters block i as a_u c_v' + c_v a_u' with a_u = e_{R_u} for the row range
R shared by the stack and c_v column v of the block's own C_i =
``slot.cols[i]``.  With U_RR = R'UR, U_CC = C'UC and U_RC = R'UC per block,

    H[(u,v), (u',v')] = 2 sum_i (U_RR[u,u'] U_CC[v,v'] + U_RC[u,v'] U_RC[u',v]),

two GEMMs with the block count as inner dimension: the dense-structure
case of Fujisawa, Kojima and Nakata, "Exploiting sparsity in primal-dual
interior-point methods for semidefinite programming", Math. Prog. 79
(1997).  Both GEMMs give their terms with the axes of H permuted, so the
slot x slot block of H is written one row block (rows (c, u) for a few
columns c of X) at a time: each block's two GEMMs are restricted to its
rows, and their transposed tiles, about 512 KB, are added into H while
they are still in cache.  Adding full-size products instead moves the
whole block through memory twice per stack.

Slot x other: for a variable k outside the slot, over its entries e,

    H[(u,v), k] = 2 sum_{e in k} v_e (U_i C_i)[q_e, v] U_i[R_u, p_e],

one (w, n) GEMM per variable whose inner dimension is that variable's own
entries (``index.order`` and ``index.bounds``), laid out as vec(X).
"""
from typing import NamedTuple

import numpy as np

__all__ = ["PairIndex", "pair_index", "schur_accumulate"]


class PairIndex(NamedTuple):
    """Index arrays of one stack's entries; see :func:`pair_index`."""

    present: np.ndarray
    key: np.ndarray
    at_p: np.ndarray
    at_q: np.ndarray
    weight: np.ndarray
    order: np.ndarray
    bounds: np.ndarray


def pair_index(member, var, p, q, v, count, size):
    """Index arrays of the entry pairs of a stack of ``count`` blocks.

    They depend only on the entries, so each stack builds them once.
    ``present`` holds the distinct variables, and each ordered pair
    (a, b) of entries of one block gets its flat position ``key`` in the
    present x present block, the flat positions ``at_p``, ``at_q`` of
    U_i[p_a, p_b] and U_i[q_a, q_b] in the (count, size, size) stack, and
    ``weight`` v_a v_b.  ``order`` sorts the entries by variable, stably,
    so the entries of ``present[j]`` are ``order[bounds[j]:bounds[j+1]]``;
    the slot x other rows are summed per variable over them.
    """
    t = member.shape[0]
    present, local = np.unique(var, return_inverse=True)
    k = present.shape[0]
    # every ordered pair (a, b) of entries that share a block: b runs over
    # the block of a, whose entries start at start[member[a]]
    sizes = np.bincount(member, minlength=count)
    start = np.cumsum(sizes) - sizes
    reps = sizes[member]
    a = np.repeat(np.arange(t), reps)
    ma = member[a]
    b = start[ma] + np.arange(a.shape[0]) \
        - np.repeat(np.cumsum(reps) - reps, reps)
    base = ma * (size * size)
    return PairIndex(
        present=present, key=local[a] * k + local[b],
        at_p=base + p[a] * size + p[b], at_q=base + q[a] * size + q[b],
        weight=v[a] * v[b], order=np.argsort(var, kind="stable"),
        bounds=np.append(0, np.cumsum(np.bincount(local, minlength=k))))


def schur_accumulate(H, U, member, p, q, v, index, slot=None):
    """Add one stack's contribution to H (K x K), in both triangles.

    ``index`` is the stack's :func:`pair_index`, ``slot`` its ``MatrixSlot``.
    See the module docstring for the contract.
    """
    count = U.shape[0]
    k = index.present.shape[0]
    flat = U.reshape(-1)
    pair = index.weight * np.take(flat, index.at_p)
    pair *= np.take(flat, index.at_q)
    small = np.bincount(index.key, weights=pair, minlength=k * k)
    H[np.ix_(index.present, index.present)] += small.reshape(k, k)
    if slot is None:
        return

    n, w = slot.rows.shape[0], slot.cols.shape[2]
    r, span, cols = slot.layout
    n_x = n * w
    x_vars = slice(slot.offset, slot.offset + n_x)
    cols = cols.reshape(count, -1, w)
    uc = U[:, :, span] @ cols
    u_rr = U[:, r, r].reshape(count, n * n)
    u_cc2 = 2.0 * (cols.transpose(0, 2, 1) @ uc[:, span, :])
    # u_cr[i, (c, u)] = U_RC,i[u, c]
    u_cr = uc[:, r, :].transpose(0, 2, 1).reshape(count, n_x)
    u_cr2 = 2.0 * u_cr
    # H[x_vars, x_vars] seen with axes (c, u, c', u'), written one row block
    # (c0:c1, :) at a time: a block of about 2^16 entries (512 KB) keeps its
    # transposed tiles in cache, and a GEMM per block rather than per c
    # keeps the GEMMs wide enough that a deep stack (N = 90) loses nothing
    # against full-size GEMMs
    h_xx = H[x_vars, x_vars].reshape(w, n, w, n)
    height = max(1, 2**16 // (w * n * n))
    for c0 in range(0, w, height):
        c1 = min(c0 + height, w)
        # 2 sum_i U_CC,i[c, c'] U_RR,i[u, u'], GEMM axes (c, c', u, u')
        kron = u_cc2[:, c0:c1, :].reshape(count, -1).T @ u_rr
        h_xx[c0:c1] += kron.reshape(c1 - c0, w, n, n).transpose(0, 2, 1, 3)
        # 2 sum_i U_RC,i[u, c'] U_RC,i[u', c], GEMM axes (c', u, c, u')
        cross = u_cr2.T @ u_cr[:, c0 * n:c1 * n]
        h_xx[c0:c1] += cross.reshape(w, n, c1 - c0, n).transpose(2, 1, 0, 3)

    # the entries by variable: per entry e the rows (UC)[q_e, :] and
    # 2 v_e U[R, p_e], and per variable one (w, n) GEMM over its entries
    o = index.order
    right = uc[member[o], q[o], :]
    left = U[member[o], r, p[o]] * (2.0 * v[o])[:, None]
    h_ox = np.empty((k, w, n))
    for j, (lo, hi) in enumerate(zip(index.bounds, index.bounds[1:])):
        np.matmul(right[lo:hi].T, left[lo:hi], out=h_ox[j])
    h_ox = h_ox.reshape(-1, n_x)
    H[index.present, x_vars] += h_ox
    H[x_vars, index.present] += h_ox.T
