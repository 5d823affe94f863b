"""Schur-complement (normal matrix) assembly.

The interior-point solver spends most of its time forming the normal matrix
H[j, k] = sum over blocks of <M_j, U M_k U>, U = W^-1 the scaling matrix
of each block, from the constraint matrices M.  The solver stacks the
blocks of one size that declare the same matrix-variable slot
(:class:`drcvar.sdp.MatrixSlot`), and ``schur_accumulate`` adds one
stack's whole contribution to H, in both triangles.

Contract
--------
``schur_accumulate(H, U, member, var, p, q, v, rows=None, cols=None,
offset=0)`` takes the (count, s, s) stack U of the blocks' scaling
matrices, the stack's slot (``rows``, ``cols``, ``offset``; none when
``rows`` is None) and the stack's entries outside the slot.  Entry e puts
v_e at (p_e, q_e) of the constraint matrix of variable var_e in block
member_e; the entries are expanded (an off-diagonal nonzero appears once
per triangle) and sorted by ``member``.

Other x other: every ordered pair (a, b) of entries of the same block i adds

    H[var_a, var_b] += v_a v_b U_i[p_a, p_b] U_i[q_a, q_b].

The pairs are formed explicitly, so this part takes memory of the order of
sum_i t_i^2 for t_i entries of block i outside the slot (about 50 per atom
block of the robust SDP).

Slot x slot: X[u, v], variable ``offset + v*n + u`` with n = len(rows),
enters block i as a_u c_v' + c_v a_u' with a_u = e_{R_u} for the row set
R = ``rows`` shared by the stack and c_v column v of the block's own
C_i = ``cols[i]``.  With U_RR = R'UR, U_CC = C'UC and U_RC = R'UC per block,

    H[(u,v), (u',v')] = 2 sum_i (U_RR[u,u'] U_CC[v,v'] + U_RC[u,v'] U_RC[u',v]),

two GEMMs with the block count as inner dimension: the dense-structure
case of Fujisawa, Kojima and Nakata, "Exploiting sparsity in primal-dual
interior-point methods for semidefinite programming", Math. Prog. 79
(1997).

Slot x other: for a variable k outside the slot, over its entries e,

    H[(u,v), k] = 2 sum_e v_e U_i[R_u, p_e] (U_i C_i)[q_e, v].
"""
import numpy as np
import scipy.sparse as sp

__all__ = ["schur_accumulate"]


def schur_accumulate(H, U, member, var, p, q, v, rows=None, cols=None,
                     offset=0):
    """Add one stack's contribution to H (K x K), in both triangles.

    See the module docstring for the contract.
    """
    count, s, _ = U.shape
    t = member.shape[0]
    if t > 0:
        present, local = np.unique(var, return_inverse=True)
        k = present.shape[0]
        # every ordered pair (a, b) of entries that share a block: b runs
        # over the block of a, whose entries start at start[member[a]]
        sizes = np.bincount(member, minlength=count)
        start = np.cumsum(sizes) - sizes
        reps = sizes[member]
        a = np.repeat(np.arange(t), reps)
        ma = member[a]
        b = start[ma] + np.arange(a.shape[0]) \
            - np.repeat(np.cumsum(reps) - reps, reps)
        flat = U.reshape(-1)
        base = ma * (s * s)
        pair = v[a] * v[b]
        pair *= np.take(flat, base + p[a] * s + p[b])
        pair *= np.take(flat, base + q[a] * s + q[b])
        small = np.bincount(local[a] * k + local[b], weights=pair,
                            minlength=k * k)
        H[np.ix_(present, present)] += small.reshape(k, k)
    if rows is None:
        return

    w = cols.shape[2]
    n = rows.shape[0]
    n_x = n * w
    slot = slice(offset, offset + n_x)
    uc = U @ cols
    u_rr = U[:, rows[:, None], rows[None, :]]
    u_cc2 = 2.0 * (cols.transpose(0, 2, 1) @ uc)
    u_cr = uc[:, rows, :].transpose(0, 2, 1).reshape(count, n_x)
    # H[slot, slot] seen with axes (c, u, c', u')
    h_xx = H[slot, slot].reshape(w, n, w, n)
    # 2 sum_i U_CC,i (x) U_RR,i, GEMM axes (c, c', u, u')
    kron = u_cc2.reshape(count, w * w).T @ u_rr.reshape(count, n * n)
    h_xx += kron.reshape(w, w, n, n).transpose(0, 2, 1, 3)
    # 2 sum_i vec(U_CR,i) vec(U_CR,i)', U_CR = U_RC', GEMM axes (c', u, c, u')
    cross = (2.0 * u_cr).T @ u_cr
    h_xx += cross.reshape(w, n, w, n).transpose(2, 1, 0, 3)

    if t == 0:
        return
    # per entry e: 2 v_e U[R, p_e] (x) (UC)[q_e, :], laid out as vec(X)
    left = U[member[:, None], rows[None, :], p[:, None]]
    right = uc[member, q, :]
    outer = (right[:, :, None] * left[:, None, :]).reshape(-1, n_x)
    weights = sp.csr_matrix((2.0 * v, (local, np.arange(t))), shape=(k, t))
    h_ox = weights @ outer
    H[present, slot] += h_ox
    H[slot, present] += h_ox.T
