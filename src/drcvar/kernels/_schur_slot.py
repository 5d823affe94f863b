"""Structured Schur-complement assembly for a stack of blocks sharing a slot.

The dense-structure case of Fujisawa, Kojima and Nakata, "Exploiting
sparsity in primal-dual interior-point methods for semidefinite
programming", Math. Prog. 79 (1997): every slot variable has the same
coefficient pattern in every block of the stack, so the slot x slot part
of H is two GEMMs over the stack rather than a product over entry pairs.
"""
import numpy as np
import scipy.sparse as sp


def schur_slot(H, U, rows, cols, offset, member, var, p, q, v):
    """Add the slot x slot and slot x other parts of H, both triangles.

    Parameters
    ----------
    H : (K, K) array, updated in place.
    U : (count, s, s) scaling matrices of the stacked blocks.
    rows : (n,) block rows R of the slot, shared by the stack.
    cols : (count, s, w) the matrices C_i of the stacked blocks.
    offset : index of X[0, 0]; X[u, c] is variable ``offset + c*n + u``.
    member, var, p, q, v : expanded entries of the variables outside the
        slot, ``member`` naming the block of each entry in the stack.

    See the package docstring in :mod:`drcvar.kernels` for the formulas.
    """
    count, _, w = cols.shape
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

    if var.shape[0] == 0:
        return
    # per entry e: 2 v_e U[R, p_e] (x) (UC)[q_e, :], laid out as vec(X)
    left = U[member[:, None], rows[None, :], p[:, None]]
    right = uc[member, q, :]
    outer = (right[:, :, None] * left[:, None, :]).reshape(-1, n_x)
    present, inv = np.unique(var, return_inverse=True)
    weights = sp.csr_matrix((2.0 * v, (inv, np.arange(v.shape[0]))),
                            shape=(present.shape[0], v.shape[0]))
    h_ox = weights @ outer
    H[present, slot] += h_ox
    H[slot, present] += h_ox.T
