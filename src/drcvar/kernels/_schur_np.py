"""Pairwise Schur-complement accumulation kernel.

Entries are first aggregated by matrix position: with P distinct (p, q)
positions among the T expanded entries of a block, the contract equals

    H_small = B C B',   C[r, s] = U[p_r, p_s] * U[q_r, q_s],

where B (variable group x position) sums the values v of the entries that
share a variable and a position.  C is gathered with np.take (which beats
fancy indexing here by a wide margin) and B is a sparse matrix.  Peak memory
is O(P^2), P <= T.
"""
import numpy as np
import scipy.sparse as sp


def schur_accumulate(H, U, var, p, q, v):
    """Accumulate pairwise contributions into the lower triangle of H.

    See the package docstring in :mod:`drcvar.kernels` for the contract.
    """
    t = var.shape[0]
    if t == 0:
        return
    starts = np.concatenate([[0], np.flatnonzero(np.diff(var)) + 1])
    present = var[starts]
    n_groups = present.shape[0]

    size = U.shape[0]
    positions, pos_of = np.unique(
        p.astype(np.int64) * size + q.astype(np.int64), return_inverse=True)
    pp = positions // size
    qq = positions % size
    c = np.take(np.take(U, pp, axis=0), pp, axis=1)
    c *= np.take(np.take(U, qq, axis=0), qq, axis=1)

    group_of = np.repeat(np.arange(n_groups), np.diff(np.append(starts, t)))
    coeffs = sp.csr_matrix((v, (group_of, pos_of)),
                           shape=(n_groups, positions.shape[0]))
    # c is symmetric, so B C B' = B (B C)'
    small = coeffs @ (coeffs @ c).T

    gi, gj = np.tril_indices(n_groups)
    H[present[gi], present[gj]] += small[gi, gj]
