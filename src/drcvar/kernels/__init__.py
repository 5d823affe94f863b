"""Schur-complement (normal matrix) assembly kernels.

The interior-point solver spends most of its time forming the normal matrix
H[j, k] = sum over blocks of <M_j, U M_k U>, U = W^-1 the scaling matrix
of each block, from the constraint matrices M.  Blocks of one size that
declare the same matrix-variable slot (:class:`drcvar.sdp.MatrixSlot`) are
assembled as one stack by ``schur_slot``; the entries of every other
variable go through the pairwise ``schur_accumulate``, which in the robust
SDP sees about 50 entries per atom block instead of about 2400.

Slot contract
-------------
A slot variable X[u, v] enters block i as a_u c_v' + c_v a_u' with
a_u = e_{R_u} for a row set R shared by the stack and c_v column v of the
block's own matrix C_i.  With U_RR = R'UR, U_CC = C'UC and U_RC = R'UC per
block,

    H[(u,v), (u',v')] = 2 sum_i (U_RR[u,u'] U_CC[v,v'] + U_RC[u,v'] U_RC[u',v]),

two GEMMs with the block count as inner dimension, and for a variable k
outside the slot with expanded entries (p_e, q_e, v_e)

    H[(u,v), k] = 2 sum_e v_e U[R_u, p_e] (UC)[q_e, v].

``schur_slot(H, U, rows, cols, offset, member, var, p, q, v)`` adds both
parts to H, in both triangles; the entries (member, var, p, q, v) are those
of the stack's blocks outside the slot, ``member`` naming each one's block.

Pairwise contract
-----------------
``schur_accumulate(H, U, var, p, q, v)`` accumulates, into the lower
triangle of H, the contribution

    H[var_a, var_b] += v_a * v_b * U[p_a, p_b] * U[q_a, q_b]

summed over all entry pairs (a, b).  The entry arrays describe the expanded
(both-triangles) nonzeros of the constraint matrices of one block's
variables outside its slot and must be sorted by ``var``; U is the dense
symmetric scaling matrix of the block.
"""
from ._schur_np import schur_accumulate
from ._schur_slot import schur_slot

__all__ = ["schur_accumulate", "schur_slot"]
