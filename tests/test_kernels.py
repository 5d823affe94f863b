"""Schur-complement assembly against a dense reference: stacks without a
slot from random entries, and the solver's stacks of the built SDPs."""

import numpy as np
import pytest

from drcvar import conic, kernels
from drcvar.model import EmpiricalDistribution, RiskSpec
from drcvar.sdp import LmiStack, MatrixSlot, SdpProblem, build_drcvar_sdp


def random_block(rng, k_total, size, entries):
    var = np.sort(rng.integers(0, k_total, entries)).astype(np.int32)
    p = rng.integers(0, size, entries).astype(np.int32)
    q = rng.integers(0, size, entries).astype(np.int32)
    v = rng.standard_normal(entries)
    base = rng.standard_normal((size, size))
    u = np.ascontiguousarray(base @ base.T + size * np.eye(size))
    return u, var, p, q, v


def accumulate(h, u, member, var, p, q, v, slot=None):
    """One kernel call with the stack's pair index built as the solver does."""
    index = kernels.pair_index(member, var, p, q, v, *u.shape[:2])
    kernels.schur_accumulate(h, u, member, p, q, v, index, slot)


def dense_reference(k_total, u, var, p, q, v):
    """Direct dense computation: H[k,l] = <Mk, U Ml U>, both triangles."""
    mats = np.zeros((k_total, u.shape[0], u.shape[0]))
    for a in range(var.shape[0]):
        mats[var[a], p[a], q[a]] += v[a]
    return dense_from_matrices(mats, u)


def dense_from_matrices(mats, u):
    """H[k,l] = <Mk, U Ml U> from the dense (k_total, s, s) stack of Mk."""
    k_total = mats.shape[0]
    h = np.zeros((k_total, k_total))
    for k in range(k_total):
        uku = u @ mats[k] @ u
        for l in range(k + 1):
            h[k, l] = np.sum(mats[l] * uku)
    return h + np.tril(h, -1).T


@pytest.mark.parametrize("seed", range(6))
def test_numpy_kernel_matches_dense_reference(seed):
    rng = np.random.default_rng(seed)
    k_total = int(rng.integers(3, 12))
    size = int(rng.integers(1, 9))
    entries = int(rng.integers(1, 40))
    u, var, p, q, v = random_block(rng, k_total, size, entries)
    # the entries as one block
    h = np.zeros((k_total, k_total))
    accumulate(h, u[None], np.zeros(entries, dtype=np.int64), var, p, q, v)
    ref = dense_reference(k_total, u, var, p, q, v)
    assert np.max(np.abs(h - ref)) <= 1e-12 * np.max(np.abs(ref))
    # the same entries split at random over a stack of three blocks
    member = np.sort(rng.integers(0, 3, entries))
    stack = np.stack([u] + [random_block(rng, k_total, size, 1)[0]
                            for _ in range(2)])
    h = np.zeros((k_total, k_total))
    accumulate(h, stack, member, var, p, q, v)
    ref = sum(dense_reference(k_total, stack[i], var[member == i],
                              p[member == i], q[member == i], v[member == i])
              for i in range(3))
    assert np.max(np.abs(h - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_accumulation_adds_to_existing():
    rng = np.random.default_rng(42)
    u, var, p, q, v = random_block(rng, 5, 4, 12)
    member = np.zeros(12, dtype=np.int64)
    h1 = np.zeros((5, 5))
    accumulate(h1, u[None], member, var, p, q, v)
    h2 = h1.copy()
    accumulate(h2, u[None], member, var, p, q, v)
    assert np.allclose(h2, 2.0 * h1)


def test_slot_block_in_row_blocks_matches_formula():
    # at n = 24 rows and m + 1 = 25 columns, the day-ahead shape, the
    # slot x slot block is written in several row blocks; compare it with
    # H[(u,v), (u',v')] = 2 sum_i (U_RR[u,u'] U_CC[v,v'] + U_RC[u,v'] U_RC[u',v])
    rng = np.random.default_rng(23)
    count, size, n, w, offset = 3, 30, 24, 25, 1
    base = rng.standard_normal((count, size, size))
    u = base @ base.transpose(0, 2, 1) + size * np.eye(size)
    rows = np.arange(3, 3 + n)
    cols = rng.standard_normal((count, size, w))
    h = np.zeros((n * w + 2, n * w + 2))
    none = np.zeros(0, dtype=np.int64)
    accumulate(h, u, none, none, none, none, np.zeros(0),
               MatrixSlot(offset=offset, rows=rows, cols=cols))
    uc = u @ cols
    u_rr = u[:, rows][:, :, rows]
    u_cc = cols.transpose(0, 2, 1) @ uc
    u_rc = uc[:, rows, :]
    # variable offset + v*n + u, so axes (v, u, v', u')
    ref = 2.0 * (np.einsum("iuU,ivV->vuVU", u_rr, u_cc)
                 + np.einsum("iuV,iUv->vuVU", u_rc, u_rc))
    slot = slice(offset, offset + n * w)
    got = h[slot, slot]
    assert np.max(np.abs(got - ref.reshape(n * w, n * w))) \
        <= 1e-12 * np.max(np.abs(ref))
    got[...] = 0.0
    assert not h.any()


def random_scalings(rng, stacks):
    """Random well-conditioned PSD W^-1 stack per block stack."""
    scalings = []
    for st in stacks:
        base = rng.standard_normal((st.count, st.size, st.size))
        scalings.append(base @ base.transpose(0, 2, 1)
                        + st.size * np.eye(st.size))
    return scalings


def problem(kind, n, m, big_n, seed):
    rng = np.random.default_rng(seed)
    dist = EmpiricalDistribution(atoms=rng.standard_normal((big_n, n + m)),
                                 n=n, m=m)
    if kind == "nominal_cvar":
        return build_drcvar_sdp(dist, RiskSpec(alpha=0.2, radius=0.0))
    alpha = 1.0 if kind == "dr_mse" else 0.1
    return build_drcvar_sdp(dist, RiskSpec(alpha=alpha, radius=0.3))


def stacked_dense_reference(prob, u_w):
    """H from each member's dense Mk = evaluate(e_k) - M0."""
    ref = np.zeros((prob.num_vars, prob.num_vars))
    for st, u in zip(prob.stacks, u_w):
        mats = np.array([st.evaluate(e_k) - st.m0
                         for e_k in np.eye(prob.num_vars)])
        for i in range(st.count):
            ref += dense_from_matrices(mats[:, i], u[i])
    return ref


def normal_matrix(prob, u_w):
    h = np.empty((prob.num_vars, prob.num_vars))
    conic._normal_matrix(prob.stacks, u_w, h)
    return h


@pytest.mark.parametrize("kind", ["dr_cvar", "dr_mse", "nominal_cvar"])
def test_structured_assembly_matches_pairwise(kind):
    prob = problem(kind, n=4, m=3, big_n=5, seed=7)
    nonneg = prob.stacks[0]
    assert nonneg.count == prob.meta["N"]
    s_vars = prob.layout_slice("s")
    assert np.array_equal(nonneg.var, np.arange(s_vars.start, s_vars.stop))
    assert any(st.slot is not None for st in prob.stacks)
    u_w = random_scalings(np.random.default_rng(11), prob.stacks)
    h = normal_matrix(prob, u_w)
    ref = stacked_dense_reference(prob, u_w)
    assert np.max(np.abs(h - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_structured_assembly_matches_dense_reference():
    prob = problem("dr_cvar", n=2, m=2, big_n=3, seed=3)
    u_w = random_scalings(np.random.default_rng(5), prob.stacks)
    h = normal_matrix(prob, u_w)
    ref = stacked_dense_reference(prob, u_w)
    assert np.max(np.abs(h - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_slot_with_off_diagonal_entries_matches_dense_reference():
    # the built SDPs put only diagonal entries next to a slot; here random
    # entries in both triangles (p != q) meet it, in a stack whose C_i are
    # zero on rows 0 and 6, so the kernel reads C on rows 1..5 only
    rng = np.random.default_rng(29)
    count, size, n, w = 4, 7, 3, 2
    cols = np.zeros((count, size, w))
    cols[:, 1:6] = rng.standard_normal((count, 5, w))
    slot = MatrixSlot(offset=0, rows=np.arange(2, 2 + n), cols=cols)
    # variables n*w + j: j = 0 and 4 in every member, j = 1 in members 0
    # and 2, j = 2 in member 1 only, j = 3 in member 3 only
    members_of = [range(count), (0, 2), (1,), (3,), range(count)]
    entries = []
    for j, members in enumerate(members_of):
        for i in members:
            for _ in range(3):
                a, b = rng.integers(0, size, 2)
                val = rng.standard_normal()
                entries.append((i, n * w + j, a, b, val))
                if a != b:
                    entries.append((i, n * w + j, b, a, val))
    member, var, p, q, v = np.array(entries).T
    order = np.lexsort((var, member))
    ints = [a[order].astype(np.int64) for a in (member, var, p, q)]
    assert np.any(ints[2] != ints[3])
    stack = LmiStack("mixed", np.zeros((count, size, size)), *ints, v[order],
                     slot)
    k_total = n * w + len(members_of)
    prob = SdpProblem(num_vars=k_total, objective=np.zeros(k_total),
                      stacks=(stack,), var_layout={})
    u_w = random_scalings(np.random.default_rng(31), prob.stacks)
    h = normal_matrix(prob, u_w)
    ref = stacked_dense_reference(prob, u_w)
    assert np.max(np.abs(h - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_workspace_carries_nothing_over():
    # n = 3 rows against m + 1 = 5 slot columns, so an assembly that swaps
    # the row and column axes of the slot block cannot pass
    prob = problem("dr_cvar", n=3, m=4, big_n=4, seed=13)
    rng = np.random.default_rng(17)
    first = random_scalings(rng, prob.stacks)
    second = random_scalings(rng, prob.stacks)
    h = np.full((prob.num_vars, prob.num_vars), np.nan)
    conic._normal_matrix(prob.stacks, first, h)
    conic._normal_matrix(prob.stacks, second, h)
    assert np.array_equal(h, normal_matrix(prob, second))
    ref = stacked_dense_reference(prob, second)
    assert np.max(np.abs(h - ref)) <= 1e-12 * np.max(np.abs(ref))
