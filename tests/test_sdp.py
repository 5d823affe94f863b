"""Unit tests for the conic-program assembly of the robust estimation problem.

Checks block/variable counting, frozen entry values, round-trips of the
sparse affine maps against direct dense construction, both Schur-complement
equivalences, and solution extraction.
"""

import sys

import numpy as np
import pytest

from drcvar import dual, sdp
from drcvar.conic import solve_sdp
from drcvar.data import SpikyConfig, split_and_normalize, synth_spiky
from drcvar.model import (
    AffineEstimator,
    EmpiricalDistribution,
    RiskSpec,
    affine_to_quadratic,
)
from drcvar.sdp import (
    LmiStack,
    MatrixSlot,
    build_drcvar_sdp,
    extract_estimator,
)
from oracles import phi

SEED = 31415


def block_sizes(prob):
    return sorted(st.size for st in prob.stacks for _ in range(st.count))


def small_problem(n=1, m=1, big_n=2, alpha=0.5, radius=1.0, seed=SEED):
    rng = np.random.default_rng(seed)
    dist = EmpiricalDistribution(atoms=rng.standard_normal((big_n, n + m)),
                                 n=n, m=m)
    return dist, build_drcvar_sdp(dist, RiskSpec(alpha=alpha, radius=radius))


def dense_atom_block(z, n, m, a_mat, b_vec, gamma, tau, s_i):
    """Direct dense construction of one per-atom LMI for cross-checking."""
    d = n + m
    f_mat = np.hstack([-np.eye(n), a_mat])
    top = np.concatenate([[tau + s_i + gamma * z @ z], gamma * z, -b_vec])
    mid = np.hstack([gamma * z[:, None], gamma * np.eye(d), f_mat.T])
    bot = np.hstack([-b_vec[:, None], f_mat, np.eye(n)])
    return np.vstack([top[None, :], mid, bot])


def displacement_congruence(z, n):
    """T_i = [[1, -z'], [0, I_d]] (+) I_n, which maps the paper's atom block
    to the displacement-coordinate form the builder assembles."""
    d = z.shape[0]
    t_mat = np.eye(1 + d + n)
    t_mat[0, 1 : 1 + d] = -z
    return t_mat


class TestCounting:
    def test_small_instance(self):
        _, prob = small_problem(n=1, m=1, big_n=2)
        assert prob.num_vars == 6
        sizes = block_sizes(prob)
        assert sizes == [1, 1, 4, 4]
        assert prob.var_layout == {
            "A": (0, 1), "b": (1, 2), "gamma": (2, 3), "tau": (3, 4),
            "s": (4, 6),
        }

    def test_radius_zero_drops_gamma(self):
        # radius zero is the nominal program: atom blocks of size 1 + n and
        # no gamma variable
        _, prob = small_problem(n=1, m=1, big_n=2, radius=0.0)
        assert prob.num_vars == 5
        sizes = block_sizes(prob)
        assert sizes == [1, 1, 2, 2]
        assert prob.var_layout == {
            "A": (0, 1), "b": (1, 2), "tau": (2, 3), "s": (3, 5),
        }
        assert prob.meta["kind"] == "nominal_cvar"


class TestAlphaIndependence:
    @pytest.mark.parametrize("radius", [0.7, 0.0])
    def test_alpha_enters_the_objective_only(self, radius):
        # alpha = 1 adds no bound on tau: the stacks are those of alpha =
        # 0.1, and only the gamma and s coefficients of c move
        dist, low = small_problem(n=2, m=3, big_n=4, alpha=0.1, radius=radius)
        high = build_drcvar_sdp(dist, RiskSpec(alpha=1.0, radius=radius))
        assert low.var_layout == high.var_layout
        assert len(low.stacks) == len(high.stacks)
        for a, b in zip(low.stacks, high.stacks):
            assert a.name == b.name
            assert np.array_equal(a.m0, b.m0)
            for entries in ("member", "var", "p", "q", "v"):
                assert np.array_equal(getattr(a, entries), getattr(b, entries))
            assert (a.slot is None) == (b.slot is None)
            if a.slot is not None:
                assert a.slot.offset == b.slot.offset
                assert np.array_equal(a.slot.rows, b.slot.rows)
                assert np.array_equal(a.slot.cols, b.slot.cols)
        moved = set(np.flatnonzero(low.objective != high.objective))
        expected = set(range(*low.var_layout["s"]))
        if radius > 0.0:
            expected.add(low.var_layout["gamma"][0])
        assert moved == expected


class TestFrozenEntries:
    def test_atom_block_at_origin(self):
        dist = EmpiricalDistribution(atoms=np.zeros((1, 2)), n=1, m=1)
        prob = build_drcvar_sdp(dist, RiskSpec(alpha=0.5, radius=1.0))
        # x = [A, b, gamma, tau, s_0] = [0, 0, 1, 0, 0]
        x = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
        atom = prob.stacks[1]
        assert atom.name == "atom"
        expected = np.array([
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, -1.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, -1.0, 0.0, 1.0],
        ])
        assert np.array_equal(atom.evaluate(x)[0], expected)

    def test_atom_block_at_radius_zero(self):
        # z_0 = (x_0, y_0) = (2, 0.5); x = [A, b, tau, s_0] = [0.5, 0.25, 1, 2]
        # gives e_0 = 2 - 0.5 * 0.5 - 0.25 = 1.5 and tau + s_0 = 3
        dist = EmpiricalDistribution(atoms=np.array([[2.0, 0.5]]), n=1, m=1)
        prob = build_drcvar_sdp(dist, RiskSpec(alpha=0.5, radius=0.0))
        x = np.array([0.5, 0.25, 1.0, 2.0])
        atom = prob.stacks[1]
        assert atom.name == "atom"
        expected = np.array([
            [3.0, 1.5],
            [1.5, 1.0],
        ])
        assert np.array_equal(atom.evaluate(x)[0], expected)


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(5))
    def test_affine_maps_match_dense_construction(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        big_n = int(rng.integers(1, 6))
        dist = EmpiricalDistribution(
            atoms=rng.standard_normal((big_n, n + m)), n=n, m=m)
        prob = build_drcvar_sdp(dist, RiskSpec(alpha=0.3, radius=0.7))
        x = rng.standard_normal(prob.num_vars)
        a_mat = x[prob.layout_slice("A")].reshape((n, m), order="F")
        b_vec = x[prob.layout_slice("b")]
        gamma = x[prob.layout_slice("gamma")][0]
        tau = x[prob.layout_slice("tau")][0]
        s = x[prob.layout_slice("s")]

        atoms = prob.stacks[1].evaluate(x)
        for i in range(big_n):
            direct = dense_atom_block(dist.atoms[i], n, m, a_mat, b_vec,
                                      gamma, tau, s[i])
            t_mat = displacement_congruence(dist.atoms[i], n)
            built = atoms[i]
            assert np.max(np.abs(built - t_mat @ direct @ t_mat.T)) <= 1e-14

    @pytest.mark.parametrize("kind", ["dr_cvar", "nominal_cvar"])
    def test_slot_regenerates_estimator_entries(self, kind):
        # the [A b] entries written out as in the paper's block forms; the
        # atom stack's declared slot must reproduce exactly these in each
        # member's lower triangle, their mirrors above it, and no others
        rng = np.random.default_rng(SEED + 7)
        n, m, big_n = 3, 2, 4
        dist = EmpiricalDistribution(
            atoms=rng.standard_normal((big_n, n + m)), n=n, m=m)
        d, nm = n + m, n * m
        expected = {}
        if kind == "dr_cvar":
            prob = build_drcvar_sdp(dist, RiskSpec(alpha=0.3, radius=0.7))
            rows, cols = (lambda u: 1 + d + u), (lambda v: [(1 + n + v, 1.0)])
        else:
            prob = build_drcvar_sdp(dist, RiskSpec(alpha=0.3, radius=0.0))
            rows, cols = (lambda u: 1 + u), (lambda v: [])
        for i in range(big_n):
            entries = [(nm + u, rows(u), 0, -1.0) for u in range(n)]
            for u in range(n):
                for v in range(m):
                    entries += [(v * n + u, rows(u), col, val)
                                for col, val in cols(v)]
                    entries.append((v * n + u, rows(u), 0, -dist.y[i, v]))
            expected[i] = entries

        nonneg, atom = prob.stacks
        assert nonneg.slot is None and atom.slot is not None
        assert not np.any(atom.var < nm + n)
        assert atom.slot.num_vars == nm + n
        # the dense Mk of every slot variable: exactly these entries in each
        # member's lower triangle, their mirrors above it, and nothing else
        for k, e_k in enumerate(np.eye(prob.num_vars)[:nm + n]):
            ref = np.zeros_like(atom.m0)
            for i in range(big_n):
                for var, p, q, val in expected[i]:
                    if var == k:
                        assert p > q
                        ref[i, p, q] = ref[i, q, p] = val
            assert np.array_equal(atom.linear(e_k), ref)
            assert np.array_equal(atom.evaluate(e_k), atom.m0 + ref)

    def test_slot_owns_its_variables(self):
        def stack(var, p, q, rows=(1,), cols=np.ones((1, 2, 1))):
            slot = MatrixSlot(offset=0, rows=np.array(rows), cols=cols)
            one = np.zeros(1, dtype=np.int64)
            return LmiStack("s", np.zeros((1, 2, 2)), one, one + var,
                            one + p, one + q, np.ones(1), slot)

        with pytest.raises(ValueError, match="slot variables"):
            stack(0, 1, 0)
        # slot rows that are not one ascending contiguous range of integers:
        # descending, repeated, with a gap, empty, 2-D or not integers
        for rows in [(1, 0), (1, 1), (0, 0), (0, 2), (), ((0, 1),),
                     (0.0, 1.0)]:
            with pytest.raises(ValueError, match="contiguous range"):
                stack(1, 1, 1, rows, np.ones((1, 2, 2)))
        # a slot row outside the block, and cols not (count, size, w)
        for rows, cols in [((2,), np.ones((1, 2, 1))),
                           ((1,), np.ones((2, 1))),
                           ((1,), np.ones((2, 2, 1))),
                           ((1,), np.ones((1, 3, 1)))]:
            with pytest.raises(ValueError, match="does not fit"):
                stack(1, 1, 1, rows, cols)
        st = stack(1, 1, 1)
        # X[0, 0] e_1 c' + c e_1' with c = (1, 1): (1, 0) once, (1, 1) twice
        assert np.array_equal(st.evaluate(np.array([1.0, 0.0]))[0],
                              np.array([[0.0, 1.0], [1.0, 2.0]]))

    def test_entries_outside_the_blocks_are_rejected(self):
        # a (member, p, q) outside count x size x size would wrap into a
        # neighbouring entry or member of the flattened stack
        def stack(member, p, q):
            return LmiStack("s", np.zeros((2, 2, 2)), np.array([member]),
                            np.zeros(1, dtype=np.int64), np.array([p]),
                            np.array([q]), np.ones(1))

        for member, p, q in [(0, 0, 2), (1, 2, 0), (2, 0, 0), (-1, 0, 0),
                             (0, -1, 0), (0, 0, -1)]:
            with pytest.raises(ValueError, match="stack s: an entry lies"):
                stack(member, p, q)
        assert np.array_equal(stack(1, 1, 0).linear(np.ones(1))[1],
                              np.array([[0.0, 0.0], [1.0, 0.0]]))

    def test_slot_map_matches_definition(self):
        # a slot whose C has nonzeros inside the rows R and zero rows at both
        # ends, against M = e_{R_u} c' + c e_{R_u}' written out densely
        rng = np.random.default_rng(SEED + 13)
        count, size, n, w, offset = 3, 7, 3, 2, 1
        rows = np.arange(2, 2 + n)
        cols = rng.standard_normal((count, size, w))
        cols[:, [0, size - 1], :] = 0.0
        member = np.repeat(np.arange(count), 2)
        var = np.tile([0, offset + n * w], count)
        p = np.tile([0, 6], count)
        q = np.tile([0, 1], count)
        v = rng.standard_normal(2 * count)
        st = LmiStack("s", np.zeros((count, size, size)), member, var, p, q,
                      v, MatrixSlot(offset=offset, rows=rows, cols=cols))
        k_total = offset + n * w + 1
        mats = np.zeros((k_total, count, size, size))
        mats[var, member, p, q] += v
        for u in range(n):
            for c in range(w):
                e_r = np.eye(size)[rows[u]]
                for i in range(count):
                    col = cols[i, :, c]
                    mats[offset + c * n + u, i] = (np.outer(e_r, col)
                                                   + np.outer(col, e_r))
        x = rng.standard_normal(k_total)
        z = rng.standard_normal((count, size, size))
        mapped = np.einsum("k,kisr->isr", x, mats)
        dense = np.einsum("kisr,isr->k", mats, z)
        assert np.max(np.abs(st.linear(x) - mapped)) \
            <= 1e-12 * np.max(np.abs(mapped))
        assert np.max(np.abs(st.adjoint(z, k_total) - dense)) \
            <= 1e-12 * np.max(np.abs(dense))

    @pytest.mark.parametrize("kind", ["dr_cvar", "nominal_cvar", "alpha_one",
                                      "day_ahead"])
    def test_solver_maps_match_evaluate(self, kind):
        # the stack's linear map and adjoint against the dense matrices from
        # evaluate: M_k at the unit vector e_k, minus M0
        rng = np.random.default_rng(SEED + 11)
        alpha = 1.0 if kind == "alpha_one" else 0.3
        radius = 0.0 if kind == "nominal_cvar" else 0.7
        n, m, big_n = (24, 24, 3) if kind == "day_ahead" else (3, 2, 4)
        dist, prob = small_problem(n=n, m=m, big_n=big_n, alpha=alpha,
                                   radius=radius, seed=SEED + 12)
        k_total = prob.num_vars
        x = rng.standard_normal(k_total)
        for st in prob.stacks:
            base = rng.standard_normal((st.count, st.size, st.size))
            z = base + base.transpose(0, 2, 1)
            mapped = np.zeros_like(st.m0)
            dense = np.empty(k_total)
            for k, e_k in enumerate(np.eye(k_total)):
                m_k = st.evaluate(e_k) - st.m0
                mapped += x[k] * m_k
                dense[k] = np.sum(m_k * z)
            assert np.max(np.abs(st.linear(x) - mapped)) \
                <= 1e-12 * np.max(np.abs(mapped))
            assert np.max(np.abs(st.adjoint(z, k_total) - dense)) \
                <= 1e-12 * np.max(np.abs(dense))

    def test_objective_vector(self):
        dist, prob = small_problem(n=2, m=1, big_n=3, alpha=0.25, radius=2.0)
        c = prob.objective
        assert c[prob.layout_slice("tau")][0] == 1.0
        assert c[prob.layout_slice("gamma")][0] == pytest.approx(4.0 / 0.25)
        assert np.allclose(c[prob.layout_slice("s")], 1.0 / (0.25 * 3))
        assert np.allclose(c[prob.layout_slice("A")], 0.0)
        assert np.allclose(c[prob.layout_slice("b")], 0.0)


class TestSchurEquivalences:
    def test_atom_blocks_imply_strict_feasibility(self):
        # every atom block's trailing principal submatrix is the paper's
        # strict feasibility LMI [[gamma I_d, F'], [F, I_n]], so the builder
        # needs no block of its own for it, nor for gamma >= 0
        rng = np.random.default_rng(SEED + 1)
        for _ in range(25):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            big_n = int(rng.integers(1, 4))
            dist = EmpiricalDistribution(
                atoms=rng.standard_normal((big_n, n + m)), n=n, m=m)
            prob = build_drcvar_sdp(dist, RiskSpec(alpha=0.3, radius=0.7))
            names = {st.name for st in prob.stacks}
            assert not names & {"feasibility", "gamma_nonneg"}
            x = rng.standard_normal(prob.num_vars)
            a_mat = x[prob.layout_slice("A")].reshape((n, m), order="F")
            f_mat = np.hstack([-np.eye(n), a_mat])
            smax_sq = np.linalg.svd(f_mat, compute_uv=False)[0] ** 2
            gamma = float(smax_sq * rng.uniform(0.5, 1.5))
            x[prob.layout_slice("gamma")] = gamma
            feas = np.vstack([
                np.hstack([gamma * np.eye(n + m), f_mat.T]),
                np.hstack([f_mat, np.eye(n)]),
            ])
            is_psd = np.linalg.eigvalsh(feas)[0] >= -1e-11
            assert is_psd == (gamma >= smax_sq - 1e-9)
            atoms = prob.stacks[1]
            assert atoms.name == "atom"
            assert atoms.count == big_n
            for block in atoms.evaluate(x):
                assert np.array_equal(block[1:, 1:], feas)

    def test_atom_block_iff_scalar_hinge(self):
        rng = np.random.default_rng(SEED + 2)
        for _ in range(25):
            n = int(rng.integers(1, 3))
            m = int(rng.integers(1, 3))
            d = n + m
            a_mat = rng.standard_normal((n, m))
            b_vec = rng.standard_normal(n)
            z = rng.standard_normal(d)
            f_mat = np.hstack([-np.eye(n), a_mat])
            smax_sq = np.linalg.svd(f_mat, compute_uv=False)[0] ** 2
            gamma = float(smax_sq + rng.uniform(0.2, 2.0))
            tau = float(rng.standard_normal())
            w = gamma * z + f_mat.T @ b_vec
            raw = float(
                w @ np.linalg.solve(gamma * np.eye(d) - f_mat.T @ f_mat, w)
                + b_vec @ b_vec - gamma * (z @ z) - tau)
            # the matrix inequality alone encodes s_i >= raw; the positive
            # part comes from the separate 1x1 nonnegativity block, so the
            # pair together encodes s_i >= (raw)_+
            for offset in (-0.1, 0.1):
                s_i = raw + offset
                block = dense_atom_block(z, n, m, a_mat, b_vec, gamma, tau,
                                         s_i)
                is_psd = bool(np.linalg.eigvalsh(block)[0] >= -1e-10)
                assert is_psd == (offset > 0)
                pair_feasible = is_psd and s_i >= 0.0
                assert pair_feasible == (s_i >= max(raw, 0.0))


def unscaled_atom_arrays(dist, robust=True):
    """(m0, cols, v) of the atom stack written out entry by entry in the
    unscaled displacement form: M0 holds I_n, x_i in column 0 and, when
    robust, the -I_n of F; C holds -y_i and -1 in row 0 and the A part of
    F' in rows 1 + n ..; gamma, tau and s_i enter with coefficient 1."""
    n, m, big_n = dist.n, dist.m, dist.size
    d = n + m if robust else 0
    size = 1 + d + n
    m0 = np.zeros((big_n, size, size))
    cols = np.zeros((big_n, size, m + 1))
    for i in range(big_n):
        for u in range(n):
            r = 1 + d + u
            m0[i, r, r] = 1.0
            m0[i, r, 0] = m0[i, 0, r] = dist.atoms[i, u]
            if robust:
                m0[i, r, 1 + u] = m0[i, 1 + u, r] = -1.0
        for v in range(m):
            cols[i, 0, v] = -dist.atoms[i, n + v]
            if robust:
                cols[i, 1 + n + v, v] = 1.0
        cols[i, 0, m] = -1.0
    return m0, cols, np.ones(big_n * (d + 2))


def day_ahead(big_n):
    ds = synth_spiky(SpikyConfig(days=big_n + 10), seed=1)
    return split_and_normalize(ds, ds.dates[big_n])[0]


class TestStartScale:
    def test_gate_and_cap(self):
        eta = 3.0
        assert sdp._start_scale(float("nan"), eta) == 1.0
        # the closed form's quotient overflows to inf below r ~ 1e-308
        assert sdp._start_scale(float("inf"), eta) == 2.0**1022
        assert sdp._start_scale(2.0 * eta, eta) == 1.0
        assert sdp._start_scale(7.0, eta) == 7.0
        # 1 / g0 stays a normal float however large gamma* gets
        big = sdp._start_scale(1e308, eta)
        assert big == 2.0**1022
        assert 1.0 / big >= sys.float_info.min

    @pytest.mark.parametrize("constant", [False, True],
                             ids=["as_generated", "constant_coordinates"])
    def test_closed_form_matches_the_dual_search(self, constant):
        # g0 = 1 + sqrt(alpha C0) / r is the gamma* that the dual path's
        # search finds for the constant estimator; 1e-6 is that search's
        # widened bracket end, reached when one atom leads the CVaR
        dist = day_ahead(30)
        if constant:
            atoms = dist.atoms.copy()
            atoms[:, [3, 30]] = 0.5
            dist = EmpiricalDistribution(atoms=atoms, n=dist.n, m=dist.m)
        qf = affine_to_quadratic(AffineEstimator(
            A=np.zeros((dist.n, dist.m)), b=dist.x.mean(axis=0)))
        for alpha in (0.9 / dist.size, 1.0 / dist.size, 0.1, 1.0):
            for radius in (1e-8, 1e-4, 1e-2, 1.0):
                spec = RiskSpec(alpha=alpha, radius=radius)
                expected = dual.worst_case_cvar(qf, dist, spec).gamma_star
                assert sdp._constant_gamma(dist, spec) == pytest.approx(
                    expected, rel=1e-6)

    def test_builder_does_not_run_the_dual_path(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the builder called the dual path")

        for name in ("gamma_domain", "_trial", "worst_case_cvar"):
            monkeypatch.setattr(dual, name, fail)
        dist = day_ahead(30)
        spec = RiskSpec(alpha=1.0, radius=1e-8)
        prob = build_drcvar_sdp(dist, spec)
        assert prob.meta["gamma_scale"] == sdp._constant_gamma(dist, spec)
        assert prob.meta["gamma_scale"] > 2.0

    def test_subnormal_radius_is_capped(self):
        _, prob = small_problem(n=2, m=3, big_n=4, radius=1e-310)
        assert prob.meta["gamma_scale"] == 2.0**1022

    @pytest.mark.parametrize("kind", ["radius_zero", "gated_off",
                                      "day_ahead_reference"])
    def test_unscaled_programs_are_written_bit_for_bit(self, kind):
        # radius zero has no gamma, and where g0 <= 2 eta the atom stack
        # holds the unscaled displacement form entry for entry
        if kind == "day_ahead_reference":
            dist = day_ahead(30)
            prob = build_drcvar_sdp(dist, RiskSpec(alpha=0.1, radius=0.01))
        else:
            radius = 0.0 if kind == "radius_zero" else 1.0
            dist, prob = small_problem(n=2, m=3, big_n=4, radius=radius)
        assert prob.meta["gamma_scale"] == 1.0
        m0, cols, v = unscaled_atom_arrays(dist, kind != "radius_zero")
        atom = prob.stacks[1]
        assert atom.m0.tobytes() == m0.tobytes()
        assert atom.slot.cols.tobytes() == cols.tobytes()
        assert atom.v.tobytes() == v.tobytes()

    @pytest.mark.parametrize("kind", ["small_radius", "day_ahead_alpha_one"])
    def test_scaled_program_is_the_congruence(self, kind):
        # above the gate the atom block is D B D with D = diag(1, g0^-1/2
        # I_d, I_n), B the unscaled block; x keeps its meaning
        if kind == "day_ahead_alpha_one":
            dist = day_ahead(30)
            prob = build_drcvar_sdp(dist, RiskSpec(alpha=1.0, radius=1e-8))
        else:
            dist, prob = small_problem(n=2, m=3, big_n=4, radius=1e-3)
        g0 = prob.meta["gamma_scale"]
        assert g0 > 2.0
        n, d = dist.n, dist.dim
        root = 1.0 / np.sqrt(g0)
        dvec = np.concatenate([[1.0], np.full(d, root), np.ones(n)])
        m0, cols, v = unscaled_atom_arrays(dist)
        atom = prob.stacks[1]
        assert np.array_equal(atom.m0, dvec[:, None] * m0 * dvec)
        assert np.array_equal(atom.slot.cols, dvec[:, None] * cols)
        gamma_entries = atom.var == prob.var_layout["gamma"][0]
        assert np.all(atom.v[gamma_entries] == 1.0 / g0)
        assert np.all(atom.v[~gamma_entries] == 1.0)

    def test_scaled_block_is_psd_exactly_when_unscaled_is(self, monkeypatch):
        rng = np.random.default_rng(SEED + 21)
        n, m, big_n = 2, 2, 3
        dist, scaled = small_problem(n=n, m=m, big_n=big_n, radius=1e-3,
                                     seed=SEED + 22)
        g0 = scaled.meta["gamma_scale"]
        assert g0 > 2.0
        monkeypatch.setattr(sdp, "_start_scale", lambda g, eta: 1.0)
        plain = build_drcvar_sdp(dist, RiskSpec(alpha=0.5, radius=1e-3))
        assert plain.meta["gamma_scale"] == 1.0
        outcomes = set()
        for _ in range(200):
            x = rng.standard_normal(plain.num_vars)
            a_mat = x[plain.layout_slice("A")].reshape((n, m), order="F")
            smax_sq = np.linalg.norm(np.hstack([-np.eye(n), a_mat]), 2)**2
            x[plain.layout_slice("gamma")] = smax_sq * rng.uniform(0.8, 3.0)
            x[plain.layout_slice("s")] = rng.uniform(0.0, 30.0, big_n)
            w_plain = np.linalg.eigvalsh(plain.stacks[1].evaluate(x))[:, 0]
            w_scaled = np.linalg.eigvalsh(scaled.stacks[1].evaluate(x))[:, 0]
            # skip members too close to the boundary for rounding to decide
            clear = np.minimum(np.abs(w_plain), np.abs(w_scaled)) > 1e-9
            psd = w_plain[clear] >= 0.0
            assert np.array_equal(psd, w_scaled[clear] >= 0.0)
            outcomes.update(psd.tolist())
        assert outcomes == {True, False}


class TestExtract:
    def test_layout_round_trip(self):
        rng = np.random.default_rng(SEED + 3)
        dist, prob = small_problem(n=2, m=3, big_n=4)
        x = rng.standard_normal(prob.num_vars)
        a_flat = x[prob.layout_slice("A")]
        assert np.array_equal(
            a_flat.reshape((2, 3), order="F")[:, 0], a_flat[:2])

    def test_extract_from_solve(self):
        dist, prob = small_problem(n=1, m=1, big_n=3, alpha=0.5, radius=0.3)
        sol = solve_sdp(prob)
        assert sol.status == "optimal"
        est, gamma, tau, s = extract_estimator(prob, sol)
        assert est.A.shape == (1, 1)
        assert gamma >= -1e-9
        assert np.all(s >= -1e-9)

    def test_slacks_dominate_hinge(self):
        # at the optimum each epigraph slack must sit above the per-atom
        # transform recomputed through the independent dual path
        rng = np.random.default_rng(SEED + 4)
        dist = EmpiricalDistribution(atoms=rng.standard_normal((5, 3)),
                                     n=2, m=1)
        prob = build_drcvar_sdp(dist, RiskSpec(alpha=0.4, radius=0.5))
        sol = solve_sdp(prob)
        est, gamma, tau, s = extract_estimator(prob, sol)
        qf = affine_to_quadratic(est)
        for i in range(dist.size):
            hinge = phi(tau - qf.c, gamma, dist.atoms[i], qf)
            assert s[i] >= hinge - 1e-6

    def test_rejects_non_optimal(self):
        dist, prob = small_problem()
        sol = solve_sdp(prob)
        bad = type(sol)(status="max_iter", x=sol.x,
                        objective_value=sol.objective_value,
                        duality_gap=sol.duality_gap,
                        primal_infeasibility=sol.primal_infeasibility,
                        dual_infeasibility=sol.dual_infeasibility,
                        iterations=sol.iterations,
                        slack_blocks=sol.slack_blocks,
                        dual_blocks=sol.dual_blocks)
        with pytest.raises(RuntimeError):
            extract_estimator(prob, bad)
