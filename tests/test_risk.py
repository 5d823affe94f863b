"""Unit tests for the discrete CVaR/VaR computation.

The closed-form sort is checked against a direct one-dimensional
minimization of the variational objective (evaluated at every order
statistic, where the piecewise-linear objective attains its minimum, plus a
safety grid).
"""

import numpy as np
import pytest

from drcvar.risk import cvar_discrete
from oracles import cvar_objective


def cvar_via_minimization(losses, alpha):
    """Independent oracle: minimize the variational objective over tau."""
    ls = np.asarray(losses, dtype=float)
    candidates = list(ls) + list(np.linspace(ls.min() - 1.0, ls.max() + 1.0, 501))
    return min(cvar_objective(ls, alpha, t) for t in candidates)


class TestExamples:
    @pytest.mark.parametrize("alpha,expected", [
        (1.0, 2.5),        # mean
        (0.5, 3.5),        # worst half
        (0.1, 4.0),        # alpha < 1/N forces max
        (0.375, 11.0 / 3.0),
    ])
    def test_small_sample(self, alpha, expected):
        report = cvar_discrete([1.0, 2.0, 3.0, 4.0], alpha)
        assert report.cvar == pytest.approx(expected, abs=1e-12)
        oracle = cvar_via_minimization([1.0, 2.0, 3.0, 4.0], alpha)
        assert report.cvar == pytest.approx(oracle, abs=1e-9)

    def test_var_and_tail_count(self):
        report = cvar_discrete([1.0, 2.0, 3.0, 4.0], 0.375)
        assert report.var == 3.0
        assert report.tail_count == 1

    def test_singleton(self):
        report = cvar_discrete([7.0], 0.3)
        assert report.cvar == pytest.approx(7.0, abs=1e-12)
        assert report.var == 7.0


class TestValidation:
    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            cvar_discrete([1.0], 0.0)
        with pytest.raises(ValueError):
            cvar_discrete([1.0], 1.2)

    def test_empty(self):
        with pytest.raises(ValueError):
            cvar_discrete([], 0.5)

    def test_nonfinite(self):
        with pytest.raises(ValueError):
            cvar_discrete([1.0, np.nan], 0.5)


class TestProperties:
    def test_matches_minimization_oracle_random(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            n = int(rng.integers(1, 201))
            losses = rng.standard_normal(n) * rng.uniform(0.1, 5.0)
            alpha = float(rng.uniform(0.01, 1.0))
            report = cvar_discrete(losses, alpha)
            oracle = cvar_via_minimization(losses, alpha)
            assert abs(report.cvar - oracle) <= 1e-10 * (1.0 + abs(oracle))
            # the reported var attains the variational optimum
            at_var = cvar_objective(losses, alpha, report.var)
            assert at_var == pytest.approx(report.cvar, abs=1e-10)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(100)
        losses = rng.standard_normal(37)
        for shift in (-3.0, 0.7, 100.0):
            a = cvar_discrete(losses + shift, 0.23).cvar
            b = cvar_discrete(losses, 0.23).cvar + shift
            assert a == pytest.approx(b, abs=1e-10)

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(101)
        losses = rng.standard_normal(25)
        for scale in (0.0, 0.5, 4.0):
            a = cvar_discrete(scale * losses, 0.4).cvar
            b = scale * cvar_discrete(losses, 0.4).cvar
            assert a == pytest.approx(b, abs=1e-10)

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(102)
        losses = rng.standard_normal(50)
        alphas = np.linspace(0.02, 1.0, 25)
        values = [cvar_discrete(losses, a).cvar for a in alphas]
        assert all(v1 >= v2 - 1e-12 for v1, v2 in zip(values, values[1:]))
        assert values[-1] == pytest.approx(np.mean(losses), abs=1e-12)

    def test_extreme_alpha_is_max(self):
        rng = np.random.default_rng(103)
        losses = rng.standard_normal(30)
        assert cvar_discrete(losses, 1.0 / 31).cvar == pytest.approx(losses.max())

    def test_cvar_bounds(self):
        rng = np.random.default_rng(104)
        for _ in range(20):
            losses = rng.standard_normal(int(rng.integers(2, 40)))
            alpha = float(rng.uniform(0.05, 1.0))
            r = cvar_discrete(losses, alpha)
            assert r.cvar >= r.var - 1e-12
            assert r.cvar >= np.mean(losses) - 1e-12
            assert r.cvar <= np.max(losses) + 1e-12
