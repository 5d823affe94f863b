"""Exact CVaR and VaR of a finite, uniformly weighted loss sample.

CVaR at level alpha is the optimal value of the variational problem

    inf_tau  tau + (1/alpha) * mean((loss_i - tau)_+),

whose minimum for a discrete sample is available in closed form from the
descending order statistics.  With k = floor(alpha * N):

    cvar = (1/alpha) * [ (1/N) * sum_{i<=k} l_(i) + (alpha - k/N) * l_(k+1) ]

(the trailing term is dropped when k = N).  The optimal tau (the VaR) is the
(k+1)-th order statistic, the left endpoint of the interval of minimizers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RiskReport:
    """CVaR/VaR summary of one loss sample.

    cvar >= var always; cvar equals the sample mean at alpha = 1 and the
    sample maximum when alpha <= 1/N.  tail_count is the number of losses
    strictly above the VaR.
    """

    cvar: float
    var: float
    tail_count: int


def cvar_discrete(losses, alpha: float) -> RiskReport:
    """Exact CVaR of a uniform discrete sample at tail level ``alpha``.

    Parameters
    ----------
    losses : array-like, shape (N,)
        Finite loss realizations, one per atom.
    alpha : float
        Tail probability in (0, 1].

    Returns
    -------
    RiskReport
        cvar (optimal value), var (optimal threshold tau), tail_count.
    """
    ls = np.asarray(losses, dtype=float).ravel()
    n = ls.size
    if n == 0:
        raise ValueError("empty loss sample")
    if not np.isfinite(ls).all():
        raise ValueError("losses contain non-finite entries")
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")

    desc = np.sort(ls)[::-1]
    k = min(n, math.floor(alpha * n))
    if k == n:
        cvar = float(desc.mean())
        var = float(desc[-1])
    else:
        # exact minimum of the variational objective; both branches agree
        # when alpha*N lands exactly on an integer
        var = float(desc[k])
        cvar = (float(desc[:k].sum()) / n + (alpha - k / n) * var) / alpha
    return RiskReport(cvar=cvar, var=var,
                      tail_count=int(np.count_nonzero(ls > var)))
