"""Core domain types and the affine-estimator/quadratic-loss bridge.

The estimation problem works on joint samples z = (x, y) where x is the
latent signal (dimension n) and y the observation (dimension m).  An affine
estimator x_hat = A y + b induces the squared-error loss

    ||x - A y - b||^2 = z' (F'F) z + 2 (F'b)' z + b'b,    F = [-I_n, A],

which is the quadratic form every downstream module (dual evaluation, SDP
assembly) consumes.  All types are immutable after construction and all
operations are pure functions.  The one exception is a memo on
QuadraticForm: the dual path stores there the gamma-free loss terms of the
last read-only atom array it certified, a cache that repr and
dataclasses.replace ignore.  The three array-holding types,
EmpiricalDistribution, AffineEstimator and QuadraticForm, compare and hash
by identity (``a == b`` is ``a is b``), since arrays have no single truth
value; compare their arrays with ``np.array_equal`` for equal values.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _as_finite_array(a, name: str, ndim: int) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True, eq=False)
class EmpiricalDistribution:
    """Uniformly weighted empirical distribution of joint samples.

    Parameters
    ----------
    atoms : (N, d) array
        One row per sample, each the concatenation (x_i, y_i).
    n : int
        Dimension of the latent signal x.
    m : int
        Dimension of the observation y; d = n + m.
    """

    atoms: np.ndarray
    n: int
    m: int

    def __post_init__(self):
        atoms = _as_finite_array(self.atoms, "atoms", 2)
        atoms = atoms.copy()
        atoms.flags.writeable = False
        object.__setattr__(self, "atoms", atoms)
        # n or m may be zero for distributions that only feed the dual path;
        # estimator fitting requires both positive.
        if self.n < 0 or self.m < 0 or self.n + self.m < 1:
            raise ValueError("need n >= 0, m >= 0 and n + m >= 1")
        if atoms.shape[0] < 1:
            raise ValueError("need at least one atom")
        if atoms.shape[1] != self.n + self.m:
            raise ValueError(
                f"atom dimension {atoms.shape[1]} != n + m = {self.n + self.m}"
            )

    @property
    def size(self) -> int:
        """Number of atoms N."""
        return self.atoms.shape[0]

    @property
    def dim(self) -> int:
        """Joint dimension d = n + m."""
        return self.n + self.m

    @property
    def x(self) -> np.ndarray:
        """(N, n) view of the latent-signal columns."""
        return self.atoms[:, : self.n]

    @property
    def y(self) -> np.ndarray:
        """(N, m) view of the observation columns."""
        return self.atoms[:, self.n :]


@dataclass(frozen=True, eq=False)
class AffineEstimator:
    """Affine map y -> A y + b from observations to signal estimates."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = _as_finite_array(self.A, "A", 2)
        b = _as_finite_array(self.b, "b", 1)
        if A.shape[0] != b.shape[0]:
            raise ValueError(f"A has {A.shape[0]} rows but b has length {b.shape[0]}")
        A = A.copy()
        b = b.copy()
        A.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.A.shape[1]

    def predict(self, y: np.ndarray) -> np.ndarray:
        """Apply the estimator to one observation or a batch of rows."""
        y = np.asarray(y, dtype=float)
        return y @ self.A.T + self.b

    def error_matrix(self) -> np.ndarray:
        """The residual map F = [-I_n, A] with F z + b = (A y + b) - x."""
        return np.hstack([-np.eye(self.n), self.A])


@dataclass(frozen=True, eq=False)
class QuadraticForm:
    """Symmetric quadratic z -> z'Qz + 2 q'z + c.

    Q is symmetrized on construction to absorb rounding, and its spectrum is
    stored once for the dual path: Q = V diag(eigenvalues) V' with ascending
    eigenvalues and V = eigenvectors.  The constant c is carried separately:
    risk functionals are evaluated on the pure quadratic part and c is added
    afterwards (CVaR is translation equivariant).

    terms_memo is the dual path's cache, set by
    :func:`drcvar.dual._loss_terms`: None, or the read-only atom array last
    certified with its loss terms (l0, U).  It is no part of the form's
    value: repr skips it, and dataclasses.replace starts the new form
    without one.
    """

    Q: np.ndarray
    q: np.ndarray
    c: float = 0.0
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)
    eigenvectors: np.ndarray = field(init=False, repr=False, compare=False)
    terms_memo: tuple | None = field(init=False, repr=False, compare=False,
                                     default=None)

    def __post_init__(self):
        Q = _as_finite_array(self.Q, "Q", 2)
        q = _as_finite_array(self.q, "q", 1)
        if Q.shape[0] != Q.shape[1]:
            raise ValueError(f"Q must be square, got {Q.shape}")
        if Q.shape[0] != q.shape[0]:
            raise ValueError(f"Q is {Q.shape[0]}x{Q.shape[0]} but q has length {q.shape[0]}")
        if not np.isfinite(self.c):
            raise ValueError("c must be finite")
        Q = 0.5 * (Q + Q.T)
        lam, vecs = np.linalg.eigh(Q)
        q = q.copy()
        for arr in (Q, q, lam, vecs):
            arr.flags.writeable = False
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "eigenvectors", vecs)

    @property
    def dim(self) -> int:
        return self.Q.shape[0]

    def __call__(self, z: np.ndarray) -> float | np.ndarray:
        """Evaluate at a single point (1-d input) or a batch of rows (2-d)."""
        z = np.asarray(z, dtype=float)
        if z.ndim == 1:
            return float(z @ self.Q @ z + 2.0 * self.q @ z + self.c)
        return np.einsum("ij,jk,ik->i", z, self.Q, z) + 2.0 * z @ self.q + self.c


@dataclass(frozen=True)
class RiskSpec:
    """Risk level and ambiguity radius for a worst-case CVaR problem.

    alpha in (0, 1] is the CVaR tail probability; radius >= 0 is the
    transport budget of the ambiguity ball around the nominal distribution.
    """

    alpha: float
    radius: float

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not (self.radius >= 0.0 and np.isfinite(self.radius)):
            raise ValueError(f"radius must be finite and >= 0, got {self.radius}")
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "radius", float(self.radius))


def affine_to_quadratic(est: AffineEstimator) -> QuadraticForm:
    """Quadratic form of the squared estimation error of ``est``.

    Returns Q = F'F, q = F'b, c = b'b with F = [-I_n, A], so that the form
    evaluated at z = (x, y) equals ||x - A y - b||^2 exactly.
    """
    F = est.error_matrix()
    return QuadraticForm(Q=F.T @ F, q=F.T @ est.b, c=float(est.b @ est.b))


def loss_batch(est: AffineEstimator, dist: EmpiricalDistribution) -> np.ndarray:
    """Per-atom squared errors of ``est`` under ``dist`` (length-N vector)."""
    if dist.n != est.n or dist.m != est.m:
        raise ValueError(
            f"estimator is ({est.n},{est.m}) but distribution is ({dist.n},{dist.m})"
        )
    resid = dist.x - est.predict(dist.y)
    return np.einsum("ij,ij->i", resid, resid)
