"""Dense numerical kernels used by every other module.

All operations are pure functions of their inputs; nothing is modified in
place.  Decompositions use ``numpy.linalg``; scipy's LAPACK, a second BLAS
with its own thread pool, serves only the gesvd fallback of ``svd``.  The
one layout convention that matters elsewhere is column-major
``vec``: stacking a matrix column by column.  Helpers here never reshape,
but the condition-operator code relies on that ordering throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConvergenceError, NonFiniteError, NotPositiveDefiniteError


def _as_matrix(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
        raise ValueError(f"expected a nonempty 2-d matrix, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise NonFiniteError("matrix contains NaN or Inf entries")
    return X


def svd(X):
    """Thin singular value decomposition.

    Parameters
    ----------
    X : (p, q) array_like
        Matrix with finite entries; tall or wide.

    Returns
    -------
    U : (p, k) ndarray
    s : (k,) ndarray
        Singular values in non-increasing order, k = min(p, q).
    Vt : (k, q) ndarray
        Rows are right singular vectors; X = U @ diag(s) @ Vt.
    """
    X = _as_matrix(X)
    try:
        return np.linalg.svd(X, full_matrices=False)
    except np.linalg.LinAlgError:
        pass
    # gesdd occasionally fails to converge; gesvd is slower but sturdier
    try:
        return scipy.linalg.svd(X, full_matrices=False, lapack_driver="gesvd")
    except Exception as exc:
        raise ConvergenceError("SVD backend failed to converge") from exc


def singular_values(X) -> np.ndarray:
    """Singular values only, non-increasing."""
    X = _as_matrix(X)
    try:
        return np.linalg.svd(X, compute_uv=False)
    except np.linalg.LinAlgError:
        return svd(X)[1]


def spectral_norm_dense(X) -> float:
    """Largest singular value of a dense matrix."""
    return float(singular_values(X)[0])


@dataclass(frozen=True, eq=False)
class SpdFactorization:
    """Eigendecomposition ``M = V diag(d) V'`` of a symmetric positive
    definite matrix.

    Solves ``M z = y`` as ``z = V ((V'y) / d)`` for any right-hand side.
    ``from_matrix`` raises :class:`NotPositiveDefiniteError` when an
    eigenvalue is not positive, which callers use as a definiteness probe
    (loss of definiteness signals a uniqueness violation upstream).
    """

    V: np.ndarray  # orthogonal eigenvectors, one per column
    d: np.ndarray  # positive eigenvalues

    @classmethod
    def from_matrix(cls, M) -> "SpdFactorization":
        M = _as_matrix(M)
        if M.shape[0] != M.shape[1]:
            raise ValueError(f"matrix must be square, got shape {M.shape}")
        d, V = np.linalg.eigh(M)
        if not d[0] > 0.0:
            raise NotPositiveDefiniteError(f"smallest eigenvalue {d[0]:.3e} is not positive")
        return cls(V=V, d=d)

    def solve(self, y) -> np.ndarray:
        """Solve M z = y; y may be a vector or a matrix of columns."""
        y = np.asarray(y, dtype=float)
        if y.shape[0] != len(self.d):
            raise ValueError(f"right-hand side has length {y.shape[0]}, expected {len(self.d)}")
        return self.V @ ((self.V.T @ y).T / self.d).T


def unit_sphere_sample(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly distributed point on the unit sphere in R^dim.

    Draws a standard Gaussian vector and normalizes; an (almost surely
    impossible) zero draw is redrawn.  The caller owns the generator, so
    repeated calls with a fresh generator of the same seed reproduce the
    same vector.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    while True:
        v = rng.standard_normal(dim)
        nrm = np.linalg.norm(v)
        if nrm > 0.0:
            return v / nrm
