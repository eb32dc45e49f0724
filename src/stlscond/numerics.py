"""Dense numerical kernels used by every other module.

All operations are pure functions of their inputs; nothing is modified in
place.  The one layout convention that matters elsewhere is column-major
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
        return scipy.linalg.svdvals(X)
    except Exception:
        return svd(X)[1]


def spectral_norm_dense(X) -> float:
    """Largest singular value of a dense matrix."""
    return float(singular_values(X)[0])


@dataclass(frozen=True, eq=False)
class SpdFactorization:
    """Cholesky factorization of a symmetric positive definite matrix.

    Stores enough to solve ``M z = y`` for any right-hand side.  A failed
    factorization raises :class:`NotPositiveDefiniteError`, which callers
    use as a definiteness probe (loss of definiteness signals a uniqueness
    violation upstream).
    """

    order: int
    factor: np.ndarray  # lower triangle holds the Cholesky factor

    @classmethod
    def from_matrix(cls, M) -> "SpdFactorization":
        M = _as_matrix(M)
        if M.shape[0] != M.shape[1]:
            raise ValueError(f"matrix must be square, got shape {M.shape}")
        try:
            c, _ = scipy.linalg.cho_factor(M, lower=True)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError(str(exc)) from exc
        return cls(order=M.shape[0], factor=c)

    def solve(self, y) -> np.ndarray:
        """Solve M z = y; y may be a vector or a matrix of columns."""
        y = np.asarray(y, dtype=float)
        if y.shape[0] != self.order:
            raise ValueError(f"right-hand side has length {y.shape[0]}, expected {self.order}")
        return scipy.linalg.cho_solve((self.factor, True), y)


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
