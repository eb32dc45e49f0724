"""Dense numerical kernels used by every other module.

All operations are pure functions of their inputs; nothing is modified in
place.  Decompositions use ``numpy.linalg``; scipy's LAPACK, a second BLAS
with its own thread pool, serves only the gesvd fallback of ``svd``.
``scipy.linalg`` (about 0.3 s to import) is imported inside that fallback,
so no other path pays for it.  The one layout convention that matters
elsewhere is column-major ``vec``: stacking a matrix column by column.
Helpers here never reshape, but the condition-operator code relies on that
ordering throughout.

This module is the one owner of the BLAS thread count.  ``svd``,
``singular_values`` and ``augmented_qr_r`` run on one OpenBLAS thread when
the smaller side of their matrix (for the last, of A in ``[A, b]``) is at
most ``SERIAL_BLAS_MAX_N``.  At those sizes a second thread slows the
factorization (1000x300 on two cores: QR 12 ms on one thread against
17 ms on two, SVD 20.5 against 23.4 ms), and one thread makes their
results independent of the caller's thread count.  Larger factorizations
keep the count the caller set.  ``serial_blas`` changes the count of
numpy's own OpenBLAS through its ``scipy_openblas`` C interface, looked up
on first use, and does nothing where numpy ships no such library.
"""

from __future__ import annotations

import contextlib
import functools
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NonFiniteError, NotPositiveDefiniteError


def _as_matrix(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
        raise ValueError(f"expected a nonempty 2-d matrix, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise NonFiniteError("matrix contains NaN or Inf entries")
    return X


# Largest min(rows, cols) of a factorization run on one BLAS thread.  On a
# 2-core host a second thread slows the QR and the SVD at 1000x300, breaks
# even on the SVD at 1000x400, and speeds the 4000x500 SVD (56 against
# 64 ms); see README "Reproducibility and threads".
SERIAL_BLAS_MAX_N = 400

_blas_lock = threading.Lock()
_blas_depth = 0  # callers inside serial_blas
_blas_saved = 1  # the count to restore when the last of them leaves


def _find_openblas(libdir):
    """(get, set) of the thread count of the scipy_openblas library in
    ``libdir``, or None when there is no such library or symbol."""
    import ctypes
    import glob

    for path in sorted(glob.glob(os.path.join(libdir, "libscipy_openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@functools.cache
def _openblas_threads():
    """(get, set) of numpy's OpenBLAS thread count, or None; looked up once."""
    return _find_openblas(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                       "numpy.libs"))


@contextlib.contextmanager
def serial_blas():
    """Run the body on one OpenBLAS thread and restore the count after.

    The count is process-wide, so nested and concurrent callers share one
    change: the first to enter saves the count and sets it to one, the last
    to leave restores it."""
    global _blas_depth, _blas_saved
    funcs = _openblas_threads()
    if funcs is None:
        yield
        return
    get, set_ = funcs
    with _blas_lock:
        if _blas_depth == 0:
            _blas_saved = get()
            if _blas_saved != 1:
                set_(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0 and _blas_saved != 1:
                set_(_blas_saved)


def _threads_for(X):
    return serial_blas() if min(X.shape) <= SERIAL_BLAS_MAX_N else contextlib.nullcontext()


def augmented_qr_r(A, b) -> np.ndarray:
    """R factor of the thin QR of ``[A, b]``, for a tall A and finite
    entries.  The thread rule goes by A, so a solve with
    n <= SERIAL_BLAS_MAX_N runs every factorization on one thread."""
    A = np.asarray(A, dtype=float)
    with _threads_for(A):
        return np.linalg.qr(np.column_stack([A, b]), mode="r")


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
        with _threads_for(X):
            return np.linalg.svd(X, full_matrices=False)
    except np.linalg.LinAlgError:
        pass
    # gesdd occasionally fails to converge; gesvd is slower but sturdier
    import scipy.linalg

    try:
        return scipy.linalg.svd(X, full_matrices=False, lapack_driver="gesvd")
    except Exception as exc:
        raise ConvergenceError("SVD backend failed to converge") from exc


def singular_values(X) -> np.ndarray:
    """Singular values only, non-increasing."""
    X = _as_matrix(X)
    try:
        with _threads_for(X):
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


def top_eigenvalue_diag_rank2(L, x, y) -> float:
    """Largest eigenvalue of ``E = diag(L) - (x y' + y x')`` in O(n) memory
    and O(n) work per bisection step.

    As LAPACK's dstebz does for a tridiagonal matrix, the bracket
    ``[max_i E_ii, max L + 2 ||x|| ||y||]`` is bisected on the number of
    eigenvalues of E above a trial lam.  Haynsworth's inertia additivity,
    applied to ``[[diag(L) - lam, P], [P', J]]`` with ``P = [x, y]`` and
    ``J = [[0, 1], [1, 0]]``, gives that number as

        #{L_i > lam} + n_+(T) - 1,   T = J - P' (diag(L) - lam)^-1 P,

    where T is 2 x 2.  T is scaled by the distance delta from lam to the
    nearest pole L_j, which keeps its inertia and every ratio
    ``delta / (L_i - lam)`` in [-1, 1], so nothing overflows however close
    lam comes to a pole.  The term of L_j would cancel in det(T) (it is
    rank one); it is left out exactly and only its products with the other
    terms are formed, so det(T) keeps its sign next to a pole.  Equal poles
    need no care beyond that: two or more of them at c put an eigenvalue of
    E at or above c, so a count that rounding spoils next to c moves the
    result by no more than rounding.  A pole of zero weight contributes
    nothing and needs no deflation.  A trial lam that is a pole is moved to
    the next float above it.  The loop ends when the midpoint equals an
    endpoint and returns the lower one, which is max_i E_ii itself when E
    has no eigenvalue above that.
    """
    L = np.asarray(L, dtype=float).ravel()
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    n = len(L)
    if not n == len(x) == len(y) >= 1:
        raise ValueError(f"need equal nonzero lengths, got {n}, {len(x)}, {len(y)}")
    order = np.argsort(L)
    L, x, y = L[order], x[order], y[order]
    lo = float(np.max(L - 2.0 * x * y))
    hi = float(L[-1]) + 2.0 * float(np.linalg.norm(x)) * float(np.linalg.norm(y))
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise NonFiniteError("diagonal or rank-two terms are not finite")
    weights = np.stack([x * x, x * y, y * y])
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo
        lam = mid
        k = int(np.searchsorted(L, lam, side="right"))  # L[:k] <= lam < L[k:]
        while k and L[k - 1] == lam:
            lam = float(np.nextafter(lam, np.inf))
            k = int(np.searchsorted(L, lam, side="right"))
        if lam >= hi:
            return lo
        j = k if k < n and (k == 0 or L[k] - lam <= lam - L[k - 1]) else k - 1
        delta = abs(L[j] - lam)
        w = delta / (L - lam)
        wj = w[j]
        w[j] = 0.0
        a, b, c = weights @ w
        xj, yj = x[j], y[j]
        cross = wj * float(np.square(xj * y - yj * x) @ w)
        # det(delta T) = a c - (b - delta)**2 with L_j's own term taken out
        det = cross + 2.0 * delta * wj * xj * yj + a * c - (b - delta) ** 2
        if det < 0.0:
            positive = 1
        elif a + c + wj * (xj * xj + yj * yj) < 0.0:
            positive = 2 if det > 0.0 else 1
        else:
            positive = 0
        if n - k + positive > 1:
            lo = lam
        else:
            hi = lam


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
