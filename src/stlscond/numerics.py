"""Dense numerical kernels used by every other module.

All operations are pure functions of their inputs; nothing is modified in
place.  Decompositions go through numpy's own OpenBLAS by two routes:
``numpy.linalg`` for the eigen- and gesdd SVDs, and routines of the same
library, called through ctypes, for what numpy does not expose or runs
slower.  ``augmented_qr_r`` runs the blocked Householder QR dgeqrt on one
column-major copy of ``[A, b]``, scaled by a power of two as it is made.
``factored_svd`` runs dgebrd and dbdsdc, the factorizations inside gesdd,
and keeps U and V as products of Householder reflectors and the
bidiagonal's singular vectors, applied with dormbr instead of formed; the
gesvd fallback of ``svd`` runs dgesvd, and ``dlasd4``, the
secular-equation solver inside dbdsdc, runs the Fortran routine itself.
The one layout convention that matters elsewhere is column-major
``vec``: stacking a matrix column by column.  Helpers here never reshape,
but the condition-operator code relies on that ordering throughout.

One switch, ``_openblas()``, decides between two platforms.  numpy's
wheels from 2.0 on ship ``scipy_openblas`` with every routine above, and
``_openblas`` binds them all on first use.  numpy 1.x wheels, conda and
Accelerate builds ship none; there ``_openblas`` is None and every kernel
takes its one fallback: the QR is numpy's qr, ``factored_svd`` wraps the
explicit U and V of ``svd``, the gesvd fallback and ``dlasd4`` run
scipy's wrappers (a second BLAS with its own thread pool, so every solve
imports ``scipy.linalg``, about 0.3 s), and ``serial_blas`` does nothing.

Where the library is present, this module is the one owner of its thread
count.  ``svd``, ``singular_values``, ``factored_svd`` with its products,
and ``augmented_qr_r`` run on one OpenBLAS thread when the smaller side
of their matrix (for the last, of A in ``[A, b]``) is at most
``SERIAL_BLAS_MAX_N``.  At those sizes one thread makes their results
independent of the caller's thread count, at little cost: a second
thread gains nothing on the SVD (1000x300 on two cores: dgebrd 6-7 ms on
one thread against 7-8 ms on two) and about 1 ms on the QR (5-6.5
against 4-5 ms).  Larger factorizations keep the count the caller set.
"""

from __future__ import annotations

import contextlib
import functools
import math
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


# Largest min(rows, cols) of a factorization run on one BLAS thread, so
# that solves up to this n give the same bits at any thread count.  On a
# 2-core host a second thread gains nothing on dgebrd and dbdsdc up to
# 1000x400 and 1-2 ms on the QR, and takes whole solves at 1000x700 and
# 4000x500 from 0.23-0.24 s to 0.21-0.22 s and from 0.21 to 0.20 s; see
# README "Reproducibility and threads".
SERIAL_BLAS_MAX_N = 400

_blas_lock = threading.Lock()
_blas_depth = 0  # callers inside serial_blas
_blas_saved = 1  # the count to restore when the last of them leaves


@functools.cache
def _openblas(libdir=os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")):
    """Every routine of numpy's bundled OpenBLAS that this module calls, by
    name with its ctypes signature, or None when ``libdir`` holds no such
    library, it cannot be loaded, or it lacks one of them.  The one switch
    between the two platforms: each kernel takes its fallback on None.
    The library has 64-bit integers (the ``64_`` suffix); LAPACKE matrices
    are passed column-major, and the Fortran dlasd4 takes every argument by
    reference."""
    import ctypes
    import glob
    from types import SimpleNamespace

    c_int, i64, ch = ctypes.c_int, ctypes.c_int64, ctypes.c_char
    mat = np.ctypeslib.ndpointer(np.float64, flags="F_CONTIGUOUS")
    vec, ivec = np.ctypeslib.ndpointer(np.float64), np.ctypeslib.ndpointer(np.int64)
    routines = {  # name: (symbol, restype, argtypes)
        "get_num_threads": ("scipy_openblas_get_num_threads64_", c_int, []),
        "set_num_threads": ("scipy_openblas_set_num_threads64_", None, [c_int]),
        # layout, m, n, nb, a, lda, t, ldt
        "dgeqrt": ("scipy_LAPACKE_dgeqrt64_", i64,
                   [c_int, i64, i64, i64, mat, i64, mat, i64]),
        # layout, m, n, a, lda, d, e, tauq, taup
        "dgebrd": ("scipy_LAPACKE_dgebrd64_", i64,
                   [c_int, i64, i64, mat, i64, mat, mat, mat, mat]),
        # layout, uplo, compq, n, d, e, u, ldu, vt, ldvt, q, iq
        "dbdsdc": ("scipy_LAPACKE_dbdsdc64_", i64,
                   [c_int, ch, ch, i64, mat, mat, mat, i64, mat, i64, mat, ivec]),
        # layout, vect, side, trans, m, n, k, a, lda, tau, c, ldc, work, lwork
        "dormbr": ("scipy_LAPACKE_dormbr_work64_", i64,
                   [c_int, ch, ch, ch, i64, i64, i64, mat, i64, mat, mat, i64, vec, i64]),
        # layout, jobu, jobvt, m, n, a, lda, s, u, ldu, vt, ldvt, superb
        "dgesvd": ("scipy_LAPACKE_dgesvd64_", i64,
                   [c_int, ch, ch, i64, i64, mat, i64, mat, mat, i64, mat, i64, mat]),
        # n, i, d, z, delta, rho, sigma, work, info
        "dlasd4": ("scipy_dlasd4_64_", None, [ivec, ivec, vec, vec, vec, vec, vec, vec, ivec]),
    }
    for path in sorted(glob.glob(os.path.join(libdir, "libscipy_openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)
            funcs = {name: getattr(lib, symbol) for name, (symbol, _, _) in routines.items()}
        except (OSError, AttributeError):
            continue
        for name, (_, restype, argtypes) in routines.items():
            funcs[name].restype, funcs[name].argtypes = restype, argtypes
        return SimpleNamespace(**funcs)
    return None


def dlasd4(d, z, rho):
    """LAPACK dlasd4 for I = 1: the smallest singular value sigma of
    ``diag(d)**2 + rho z z'``, the root in ``(d[0], d[1])`` of the
    secular equation ``1 + rho sum(z**2 / ((d - sigma)(d + sigma))) = 0``,
    by Li's stable solver (LAPACK Working Note 89), as dbdsdc runs it.
    Needs ``0 <= d[0] < d[1] < ...``, nonzero z with ``||z|| = 1`` and
    ``rho > 0``.

    Returns ``(delta, sigma, work, info)`` with ``delta = d - sigma`` and
    ``work = d + sigma`` (both 1 when ``len(d) == 1``), each accurate
    relative to its pole; ``info > 0`` when the iteration failed.
    Where numpy ships no such library, scipy's wrapper runs it."""
    d, z = np.ascontiguousarray(d, dtype=float), np.ascontiguousarray(z, dtype=float)
    lib = _openblas()
    if lib is None:
        from scipy.linalg import lapack

        return lapack.dlasd4(0, d, z, rho)  # scipy counts i from 0
    n = len(d)
    delta, work, sigma, info = np.empty(n), np.empty(n), np.empty(1), np.zeros(1, np.int64)
    lib.dlasd4(np.array([n], np.int64), np.array([1], np.int64), d, z, delta,
               np.array([float(rho)]), sigma, work, info)
    return delta, float(sigma[0]), work, int(info[0])


COLUMN_MAJOR = 102  # LAPACKE's LAPACK_COL_MAJOR


def _checked(name, info, *operands):
    """LAPACKE's info, after raising on an argument or workspace error.

    LAPACKE also answers a NaN in a data operand with a negative info;
    when one of ``operands`` (the call's arrays that data can reach) is not
    finite, that is the data's fault and raises NonFiniteError.  The
    operands are read only on that failure path."""
    if info < 0:
        if not all(np.isfinite(x).all() for x in operands):
            raise NonFiniteError(f"LAPACKE_{name} returned {info} on a non-finite operand")
        raise RuntimeError(f"LAPACKE_{name} returned {info}")
    return info


@contextlib.contextmanager
def serial_blas():
    """Run the body on one OpenBLAS thread and restore the count after.

    The count is process-wide, so nested and concurrent callers share one
    change: the first to enter saves the count and sets it to one, the last
    to leave restores it."""
    global _blas_depth, _blas_saved
    lib = _openblas()
    if lib is None:
        yield
        return
    get, set_ = lib.get_num_threads, lib.set_num_threads
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


def augmented_qr_r(A, b, e=0) -> np.ndarray:
    """R factor of the thin QR of ``2**-e [A, b]``, for a tall A and finite
    entries: LAPACK's blocked Householder QR dgeqrt on one column-major
    copy of ``[A, b]``, scaled by 2**-e as it is made, or numpy's qr where
    numpy ships no LAPACKE.  The scaling is exact unless an entry
    underflows.  The thread rule goes by A, so a solve with
    n <= SERIAL_BLAS_MAX_N runs every factorization on one thread."""
    A = np.asarray(A, dtype=float)
    lapack = _openblas()
    if lapack is None:
        with _threads_for(A):
            return np.linalg.qr(np.ldexp(np.column_stack([A, b]), -e), mode="r")
    m, n = A.shape
    k = min(m, n + 1)
    a = np.empty((m, n + 1), order="F")  # dgeqrt overwrites it
    np.ldexp(A, -e, out=a[:, :n])
    np.ldexp(b, -e, out=a[:, n])
    nb = min(32, k)
    t = np.empty((nb, k), order="F")  # the block reflectors' factors, unused
    with _threads_for(A):
        _checked("dgeqrt", lapack.dgeqrt(COLUMN_MAJOR, m, n + 1, nb, a, m, t, nb), a)
    return np.triu(a[:k])


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
        # gesdd occasionally fails to converge; gesvd is slower but sturdier
        return _gesvd(X)


def _gesvd(X):
    """``svd`` by LAPACK's gesvd: numpy's OpenBLAS under the thread rule,
    or scipy's (a second OpenBLAS) where numpy ships no LAPACKE."""
    lapack = _openblas()
    if lapack is None:
        import scipy.linalg

        try:
            return scipy.linalg.svd(X, full_matrices=False, lapack_driver="gesvd")
        except Exception as exc:
            raise ConvergenceError("SVD backend failed to converge") from exc
    p, q = X.shape
    k = min(p, q)
    a = np.array(X, order="F")
    U, s, Vt = np.empty((p, k), order="F"), np.empty(k), np.empty((k, q), order="F")
    superb = np.empty(max(k - 1, 1))
    with _threads_for(X):
        info = lapack.dgesvd(COLUMN_MAJOR, b"S", b"S", p, q, a, p, s, U, p, Vt, k, superb)
    if _checked("dgesvd", info):
        raise ConvergenceError("SVD backend failed to converge")
    return U, s, Vt


@dataclass(frozen=True, eq=False)
class FactoredSvd:
    """``X = U diag(s) V'`` of a square X, with U and V kept as products
    of their factors ``U = Q U_B`` and ``V = P V_B``.

    ``X = Q B P'`` is LAPACK's bidiagonal reduction (dgebrd), whose
    Householder reflectors Q and P stay in the form dgebrd leaves them
    (``reflectors``), and ``B = U_B diag(s) V_B'`` is the SVD of the
    bidiagonal B (dbdsdc).  ``ut``, ``vt`` and ``v`` apply U', V' and V
    to a vector or a block of k columns at O(n^2 k): one dormbr and one
    product with U_B or V_B.  gesdd computes the same factors and then
    forms U and V, two n x n back-transformations skipped here.
    ``reflectors`` None stands for Q = P = I, so that U_B and V_B are U
    and V themselves (``explicit``)."""

    s: np.ndarray  # singular values
    UB: np.ndarray
    VB: np.ndarray
    reflectors: tuple | None = None  # dgebrd's (a, tauq, taup), column-major

    @classmethod
    def explicit(cls, U, s, Vt) -> "FactoredSvd":
        """The SVD ``U diag(s) Vt`` with U and V given whole."""
        return cls(s=s, UB=U, VB=Vt.T)

    def ut(self, y) -> np.ndarray:
        """U'y, for a vector or a block of columns."""
        with _threads_for(self.UB):
            return self.UB.T @ self._reflect(b"Q", b"T", y)

    def vt(self, y) -> np.ndarray:
        """V'y, for a vector or a block of columns."""
        with _threads_for(self.VB):
            return self.VB.T @ self._reflect(b"P", b"T", y)

    def v(self, y) -> np.ndarray:
        """Vy, for a vector or a block of columns."""
        with _threads_for(self.VB):
            return self._reflect(b"P", b"N", self.VB @ np.asarray(y, dtype=float))

    def _reflect(self, vect, trans, y) -> np.ndarray:
        """Q or P (``vect``), or its transpose (``trans`` T), applied to y."""
        y = np.asarray(y, dtype=float)
        if self.reflectors is None:
            return y
        a, tauq, taup = self.reflectors
        n = len(tauq)
        if y.ndim not in (1, 2) or y.shape[0] != n:
            raise ValueError(f"operand has shape {y.shape}, expected {n} rows")
        out = np.array(y, order="F")
        if np.isnan(out).any():  # LAPACKE_dormbr's NaN check, of the one operand data reaches
            raise NonFiniteError("dormbr was given an operand with a NaN entry")
        k = 1 if out.ndim == 1 else out.shape[1]
        args = (COLUMN_MAJOR, vect, b"L", trans, n, k, n, a, n, tauq if vect == b"Q" else taup,
                out, n)
        # at its optimal workspace, as at a workspace of one, dormbr takes a
        # single column through its unblocked path: the same bits, no query
        work = np.empty(1)
        if k > 1:  # a block takes the queried size, as LAPACKE_dormbr passes it
            _checked("dormbr", _openblas().dormbr(*args, work, -1))
            work = np.empty(int(work[0]))
        _checked("dormbr", _openblas().dormbr(*args, work, len(work)))
        return out


def factored_svd(X) -> FactoredSvd:
    """SVD of a square matrix with finite entries in the factored form of
    :class:`FactoredSvd`: dgebrd and dbdsdc, the factorizations of gesdd,
    without its two back-transformations, so the singular values are
    gesdd's.  X is scaled by the power of two that brings its largest
    entry near 1, which is exact, as gesdd scales data near the ends of
    the double range.  Where numpy ships no LAPACKE, U and V come whole
    from ``svd``; where dbdsdc fails to converge, from gesvd."""
    X = _as_matrix(X)
    n = X.shape[0]
    if X.shape != (n, n):
        raise ValueError(f"matrix must be square, got shape {X.shape}")
    lapack = _openblas()
    if lapack is None:
        return FactoredSvd.explicit(*svd(X))
    top = float(np.max(np.abs(X)))
    e = math.frexp(top)[1] if top > 0.0 else 0
    a = np.ldexp(X, -e, out=np.empty((n, n), order="F"))  # dgebrd overwrites it
    s, sup, tauq, taup = np.empty(n), np.empty(max(n - 1, 1)), np.empty(n), np.empty(n)
    UB, VBt = np.empty((n, n), order="F"), np.empty((n, n), order="F")
    with _threads_for(X):
        _checked("dgebrd", lapack.dgebrd(COLUMN_MAJOR, n, n, a, n, s, sup, tauq, taup))
        # q and iq are not referenced with compq I
        info = _checked("dbdsdc", lapack.dbdsdc(COLUMN_MAJOR, b"U", b"I", n, s, sup, UB, n,
                                                VBt, n, np.empty(1), np.empty(1, np.int64)))
    if info:
        return FactoredSvd.explicit(*_gesvd(X))
    return FactoredSvd(np.ldexp(s, e), UB, VBt.T, (a, tauq, taup))


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
    definite matrix, with V the right singular vectors of ``basis``: solves
    ``M z = y`` as ``z = V ((V'y) / d)`` through the products of ``basis``,
    so V is never formed.  The library's one M is the solution's
    ``SpdFactorization(sol.svd, sol.d)``; ``from_matrix``, which raises
    :class:`NotPositiveDefiniteError` when an eigenvalue is not positive,
    serves the tests and the benchmark."""

    basis: FactoredSvd  # its V holds the orthogonal eigenvectors, one per column
    d: np.ndarray  # positive eigenvalues

    @classmethod
    def from_matrix(cls, M) -> "SpdFactorization":
        M = _as_matrix(M)
        if M.shape[0] != M.shape[1]:
            raise ValueError(f"matrix must be square, got shape {M.shape}")
        d, V = np.linalg.eigh(M)
        if not d[0] > 0.0:
            raise NotPositiveDefiniteError(f"smallest eigenvalue {d[0]:.3e} is not positive")
        # the eigendecomposition of an SPD matrix is an SVD of it
        return cls(basis=FactoredSvd.explicit(V, d, V.T), d=d)

    def solve(self, y) -> np.ndarray:
        """Solve M z = y; y may be a vector or a matrix of columns."""
        y = np.asarray(y, dtype=float)
        if y.shape[0] != len(self.d):
            raise ValueError(f"right-hand side has length {y.shape[0]}, expected {len(self.d)}")
        return self.basis.v((self.basis.vt(y).T / self.d).T)


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
