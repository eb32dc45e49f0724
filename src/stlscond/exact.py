"""Exact condition numbers of the solution map, by three equivalent routes.

The absolute condition number is the spectral norm of the first-order
sensitivity operator K that maps stacked data perturbations
``[vec(dA); db]`` (column-major vec) to the solution perturbation.  Three
mathematically equal evaluations are provided:

* ``kappa_kron``  -- materialize K itself;
* ``kappa_f1``    -- spectral norm of the n x n quadratic form whose value
  equals K K';
* ``kappa_f2``    -- spectral norm of the rectangular factor W of K K'
  (W W' = K K'), free of any Gram product A'A.

All three run on the solver's (n+1) x n compressed problem ``sol.core``
(K K' depends on the data only through A'A, A'r and ||r||), where W is
n x (3n+2) and K is n x (n+1)^2; ``build_K_dense`` alone builds the
n x m(n+1) K of the original data.  W is written once, as the matrix-free
operator ``_f2_operator`` the estimators use.  A K over
``KRON_BUDGET_BYTES`` is refused.

Their mutual agreement is the main correctness oracle of this package.
Specializations for the unscaled problem (an alternative Gram-based form)
and for the ordinary least squares limit are included as cross-checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg

from . import numerics
from .errors import (
    MemoryBudgetError,
    NongenericProblemError,
    RankDeficientError,
    ZeroResidualError,
    ZeroSolutionError,
)
from .problem import StlsProblem, StlsSolution

# Residual scale below which the sensitivity operator (which divides by
# ||r||^2) is considered undefined.
R_TOL_FACTOR = 1e-14

# Largest dense K, in bytes, that ``build_K_dense`` and ``kappa_kron``
# materialize.  Building K allocates no second array of its size; the SVD
# that ``kappa_kron`` takes of it copies it once.
KRON_BUDGET_BYTES = 1 << 30


def _core(sol: StlsSolution):
    """The compressed data A_c and its residual r_c = A_c x - b_c (= Q'r)."""
    A = sol.core.A
    return A, A @ sol.x - sol.core.b


def check_operator_inputs(sol: StlsSolution, A) -> None:
    """Shared preconditions for everything built on the operator K: ``A``
    is the data ``sol`` solves (checked by shape), the gap is positive and
    the residual is not numerically zero."""
    expected = (len(sol.r), len(sol.x))
    if np.shape(A) != expected:
        raise ValueError(f"A has shape {np.shape(A)}, expected {expected}")
    if sol.genericity_gap <= 0.0:
        raise NongenericProblemError(
            f"uniqueness gap {sol.genericity_gap:.3e} is not positive"
        )
    A_c, r_c = _core(sol)
    tol = R_TOL_FACTOR * (
        np.linalg.norm(A_c, "fro") * np.linalg.norm(sol.x) + np.linalg.norm(sol.core.b)
    )
    if np.linalg.norm(r_c) <= tol:
        raise ZeroResidualError(
            "residual is numerically zero; sensitivity operator undefined"
        )


@dataclass
class ConditionReport:
    """A condition value with its method tag and optional diagnostics."""

    absolute: float
    method: str
    relative: float | None = None
    diagnostics: dict | None = None

    def to_dict(self) -> dict:
        doc = {"method": self.method, "absolute": self.absolute}
        if self.relative is not None:
            doc["relative"] = self.relative
        if self.diagnostics is not None:
            doc["diagnostics"] = self.diagnostics
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _build_K(sol: StlsSolution, A: np.ndarray, r: np.ndarray) -> np.ndarray:
    """K of the data A with residual r (original or core), after a budget
    check from the shape alone.  Column j*m + i multiplies entry (i, j) of
    dA, the trailing m columns db: with H = M^-1 ((2/||r||^2) A'r r' - A'),
    block j is x_j H - M^-1 e_j r' and the trailing block is -H."""
    m, n = A.shape
    nbytes = 8 * n * m * (n + 1)
    if nbytes > KRON_BUDGET_BYTES:
        raise MemoryBudgetError(f"dense K of a {m}x{n} problem needs {nbytes >> 20} "
                                f"MiB, over the {KRON_BUDGET_BYTES >> 20} MiB budget")
    x = sol.x
    H = sol.M.solve((2.0 / float(r @ r)) * np.outer(A.T @ r, r) - A.T)
    Minv = sol.M.solve(np.eye(n))
    K = np.empty((n, m * (n + 1)))
    for j in range(n):
        block = K[:, j * m : (j + 1) * m]
        np.multiply(H, x[j], out=block)
        block -= np.outer(Minv[:, j], r)
    K[:, n * m :] = -H
    return K


def build_K_dense(sol: StlsSolution, A) -> np.ndarray:
    """The n x m(n+1) sensitivity operator K of the m x n data; a K over
    ``KRON_BUDGET_BYTES`` raises MemoryBudgetError before it is allocated."""
    A = np.asarray(A, dtype=float)
    check_operator_inputs(sol, A)
    return _build_K(sol, A, sol.r)


def kappa_kron(sol: StlsSolution, A) -> ConditionReport:
    """Absolute condition number as the spectral norm of the dense K of the
    compressed problem, an n x (n+1)^2 matrix with the same K K'."""
    check_operator_inputs(sol, A)
    K = _build_K(sol, *_core(sol))
    return ConditionReport(absolute=numerics.spectral_norm_dense(K), method="KRON")


def kappa_f1(sol: StlsSolution, A) -> ConditionReport:
    """Absolute condition number from the n x n quadratic form.

    The middle matrix is ``(1+||x||^2) A'A - A'r x' - x r'A + ||r||^2 I``;
    sandwiched between two inverse applications of M it is symmetric, and
    its largest eigenvalue is the squared condition number.
    """
    check_operator_inputs(sol, A)
    A, r = _core(sol)
    x = sol.x
    Ar = A.T @ r
    B = (1.0 + float(x @ x)) * (A.T @ A)
    B -= np.outer(Ar, x)
    B -= np.outer(x, Ar)
    B += float(r @ r) * np.eye(len(x))
    E = sol.M.solve(sol.M.solve(B).T)
    return ConditionReport(
        absolute=float(np.sqrt(np.linalg.eigvalsh(E)[-1])), method="F1"
    )


def _f2_operator(sol: StlsSolution, msolve):
    """The rectangular factor W of K K' (W W' = K K') on the compressed
    problem, as a matrix-free n x (3n+2) operator,

        W = M^-1 [A', ||x|| (A' - A'r r'/||r||^2), ||r|| I - A'r x'/||r||]

    with A = A_c and r = r_c, composed from core products, rank-one
    corrections and solves with M by ``msolve``.  The adjoint takes a vector
    or a block of columns and hands it to ``msolve`` unchanged."""
    A, r = _core(sol)
    m, n = A.shape
    x = sol.x
    xn = float(np.linalg.norm(x))
    rn2 = float(r @ r)
    rn = float(np.sqrt(rn2))
    Ar = A.T @ r

    def matvec(s):
        s = np.asarray(s, dtype=float).ravel()
        s1, s2, s3 = s[:m], s[m : 2 * m], s[2 * m :]
        t = A.T @ s1
        t += xn * (A.T @ s2 - Ar * (float(r @ s2) / rn2))
        t += rn * (s3 - Ar * (float(x @ s3) / rn2))
        return msolve(t)

    def rmatmat(q):
        q = np.asarray(q, dtype=float)
        Z = msolve(q)
        AZ = A @ Z
        out = np.empty((2 * m + n,) + q.shape[1:])
        out[:m] = AZ
        out[m : 2 * m] = xn * (AZ - np.multiply.outer(r, (r @ AZ) / rn2))
        out[2 * m :] = rn * (Z - np.multiply.outer(x, (Ar @ Z) / rn2))
        return out

    return scipy.sparse.linalg.LinearOperator(
        (n, 2 * m + n), matvec=matvec, rmatvec=rmatmat, rmatmat=rmatmat, dtype=float)


def kappa_f2(sol: StlsSolution, A) -> ConditionReport:
    """Absolute condition number from the rectangular factor (the route
    recommended for numerical stability: no squaring anywhere).  W' is
    materialized as the adjoint of ``_f2_operator`` on the identity: one
    n x n solve with M and one product with the core's A."""
    check_operator_inputs(sol, A)
    WT = _f2_operator(sol, sol.M.solve).rmatmat(np.eye(len(sol.x)))
    return ConditionReport(absolute=numerics.spectral_norm_dense(WT), method="F2")


def relative_from_absolute(p: StlsProblem, sol: StlsSolution, absolute: float) -> float:
    """Rescale an absolute condition value by data and solution norms.

    relative = absolute * ||[A, lam*b]||_F / ||x||.
    """
    xn = float(np.linalg.norm(sol.x))
    if xn <= 1e-300:
        raise ZeroSolutionError("solution is zero; relative condition undefined")
    return float(absolute) * float(np.linalg.norm(p.augmented(), "fro")) / xn


def kappa_tls_bg(p: StlsProblem, sol: StlsSolution, squared: bool = True) -> ConditionReport:
    """Gram-based form for the unscaled (lam = 1) problem.

    With the squared shift (default) this equals ``kappa_f1`` exactly at
    the solution, via the identities A'r = sigma^2 x and
    ||r||^2 = sigma^2 (1 + ||x||^2).  ``squared=False`` evaluates the
    variant with an unsquared shift, kept only to quantify how far it
    drifts from the equivalent forms.
    """
    if p.lam != 1.0:
        raise ValueError(f"this form applies to lam = 1 problems, got lam={p.lam}")
    A = sol.core.A
    if sol.genericity_gap <= 0.0:
        raise NongenericProblemError(
            f"uniqueness gap {sol.genericity_gap:.3e} is not positive"
        )
    n = p.n
    x = sol.x
    xx = 1.0 + float(x @ x)
    shift = sol.sigma_np1 ** 2 if squared else sol.sigma_np1
    B = A.T @ A + shift * (np.eye(n) - (2.0 / xx) * np.outer(x, x))
    E = xx * sol.M.solve(sol.M.solve(B).T)
    return ConditionReport(
        absolute=float(np.sqrt(numerics.spectral_norm_dense(E))),
        method="TLS_BG",
        diagnostics={"squared_shift": bool(squared)},
    )


def kappa_ols(A, b, form: str = "f1") -> ConditionReport:
    """Condition number of the ordinary least squares limit.

    Three equivalent evaluations, selected by ``form``:

    * ``"f1"``   -- n x n quadratic form (cross terms vanish since A'r = 0);
    * ``"f2"``   -- n x (2m+n) rectangular factor;
    * ``"kron"`` -- materialized sensitivity operator built from the
      pseudoinverse.

    Raises
    ------
    RankDeficientError
        If the smallest singular value of A is <= 1e-12 times the largest.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    m, n = A.shape
    if b.shape != (m,):
        raise ValueError(f"b has length {b.shape[0]}, expected {m}")
    U, s, Vt = numerics.svd(A)
    if s[-1] <= 1e-12 * s[0]:
        raise RankDeficientError(
            f"smallest singular value {s[-1]:.3e} <= 1e-12 * {s[0]:.3e}"
        )
    x = Vt.T @ ((U.T @ b) / s)
    r = A @ x - b
    xn = float(np.linalg.norm(x))
    rn = float(np.linalg.norm(r))
    N = Vt.T @ (Vt / (s**2)[:, None])  # (A'A)^{-1}
    form = form.lower()
    if form == "f1":
        B = (1.0 + xn**2) * (A.T @ A) + rn**2 * np.eye(n)
        value = float(np.sqrt(numerics.spectral_norm_dense(N @ B @ N)))
        tag = "OLS_F1"
    elif form == "f2":
        W = np.hstack([A.T, xn * A.T, rn * np.eye(n)])
        value = numerics.spectral_norm_dense(N @ W)
        tag = "OLS_F2"
    elif form == "kron":
        pinv = Vt.T @ (U.T / s[:, None])  # A^+
        K = np.empty((n, m * (n + 1)))
        K[:, : m * n] = -np.kron(x[None, :], pinv) - np.kron(N, r[None, :])
        K[:, m * n :] = pinv
        value = numerics.spectral_norm_dense(K)
        tag = "OLS_KRON"
    else:
        raise ValueError(f"unknown form {form!r}; expected f1, f2 or kron")
    return ConditionReport(absolute=value, method=tag)
