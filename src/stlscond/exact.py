"""Exact condition numbers of the solution map, by three equivalent routes.

The absolute condition number is the spectral norm of the first-order
sensitivity operator K that maps stacked data perturbations
``[vec(dA); db]`` (column-major vec) to the solution perturbation.  Three
mathematically equal evaluations are provided:

* ``kappa_kron``  -- materialize K itself, an n x m(n+1) matrix;
* ``kappa_f1``    -- spectral norm of the n x n quadratic form whose value
  equals K K';
* ``kappa_f2``    -- spectral norm of the n x (2m+n) rectangular factor W
  of K K' (W W' = K K'), free of any Gram product A'A.

W is written once, as the matrix-free operator ``_f2_operator`` that the
estimators also use.  ``kappa_kron`` refuses a K over ``KRON_BUDGET_BYTES``.

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

# Largest dense K, in bytes, that ``build_K_dense`` materializes; building
# it takes two arrays of that size.
KRON_BUDGET_BYTES = 1 << 30


def residual_tolerance(sol: StlsSolution, A: np.ndarray) -> float:
    b = A @ sol.x - sol.r
    return R_TOL_FACTOR * (
        np.linalg.norm(A, "fro") * np.linalg.norm(sol.x) + np.linalg.norm(b)
    )


def check_operator_inputs(sol: StlsSolution, A: np.ndarray) -> None:
    """Shared preconditions for everything built on the operator K."""
    if sol.genericity_gap <= 0.0:
        raise NongenericProblemError(
            f"uniqueness gap {sol.genericity_gap:.3e} is not positive"
        )
    if np.linalg.norm(sol.r) <= residual_tolerance(sol, A):
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


def build_K_dense(sol: StlsSolution, A) -> np.ndarray:
    """Materialize the sensitivity operator K as an n x m(n+1) matrix.

    Column-major vec convention: column j*m + i of K multiplies entry
    (i, j) of dA, and the trailing m columns multiply db.  Allocates
    O(m * n^2) scalars, so a K over ``KRON_BUDGET_BYTES`` raises
    MemoryBudgetError before any allocation; the matrix-free products in the
    estimators module avoid this entirely.
    """
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    nbytes = 8 * n * m * (n + 1)
    if nbytes > KRON_BUDGET_BYTES:
        raise MemoryBudgetError(f"dense K of a {m}x{n} problem needs {nbytes >> 20} "
                                f"MiB, over the {KRON_BUDGET_BYTES >> 20} MiB budget")
    check_operator_inputs(sol, A)
    x, r = sol.x, sol.r
    rn2 = float(r @ r)
    # G = (2/||r||^2) A'r r' - A'
    G = (2.0 / rn2) * np.outer(A.T @ r, r) - A.T
    J = np.empty((n, m * (n + 1)))
    for j in range(n):
        block = J[:, j * m : (j + 1) * m]
        np.multiply(G, x[j], out=block)
        block[j, :] -= r
    J[:, n * m :] = -G
    return sol.M.solve(J)


def kappa_kron(sol: StlsSolution, A) -> ConditionReport:
    """Absolute condition number as the spectral norm of dense K."""
    K = build_K_dense(sol, A)
    return ConditionReport(
        absolute=numerics.spectral_norm_dense(K), method="KRON"
    )


def kappa_f1(sol: StlsSolution, A) -> ConditionReport:
    """Absolute condition number from the n x n quadratic form.

    The middle matrix is ``(1+||x||^2) A'A - A'r x' - x r'A + ||r||^2 I``;
    sandwiched between two inverse applications of M its spectral norm is
    the squared condition number.
    """
    A = np.asarray(A, dtype=float)
    check_operator_inputs(sol, A)
    n = A.shape[1]
    x, r = sol.x, sol.r
    Ar = A.T @ r
    B = (1.0 + float(x @ x)) * (A.T @ A)
    B -= np.outer(Ar, x)
    B -= np.outer(x, Ar)
    B += float(r @ r) * np.eye(n)
    E = sol.M.solve(sol.M.solve(B).T)
    return ConditionReport(
        absolute=float(np.sqrt(numerics.spectral_norm_dense(E))), method="F1"
    )


def _f2_operator(sol: StlsSolution, A: np.ndarray, msolve):
    """The rectangular factor W of K K' (W W' = K K') as a matrix-free
    n x (2m+n) operator,

        W = M^-1 [A', ||x|| (A' - A'r r'/||r||^2), ||r|| I - A'r x'/||r||]:

    products are composed from A-products, rank-one corrections and
    solves with M by ``msolve``, so ||W'y|| = ||K'y|| costs no m x (n+1)
    temporary.  The adjoint takes a vector or a block of columns and hands
    it to ``msolve`` unchanged (one solve for a block)."""
    m, n = A.shape
    x, r = sol.x, sol.r
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
    n x n solve with M and one A-product."""
    A = np.asarray(A, dtype=float)
    check_operator_inputs(sol, A)
    WT = _f2_operator(sol, A, sol.M.solve).rmatmat(np.eye(A.shape[1]))
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
    A = p.A
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
