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
n x m(n+1) K of the original data.  The core is in its own units, 2**-e
times the data's (``problem.StlsSolution``), so every quantity formed here
is near 1 whatever the data's units; K maps the data to x, which has none,
so a condition number leaves as 2**-e times its value on the core
(``_kappa``).  ``kappa_f1`` and ``kappa_f2`` work in the singular bases of
the core's A that the solver carries (U, V and s): there the quadratic form is diagonal plus rank two, and an O(n)
orthogonal reduction takes W to an n x (n+1) diagonal plus rank one, whose
Jordan-Wielandt form is diagonal plus rank two.  Both top eigenvalues come
from ``numerics.top_eigenvalue_diag_rank2`` on n-vectors, so neither form
allocates an n x n array: each costs O(n) per bisection step after the
solve.  W is written once, as the matrix-free operator ``_f2_operator``
the estimators use (O(n) per product).  ``kappa_kron`` builds K in the
original basis through solves with M, independently of that rotation, and
takes its norm from the n x n Gram matrix K K'.  A K over
``KRON_BUDGET_BYTES`` is refused.

Everything here runs on numpy alone: the module loads no scipy, so
``stlscond cond --method f2`` (or f1, kron) starts without its import cost.

Their mutual agreement is the main correctness oracle of this package.
Specializations for the unscaled problem (an alternative Gram-based form)
and for the ordinary least squares limit are included as cross-checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import numerics
from .errors import (
    MemoryBudgetError,
    NongenericProblemError,
    NonFiniteError,
    RankDeficientError,
    ZeroResidualError,
    ZeroSolutionError,
)
from .problem import StlsSolution, to_data_units

# Residual scale below which the sensitivity operator (which divides by
# ||r||^2) is considered undefined.
R_TOL_FACTOR = 1e-14

# Largest dense K, in bytes, that ``build_K_dense`` and ``kappa_kron``
# materialize.  Building K allocates no second array of its size, and
# ``kappa_kron`` takes ||K|| from the n x n Gram matrix K K' (an SVD of K
# would copy it), so the peak stays at about K: the budget bounds both.
KRON_BUDGET_BYTES = 1 << 30


def _core(sol: StlsSolution):
    """The compressed data A_c and its residual r_c = A_c x - b_c (= Q'r)."""
    A = sol.core.A
    return A, A @ sol.x - sol.core.b


def _kappa(sol: StlsSolution, value):
    """A condition number of the core (or an array of them) in the data's
    units: 2**-e times its value on the core, since K maps lengths to the
    unit-free x."""
    return to_data_units(value, -sol.e)


def check_operator_inputs(sol: StlsSolution, A) -> None:
    """Shared preconditions for everything built on the operator K: ``A``
    is the data ``sol`` solves (checked by shape), the gap is positive and
    the residual is not numerically zero."""
    expected = sol.problem.A.shape
    if np.shape(A) != expected:
        raise ValueError(f"A has shape {np.shape(A)}, expected {expected}")
    if sol.gap <= 0.0:
        raise NongenericProblemError(f"uniqueness gap {sol.gap:.3e} is not positive")
    # ||A_c||_F is ||s||: the core's A is a strided view, and its norm
    # would copy it
    tol = R_TOL_FACTOR * (
        np.linalg.norm(sol.svd.s) * np.linalg.norm(sol.x) + np.linalg.norm(sol.core.b)
    )
    if np.linalg.norm(_core(sol)[1]) <= tol:
        raise ZeroResidualError(
            "residual is numerically zero; sensitivity operator undefined"
        )


@dataclass
class ConditionReport:
    """A condition value with its method tag and optional diagnostics.

    A NaN or infinite ``absolute`` raises NonFiniteError: it is no value,
    and JSON has no number for it."""

    absolute: float
    method: str
    relative: float | None = None
    diagnostics: dict | None = None

    def __post_init__(self):
        if not np.isfinite(self.absolute):
            raise NonFiniteError(f"{self.method} condition number is {self.absolute}")

    def to_dict(self) -> dict:
        doc = {"method": self.method, "absolute": self.absolute}
        if self.relative is not None:
            doc["relative"] = self.relative
        if self.diagnostics is not None:
            doc["diagnostics"] = self.diagnostics
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def residual_square(r: np.ndarray) -> float:
    """``r @ r`` of a residual in the data's units, which the packed
    products divide by; NonFiniteError when it leaves the normal double
    range (the data beyond about 1e+-154), since it is not zero."""
    with np.errstate(over="ignore", under="ignore"):
        rr = float(r @ r)
    if not np.finfo(float).tiny <= rr < np.inf:
        raise NonFiniteError(f"||r||**2 is {rr}, beyond the double range")
    return rr


def _build_K(sol: StlsSolution, A: np.ndarray, r: np.ndarray,
             M: numerics.SpdFactorization) -> np.ndarray:
    """K of the data A with residual r and shifted Gram matrix M, those of
    the original data or of the core, after a budget check from the shape
    alone.  Column j*m + i multiplies entry (i, j) of dA, the trailing m
    columns db: with H = M^-1 ((2/||r||^2) A'r r' - A'), block j is
    x_j H - M^-1 e_j r' and the trailing block is -H."""
    m, n = A.shape
    nbytes = 8 * n * m * (n + 1)
    if nbytes > KRON_BUDGET_BYTES:
        raise MemoryBudgetError(f"dense K of a {m}x{n} problem needs {nbytes >> 20} "
                                f"MiB, over the {KRON_BUDGET_BYTES >> 20} MiB budget")
    x = sol.x
    H = M.solve((2.0 / residual_square(r)) * np.outer(A.T @ r, r) - A.T)
    Minv = M.solve(np.eye(n))
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
    return _build_K(sol, A, sol.r, sol.M)


def kappa_kron(sol: StlsSolution, A) -> ConditionReport:
    """Absolute condition number as the spectral norm of the dense K of the
    compressed problem, an n x (n+1)^2 matrix with the same K K'.  The norm
    is the square root of the top eigenvalue of K K', which needs no copy
    of K."""
    check_operator_inputs(sol, A)
    K = _build_K(sol, *_core(sol), numerics.SpdFactorization(sol.svd, sol.d))
    top = float(np.linalg.eigvalsh(K @ K.T)[-1])
    return ConditionReport(absolute=_kappa(sol, float(np.sqrt(top))), method="KRON")


def _rotated(sol: StlsSolution):
    """K K' in the eigenbasis V of M, from the solver's (n+1)-sized
    quantities alone, in the core's units: h = V'x, the core residual
    r_c = A_c x - b_c in the basis blockdiag(U, 1) as (rho, -R22),
    ||r_c||**2 and g = V'A_c'r_c.  ``U' r_c[:n] = s h - c = mu c / d`` with
    mu = sigma**2; the second form has no cancellation when the residual
    is small."""
    s = sol.svd.s
    h = s * sol.c / sol.d
    rho = sol.sigma ** 2 * sol.c / sol.d
    r_t = np.append(rho, -float(sol.core.b[-1]))
    return h, r_t, float(r_t @ r_t), s * rho


def kappa_f1(sol: StlsSolution, A) -> ConditionReport:
    """Absolute condition number from the n x n quadratic form.

    The middle matrix is ``(1+||x||^2) A'A - A'r x' - x r'A + ||r||^2 I``;
    sandwiched between two inverse applications of M it is symmetric, and
    its largest eigenvalue is the squared condition number.  In the
    eigenbasis V of M it is diagonal plus rank two,
    ``D^-1 (C - g h' - h g') D^-1`` with ``C = diag((1+||x||^2) s_hat^2 +
    ||r||^2)``, ``g = V'A'r``, ``h = V'x`` and ``D = diag(d)``, whose top
    eigenvalue ``numerics.top_eigenvalue_diag_rank2`` finds from the
    n-vectors ``C/d^2``, ``g/d`` and ``h/d`` alone: no n x n array, no Gram
    product and no solve.
    """
    check_operator_inputs(sol, A)
    top = numerics.top_eigenvalue_diag_rank2(*_f1_terms(sol))
    return ConditionReport(absolute=_kappa(sol, float(np.sqrt(top))), method="F1")


def _f1_terms(sol: StlsSolution):
    """``V'KK'V = diag(L) - (a b' + b a')`` as the n-vectors (L, a, b):
    ``L = C/d**2``, ``a = g/d`` and ``b = h/d`` (see ``kappa_f1``), in the
    core's units."""
    h, _, rn2, g = _rotated(sol)
    d = sol.d
    C = (1.0 + float(h @ h)) * sol.svd.s ** 2 + rn2
    return C / (d * d), g / d, h / d


def _f2_operator(sol: StlsSolution, msolve=None):
    """The rectangular factor W of K K' (W W' = K K') on the compressed
    problem, rotated into the eigenbasis of M, as a matrix-free
    n x (3n+2) operator with ``shape``, ``matvec``, ``rmatvec`` and
    ``rmatmat``.  On the core (A = A_c, r = r_c)

        W = M^-1 [A', ||x|| (A' - A'r r'/||r||^2), ||r|| I - A'r x'/||r||];

    the operator is ``V' W blockdiag(U1, U1, V)`` with U1 = blockdiag(U, 1),

        D^-1 [[S, 0], ||x|| ([S, 0] - g r1'/||r||^2), ||r|| I - g h'/||r||],

    S = diag(s), D = diag(d), h = V'x, r1 = U1'r, g = V'A'r: each block
    is diagonal plus rank one, so a product costs O(n).  Its product with
    its adjoint is V' K K' V, so a vector y of the original basis enters as
    V'y; ``into_columns`` takes a vector of W's column space into the
    operator's, so a Lanczos run from it matches one on W.  ``msolve``
    solves with V'MV = D (the default divides by d); the adjoint takes a
    vector or a block of columns and hands it to ``msolve`` unchanged.  All
    of it is in the core's units."""
    s = sol.svd.s
    n = len(s)
    h, r_t, rn2, g = _rotated(sol)
    xn = float(np.linalg.norm(h))
    rn = float(np.sqrt(rn2))
    if msolve is None:
        d = sol.d

        def msolve(y):
            return (y.T / d).T

    def matvec(v):
        v = np.asarray(v, dtype=float).ravel()
        v1, v2, v3 = v[: n + 1], v[n + 1 : 2 * n + 2], v[2 * n + 2 :]
        t = s * v1[:n]
        t += xn * (s * v2[:n] - g * (float(r_t @ v2) / rn2))
        t += rn * v3 - g * (float(h @ v3) / rn)
        return msolve(t)

    def rmatmat(q):
        q = np.asarray(q, dtype=float)
        Z = msolve(q)
        SZ = (Z.T * s).T
        gZ = g @ Z
        out = np.zeros((3 * n + 2,) + q.shape[1:])
        out[:n] = SZ
        out[n + 1 : 2 * n + 1] = xn * SZ
        out[n + 1 : 2 * n + 2] -= np.multiply.outer(r_t, (xn / rn2) * gZ)
        out[2 * n + 2 :] = rn * Z - np.multiply.outer(h, gZ / rn)
        return out

    def into_columns(v):
        u12 = sol.svd.ut(np.column_stack([v[:n], v[n + 1 : 2 * n + 1]]))
        return np.concatenate([u12[:, 0], v[n : n + 1], u12[:, 1],
                               v[2 * n + 1 : 2 * n + 2], sol.svd.vt(v[2 * n + 2 :])])

    return SimpleNamespace(shape=(n, 3 * n + 2), matvec=matvec, rmatvec=rmatmat,
                           rmatmat=rmatmat, into_columns=into_columns)


def kappa_f2(sol: StlsSolution, A) -> ConditionReport:
    """Absolute condition number from the rectangular factor (the route
    recommended for numerical stability: no squaring anywhere).

    In ``_f2_operator``'s bases ``W = D^-1 (B0 - g q')`` with
    ``B0 = [[S, 0], ||x|| [S, 0], ||r|| I]`` and
    ``q = (0, ||x|| r1/||r||^2, h/||r||)``.  The rows of B0 are orthogonal
    with norms ``sqrt(C)`` (C as in ``kappa_f1``), so completing
    ``Q0 = diag(C)^-1/2 B0`` to an orthogonal matrix takes W to the
    n x (n+1) ``G = [diag(gamma), 0] - u w'`` with the same singular
    values: ``gamma = sqrt(C)/d``, ``u = g/d`` and ``w = (Q0 q, ||q_perp||)``,
    q_perp being q less its projection on the rows of Q0.  The largest
    singular value of G is the top eigenvalue of its Jordan-Wielandt form
    ``[[0, G], [G', 0]]``, which the rotation pairing e_i with f_i turns
    into diagonal plus rank two with the poles ``gamma``, ``-gamma`` and 0;
    ``numerics.top_eigenvalue_diag_rank2`` takes it in O(n) memory.
    """
    check_operator_inputs(sol, A)
    s = sol.svd.s
    n = len(s)
    h, r_t, rn2, g = _rotated(sol)
    d = sol.d
    xn = float(np.linalg.norm(h))
    rn = float(np.sqrt(rn2))
    sqrt_C = np.sqrt((1.0 + xn * xn) * s * s + rn2)
    # q = (0, q2, q3) by W's column blocks; Q0 q = (||x|| S q2[:n] + ||r|| q3) / sqrt(C)
    q2 = (xn / rn2) * r_t
    q3 = h / rn
    Q0q = (xn * s * q2[:n] + rn * q3) / sqrt_C
    # q_perp = q - Q0'Q0 q = q - B0' p, block by block
    p = Q0q / sqrt_C
    perp2 = q2.copy()
    perp2[:n] -= xn * s * p
    q_perp = float(np.sqrt(np.sum((s * p) ** 2) + perp2 @ perp2
                           + np.sum((q3 - rn * p) ** 2)))
    # [[0, G], [G', 0]] on the basis (e_i + f_i)/sqrt2, (e_i - f_i)/sqrt2, f_{n+1}
    gamma = sqrt_C / d
    u = np.sqrt(0.5) * (g / d)
    w = np.sqrt(0.5) * Q0q
    top = numerics.top_eigenvalue_diag_rank2(
        np.concatenate([gamma, -gamma, [0.0]]),
        np.concatenate([u, u, [0.0]]),
        np.concatenate([w, -w, [q_perp]]),
    )
    return ConditionReport(absolute=_kappa(sol, top), method="F2")


def relative_from_absolute(sol: StlsSolution, absolute: float) -> float:
    """Rescale an absolute condition value by data and solution norms.

    relative = absolute * ||[A, lam*b]||_F / ||x||.  The Frobenius norm is
    taken from the core, as 2**e hypot(||s||, lam*||b_c||): Q is
    orthogonal, so ``||A||_F = 2**e ||A_c||_F = 2**e ||s||`` and
    ``||b|| = 2**e ||b_c||``, and the m x n data is not read again.  The
    factor 2**e goes to ``absolute``, whose product with it is the value on
    the core, so the data's units never enter.
    """
    xn = float(np.linalg.norm(sol.x))
    if xn <= 1e-300:
        raise ZeroSolutionError("solution is zero; relative condition undefined")
    core_norm = np.hypot(np.linalg.norm(sol.svd.s), sol.problem.lam * np.linalg.norm(sol.core.b))
    return to_data_units(float(absolute), sol.e) * float(core_norm) / xn


def kappa_tls_bg(sol: StlsSolution, squared: bool = True) -> ConditionReport:
    """Gram-based form for the unscaled (lam = 1) problem, in the data's
    units.

    With the squared shift (default) this equals ``kappa_f1`` exactly at
    the solution, via the identities A'r = sigma^2 x and
    ||r||^2 = sigma^2 (1 + ||x||^2).  ``squared=False`` evaluates the
    variant with an unsquared shift, kept only to quantify how far it
    drifts from the equivalent forms; it adds sigma to sigma**2, so its
    value depends on the data's units.
    """
    lam = sol.problem.lam
    if lam != 1.0:
        raise ValueError(f"this form applies to lam = 1 problems, got lam={lam}")
    A = to_data_units(sol.core.A, sol.e)
    if sol.gap <= 0.0:
        raise NongenericProblemError(f"uniqueness gap {sol.gap:.3e} is not positive")
    n = sol.problem.n
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
