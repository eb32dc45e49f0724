"""Matrix-free and stochastic condition-number estimation.

Three estimators, all driven by products with the sensitivity operator K
and its adjoint rather than by materializing K:

* ``power_method``  -- power iteration on K K'; the running scalar converges
  to the squared spectral norm, so its square root is the condition number.
* ``pce``           -- probabilistic estimate: a certified lower bound and a
  probabilistic upper bound on the spectral norm of the rectangular factor,
  tightened until their ratio is below ``1 + theta``; the midpoint is the
  estimate.
* ``sce``           -- small-sample estimate from a few orthonormalized
  random probes of K', rescaled by Wallis factors.

Linear systems in the shifted Gram matrix M reuse the Cholesky
factorization carried by the solution; ``solver="cg"`` switches to a
Jacobi-preconditioned conjugate-gradient solve (relative residual 1e-12)
for settings where a factorization is undesirable.

``METHODS`` is the one table of the six ways to evaluate the condition
number, the three exact forms and the three estimators, by name.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields

import numpy as np
import scipy.linalg
import scipy.optimize
import scipy.sparse.linalg
import scipy.special

from . import exact, numerics
from .errors import ConvergenceError, SampleTooLargeError
from .exact import ConditionReport, check_operator_inputs
from .problem import StlsSolution


def _check_field_types(cfg) -> None:
    """Reject a non-number in a config field, and a non-integer in an
    integer field (config values may come from a user's JSON file)."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        kind = numbers.Integral if f.type == "int" else numbers.Real
        if isinstance(value, bool) or not isinstance(value, kind):
            what = "an integer" if kind is numbers.Integral else "a number"
            raise ValueError(f"{f.name} must be {what}, got {value!r}")


@dataclass(frozen=True)
class PowerConfig:
    """Termination rule for the power iteration: stop when two successive
    values of the running scalar differ by less than ``tol`` or after
    ``max_iter`` iterations."""

    tol: float = 1e-8
    max_iter: int = 500
    seed: int = 0

    def __post_init__(self):
        _check_field_types(self)
        if not self.tol > 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass(frozen=True)
class PceConfig:
    """Failure probability ``eps`` of the upper bound and relative bracket
    width ``theta`` accepted on return."""

    eps: float = 1e-3
    theta: float = 1e-2
    seed: int = 0

    def __post_init__(self):
        _check_field_types(self)
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"eps must lie in (0, 1), got {self.eps}")
        if not self.theta > 0.0:
            raise ValueError(f"theta must be positive, got {self.theta}")


@dataclass(frozen=True)
class SceConfig:
    """Number of orthonormal random probes (must not exceed the solution
    dimension)."""

    k: int = 3
    seed: int = 0

    def __post_init__(self):
        _check_field_types(self)
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


# ---------------------------------------------------------------------------
# Solves with the shifted Gram matrix M
# ---------------------------------------------------------------------------

def _cg_solver(sol: StlsSolution, A: np.ndarray):
    """Conjugate-gradient solve of M z = y with a Jacobi preconditioner,
    applying M through products with A (relative residual 1e-12)."""
    n = A.shape[1]
    shift = sol.sigma_np1 ** 2

    def apply_m(v):
        return A.T @ (A @ v) - shift * v

    op = scipy.sparse.linalg.LinearOperator((n, n), matvec=apply_m, dtype=float)
    diag = (A * A).sum(axis=0) - shift  # positive whenever M is SPD
    prec = scipy.sparse.linalg.LinearOperator(
        (n, n), matvec=lambda v: v / diag, dtype=float
    )

    def solve(y):
        y = np.asarray(y, dtype=float)
        z, info = scipy.sparse.linalg.cg(op, y, rtol=1e-12, atol=0.0, M=prec)
        if info != 0:
            raise ConvergenceError(f"CG on the shifted Gram matrix failed (info={info})")
        return z

    return solve


def _m_solver(sol: StlsSolution, A: np.ndarray, solver):
    if solver in (None, "factor"):
        return sol.M.solve
    if solver == "cg":
        return _cg_solver(sol, A)
    raise ValueError(f"unknown solver {solver!r}; expected 'factor' or 'cg'")


# ---------------------------------------------------------------------------
# Products with K and K', never materializing K
# ---------------------------------------------------------------------------

def _apply_KT_impl(sol, A, y, msolve):
    x, r = sol.x, sol.r
    rn2 = float(r @ r)
    z = msolve(y)
    Az = A @ z
    w = (2.0 * float(r @ Az) / rn2) * r - Az
    m, n = A.shape
    P = np.empty((m, n + 1))
    P[:, :n] = np.outer(w, x) - np.outer(r, z)
    P[:, n] = -w
    return P


def _apply_K_impl(sol, A, P, msolve):
    x, r = sol.x, sol.r
    rn2 = float(r @ r)
    n = A.shape[1]
    Ap = P[:, :n]
    bp = P[:, n]
    s = Ap @ x - bp
    t = (2.0 * float(r @ s) / rn2) * (A.T @ r) - A.T @ s - Ap.T @ r
    return msolve(t)


def apply_KT(sol: StlsSolution, A, y, solver=None) -> np.ndarray:
    """Adjoint product: the m x (n+1) matrix whose column-major vec is K'y."""
    A = np.asarray(A, dtype=float)
    check_operator_inputs(sol, A)
    y = np.asarray(y, dtype=float).ravel()
    if y.shape[0] != A.shape[1]:
        raise ValueError(f"y has length {y.shape[0]}, expected {A.shape[1]}")
    return _apply_KT_impl(sol, A, y, _m_solver(sol, A, solver))


def apply_K(sol: StlsSolution, A, P, solver=None) -> np.ndarray:
    """Forward product: K applied to the perturbation packed as the
    m x (n+1) matrix [dA, db]."""
    A = np.asarray(A, dtype=float)
    check_operator_inputs(sol, A)
    P = np.asarray(P, dtype=float)
    m, n = A.shape
    if P.shape != (m, n + 1):
        raise ValueError(f"P has shape {P.shape}, expected {(m, n + 1)}")
    return _apply_K_impl(sol, A, P, _m_solver(sol, A, solver))


# ---------------------------------------------------------------------------
# Power method
# ---------------------------------------------------------------------------

def power_method(
    sol: StlsSolution, A, cfg: PowerConfig, y0=None, solver=None
) -> ConditionReport:
    """Power iteration on K K'.

    Each sweep maps y to K applied to the normalized adjoint product K'y;
    the recorded scalar v is the norm of the adjoint product before
    normalization and converges to the squared condition number, so the
    estimate is sqrt(v).  The work vector is renormalized every sweep
    (with the scale carried into v) to prevent magnitude drift; this
    leaves the v sequence unchanged.

    A run that exhausts ``max_iter`` returns its last estimate flagged
    ``converged: False`` in the diagnostics rather than raising.
    """
    A = np.asarray(A, dtype=float)
    check_operator_inputs(sol, A)
    n = A.shape[1]
    msolve = _m_solver(sol, A, solver)
    if y0 is None:
        rng = np.random.default_rng(cfg.seed)
        y = rng.standard_normal(n)
    else:
        y = np.array(y0, dtype=float).ravel()
        if y.shape[0] != n:
            raise ValueError(f"y0 has length {y.shape[0]}, expected {n}")
    ynorm = float(np.linalg.norm(y))
    if ynorm == 0.0:
        raise ValueError("initial vector must be nonzero")
    y = y / ynorm
    scale = 1.0
    v = 0.0
    v_prev = None
    v_trace: list[float] = []
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iter + 1):
        P = _apply_KT_impl(sol, A, y, msolve)
        pnorm = float(np.linalg.norm(P))
        v = scale * pnorm
        v_trace.append(v)
        if pnorm == 0.0:
            converged = True  # y is annihilated; the operator norm along it is 0
            break
        if v_prev is not None and abs(v - v_prev) < cfg.tol:
            converged = True
            break
        v_prev = v
        P /= pnorm
        y = _apply_K_impl(sol, A, P, msolve)
        scale = float(np.linalg.norm(y))
        if scale == 0.0:
            converged = True
            break
        y = y / scale
    return ConditionReport(
        absolute=float(np.sqrt(v)),
        method="POWER",
        diagnostics={
            "iterations": iterations,
            "converged": converged,
            "v": float(v),
            "v_trace": v_trace,
        },
    )


# ---------------------------------------------------------------------------
# Probabilistic spectral-norm bracket
# ---------------------------------------------------------------------------

def _ritz_values(alphas, betas):
    """Eigenvalues (ascending) of the Gram tridiagonal built from the
    bidiagonalization coefficients."""
    k = len(alphas)
    d = np.array(
        [alphas[j] ** 2 + (betas[j - 1] ** 2 if j > 0 else 0.0) for j in range(k)]
    )
    if k == 1:
        return d
    e = np.array([alphas[j] * betas[j] for j in range(k - 1)])
    return scipy.linalg.eigvalsh_tridiagonal(d, e)


def _certified_upper(mu, log_target):
    """Root t* > max(mu) of sum(log(t - mu_i)) = log_target, returned as
    sqrt(t*).  The left side is the log of the monic characteristic
    polynomial of the projected tridiagonal, increasing beyond its largest
    root, so the equation has exactly one solution there."""
    mu_max = float(mu[-1])
    span = max(mu_max - float(mu[0]), abs(mu_max), 1.0)
    lo = mu_max + 1e-16 * span
    if lo <= mu_max:
        lo = float(np.nextafter(mu_max, np.inf))

    def g(t):
        return float(np.sum(np.log(t - mu)) - log_target)

    if g(lo) >= 0.0:
        return float(np.sqrt(lo))
    hi = mu_max + span
    while g(hi) < 0.0:
        hi = mu_max + (hi - mu_max) * 4.0
        if hi > 1e300:
            return float("inf")
    t_star = scipy.optimize.brentq(g, lo, hi, rtol=1e-14)
    return float(np.sqrt(t_star))


def probabilistic_spectral_norm(op, cfg: PceConfig, rng=None):
    """Bracket the spectral norm of a linear operator.

    Runs a Golub-Kahan bidiagonalization with full reorthogonalization from
    a uniform unit-sphere start vector.  After each step:

    * ``alpha`` is the largest Ritz value of the projection -- a certified
      lower bound on the norm;
    * ``beta`` bounds the norm from above with probability at least
      ``1 - eps``: with that probability the start vector has a component
      of at least the eps-quantile ``delta`` along the dominant direction,
      which caps the characteristic polynomial of the projected tridiagonal
      at the true squared norm by the product of the recurrence
      coefficients divided by delta.

    The iteration deepens until ``beta <= (1 + theta) * alpha`` or the
    space is exhausted, in which case both bounds equal the exact norm.

    Parameters
    ----------
    op : object with ``shape``, ``matvec`` and ``rmatvec``
        Any scipy-style linear operator (dense arrays can be wrapped with
        ``scipy.sparse.linalg.aslinearoperator``).
    cfg : PceConfig
    rng : numpy Generator, optional
        Defaults to a fresh generator seeded from ``cfg.seed``.

    Returns
    -------
    (alpha, beta) : floats with alpha <= beta.
    """
    rows, cols = op.shape
    if rows < 1 or cols < 1:
        raise ValueError(f"operator must be nonempty, got shape {op.shape}")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    v = numerics.unit_sphere_sample(cols, rng)
    V = [v]
    U = []
    alphas: list[float] = []
    betas: list[float] = []
    log_prod = 0.0
    if cols > 1:
        delta = float(
            np.sqrt(scipy.special.betaincinv(0.5, (cols - 1) / 2.0, cfg.eps))
        )
    else:
        delta = 1.0

    for k in range(1, cols + 1):
        u = np.asarray(op.matvec(V[-1]), dtype=float).ravel()
        if k > 1:
            u = u - betas[-1] * U[-1]
        for _ in range(2):
            for q in U:
                u -= (q @ u) * q
        a = float(np.linalg.norm(u))
        if a <= 0.0:
            alpha = _current_lower(alphas, betas)
            return alpha, alpha
        alphas.append(a)
        u = u / a
        U.append(u)

        w = np.asarray(op.rmatvec(u), dtype=float).ravel() - a * V[-1]
        for _ in range(2):
            for q in V:
                w -= (q @ w) * q
        b = float(np.linalg.norm(w))

        mu = _ritz_values(alphas, betas)
        alpha = float(np.sqrt(max(float(mu[-1]), 0.0)))

        if b <= 0.0 or k == cols:
            # invariant subspace (almost surely contains the dominant
            # direction) or the full space: the bracket collapses
            return alpha, alpha

        log_prod += np.log(a) + np.log(b)
        beta_up = max(_certified_upper(mu, log_prod - np.log(delta)), alpha)
        if beta_up <= (1.0 + cfg.theta) * alpha:
            return alpha, beta_up

        betas.append(b)
        V.append(w / b)

    raise AssertionError("unreachable: the loop returns at exhaustion")


def _current_lower(alphas, betas):
    if not alphas:
        return 0.0
    mu = _ritz_values(alphas, betas)
    return float(np.sqrt(max(float(mu[-1]), 0.0)))


def _f2_operator(sol: StlsSolution, A: np.ndarray, msolve):
    """The rectangular factor of K K' as a matrix-free operator: products
    are composed from A-products, rank-one corrections and M-solves."""
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

    def rmatvec(q):
        q = np.asarray(q, dtype=float).ravel()
        z = msolve(q)
        Az = A @ z
        out = np.empty(2 * m + n)
        out[:m] = Az
        out[m : 2 * m] = xn * (Az - r * (float(r @ Az) / rn2))
        out[2 * m :] = rn * (z - x * (float(Ar @ z) / rn2))
        return out

    return scipy.sparse.linalg.LinearOperator(
        (n, 2 * m + n), matvec=matvec, rmatvec=rmatvec, dtype=float
    )


def pce(sol: StlsSolution, A, cfg: PceConfig, solver=None) -> ConditionReport:
    """Probabilistic condition estimate: midpoint of the spectral-norm
    bracket of the rectangular factor, which is never materialized."""
    A = np.asarray(A, dtype=float)
    check_operator_inputs(sol, A)
    op = _f2_operator(sol, A, _m_solver(sol, A, solver))
    alpha, beta = probabilistic_spectral_norm(op, cfg)
    return ConditionReport(
        absolute=0.5 * (alpha + beta),
        method="PCE",
        diagnostics={"alpha": alpha, "beta": beta},
    )


# ---------------------------------------------------------------------------
# Small-sample estimation
# ---------------------------------------------------------------------------

def wallis_factor(p: int) -> float:
    """Wallis-factor approximation sqrt(2 / (pi * (p - 1/2)))."""
    return float(np.sqrt(2.0 / (np.pi * (p - 0.5))))


def _orthonormal_uniform_sample(n, k, rng):
    """k vectors with Uniform(0,1) entries, orthonormalized column by
    column with modified Gram-Schmidt."""
    Z = rng.uniform(0.0, 1.0, size=(n, k))
    for i in range(k):
        v = Z[:, i]
        for j in range(i):
            v -= (Z[:, j] @ v) * Z[:, j]
        nrm = float(np.linalg.norm(v))
        while nrm < 1e-12:  # dependent draw; redraw (a.s. unreachable)
            v = rng.uniform(0.0, 1.0, size=n)
            for j in range(i):
                v -= (Z[:, j] @ v) * Z[:, j]
            nrm = float(np.linalg.norm(v))
        Z[:, i] = v / nrm
    return Z


def sce(sol: StlsSolution, A, cfg: SceConfig, solver=None) -> ConditionReport:
    """Small-sample estimate from k orthonormal probes.

    Each probe contributes the norm of the adjoint product K'z_i (the
    square root of the quadratic form of K K' at z_i); the root sum of
    squares is rescaled by the ratio of Wallis factors for the sample size
    and the solution dimension.
    """
    A = np.asarray(A, dtype=float)
    check_operator_inputs(sol, A)
    n = A.shape[1]
    if cfg.k > n:
        raise SampleTooLargeError(f"sample size {cfg.k} exceeds dimension {n}")
    msolve = _m_solver(sol, A, solver)
    rng = np.random.default_rng(cfg.seed)
    Z = _orthonormal_uniform_sample(n, cfg.k, rng)
    total = 0.0
    for i in range(cfg.k):
        total += float(np.linalg.norm(_apply_KT_impl(sol, A, Z[:, i], msolve))) ** 2
    estimate = (wallis_factor(cfg.k) / wallis_factor(n)) * float(np.sqrt(total))
    return ConditionReport(
        absolute=estimate, method="SCE", diagnostics={"k": cfg.k}
    )


# ---------------------------------------------------------------------------
# The six evaluations of the condition number, by name: each maps
# (sol, A, configs) to a ConditionReport, where configs holds the
# estimator configs under the keys "power", "pce" and "sce"; the three
# exact forms ignore it.
# ---------------------------------------------------------------------------

METHODS = {
    "kron": lambda sol, A, configs: exact.kappa_kron(sol, A),
    "f1": lambda sol, A, configs: exact.kappa_f1(sol, A),
    "f2": lambda sol, A, configs: exact.kappa_f2(sol, A),
    "power": lambda sol, A, configs: power_method(sol, A, configs["power"]),
    "pce": lambda sol, A, configs: pce(sol, A, configs["pce"]),
    "sce": lambda sol, A, configs: sce(sol, A, configs["sce"]),
}
