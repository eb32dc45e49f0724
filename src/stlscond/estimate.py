"""Matrix-free and stochastic condition-number estimation.

Three estimators, all driven by products with the rectangular factor W
of K K' (W W' = K K'), the matrix-free n x (3n+2) operator
``exact._f2_operator`` on the solver's compressed problem (its transpose
gives ``kappa_f2``), so none of them reads the m x n data:

* ``power_method``  -- power iteration on W W' = K K'; the running scalar
  converges to the squared spectral norm, so its square root is the
  condition number.
* ``pce``           -- probabilistic estimate: a certified lower bound and a
  probabilistic upper bound on the spectral norm of W, tightened until
  their ratio is below ``1 + theta``; the midpoint is the estimate.
* ``sce``           -- small-sample estimate from a few orthonormalized
  random probes z, using ||W'z|| = ||K'z|| (one block adjoint product),
  rescaled by Wallis factors.

``apply_KT`` and ``apply_K`` are the public products with K' and K in the
packed m x (n+1) perturbation form [dA, db] of the original data.  A solve
with M = V diag(d) V' is two products with V; ``pce(..., solver="cg")``
uses Jacobi-preconditioned conjugate gradients (relative residual 1e-12).

scipy is imported where it is called, never at module level:
``scipy.sparse.linalg`` only for ``solver="cg"``.  The three estimators
with their default solver load no scipy; the failure quantile of ``pce``
is a finite sum on numpy (``_sphere_quantile``), so no call pays an
import part-way through a run.

``METHODS`` is the one table of the six ways to evaluate the condition
number, the three exact forms and the three estimators, by name.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from . import exact, numerics
from .errors import ConvergenceError, SampleTooLargeError
from .exact import ConditionReport, _f2_operator, check_operator_inputs
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

def _cg_solver(sol: StlsSolution):
    """Conjugate-gradient solve of M z = y with a Jacobi preconditioner,
    applying M through products with the core's A."""
    import scipy.sparse.linalg

    A = sol.core.A
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


# ---------------------------------------------------------------------------
# Products with K and K' (packed m x (n+1) form)
# ---------------------------------------------------------------------------

def apply_KT(sol: StlsSolution, A, y) -> np.ndarray:
    """Adjoint product: the m x (n+1) matrix whose column-major vec is K'y."""
    A = np.asarray(A, dtype=float)
    check_operator_inputs(sol, A)
    y = np.asarray(y, dtype=float).ravel()
    if y.shape[0] != A.shape[1]:
        raise ValueError(f"y has length {y.shape[0]}, expected {A.shape[1]}")
    x, r = sol.x, sol.r
    z = sol.M.solve(y)
    Az = A @ z
    w = (2.0 * float(r @ Az) / float(r @ r)) * r - Az
    return np.column_stack([np.outer(w, x) - np.outer(r, z), -w])


def apply_K(sol: StlsSolution, A, P) -> np.ndarray:
    """Forward product: K applied to the perturbation packed as the
    m x (n+1) matrix [dA, db]."""
    A = np.asarray(A, dtype=float)
    check_operator_inputs(sol, A)
    P = np.asarray(P, dtype=float)
    m, n = A.shape
    if P.shape != (m, n + 1):
        raise ValueError(f"P has shape {P.shape}, expected {(m, n + 1)}")
    x, r = sol.x, sol.r
    Ap, bp = P[:, :n], P[:, n]
    s = Ap @ x - bp
    t = (2.0 * float(r @ s) / float(r @ r)) * (A.T @ r) - A.T @ s - Ap.T @ r
    return sol.M.solve(t)


# ---------------------------------------------------------------------------
# Power method
# ---------------------------------------------------------------------------

def power_method(sol: StlsSolution, A, cfg: PowerConfig, y0=None) -> ConditionReport:
    """Power iteration on K K', through its rectangular factor W.

    Each sweep maps y to W applied to the normalized adjoint product W'y;
    the recorded scalar v is the norm of W'y before normalization, which
    equals the norm of K'y because W W' = K K', and converges to the
    squared condition number, so the estimate is sqrt(v).  The work vector
    is renormalized every sweep (with the scale carried into v) to prevent
    magnitude drift; this leaves the v sequence unchanged.

    A run that exhausts ``max_iter`` returns its last estimate flagged
    ``converged: False`` in the diagnostics rather than raising.
    """
    check_operator_inputs(sol, A)
    n = len(sol.x)
    op = _f2_operator(sol, sol.M.solve)
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
        q = op.rmatvec(y)
        qnorm = float(np.linalg.norm(q))
        v = scale * qnorm
        v_trace.append(v)
        if qnorm == 0.0:
            converged = True  # y is annihilated; the operator norm along it is 0
            break
        if v_prev is not None and abs(v - v_prev) < cfg.tol:
            converged = True
            break
        v_prev = v
        y = op.matvec(q / qnorm)
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

# Cap on the Newton iterations of ``_certified_upper`` and
# ``_sphere_quantile``.  839 roots of the first from 1000x300 Gaussian,
# 60x40 generated and 40x90 dense operators took at most 8; the second
# takes 2-7 for 1e-15 <= eps <= 0.9 and 3 <= d <= 20001, and 20 at
# eps = 1 - 1e-6.
NEWTON_MAX_ITER = 50


def _ritz_values(alphas, betas):
    """Eigenvalues (ascending) of the k x k Gram tridiagonal built from the
    bidiagonalization coefficients, k being the Lanczos depth."""
    k = len(alphas)
    d = np.array(
        [alphas[j] ** 2 + (betas[j - 1] ** 2 if j > 0 else 0.0) for j in range(k)]
    )
    e = np.array([alphas[j] * betas[j] for j in range(k - 1)])
    return np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))


def _certified_upper(mu, log_target):
    """Root t* > max(mu) of sum(log(t - mu_i)) = log_target, returned as
    sqrt(t*).  The left side is the log of the monic characteristic
    polynomial of the projected tridiagonal.  In s = log(t - max(mu)) it is
    h(s) = sum(log(e^s + c_i)) with c_i = max(mu) - mu_i >= 0: increasing
    (slope between 1 and k) and convex on the whole line, so the equation
    has exactly one solution.  Every term is at least s, so h is not below
    the target at s = log_target / k, and Newton steps from there fall
    monotonically to the root.  They stop at a step below 1e-14 max(1, |s|),
    or where h is no longer above the target, which only rounding causes.
    """
    mu_max = float(mu[-1])
    c = mu_max - mu
    s = log_target / len(mu)
    for _ in range(NEWTON_MAX_ITER):
        es = np.exp(s)
        w = es + c  # t - mu
        h = float(np.sum(np.log(w))) - log_target
        if h <= 0.0:
            break
        step = h / float(np.sum(es / w))
        s -= step
        if step <= 1e-14 * max(1.0, abs(s)):
            break
    else:
        raise ConvergenceError(f"Newton iteration for the PCE upper bound did not "
                               f"converge in {NEWTON_MAX_ITER} steps")
    return float(np.sqrt(mu_max + np.exp(s)))


def _sphere_quantile(d, eps):
    """The eps-quantile delta of |v_1| for v uniform on the unit sphere in
    R^d: P(|v_1| <= delta) = eps.

    v_1^2 is Beta(1/2, b) with b = (d - 1)/2, so in y = |v_1| the
    distribution function is G(y) = I_{y^2}(1/2, b).  b is a whole or half
    number; b0 = 1 or 1/2 gives G = y or (2/pi) asin(y), and each unit step
    of b adds a positive term (DLMF 8.17.21),

        I_x(1/2, b_j + 1) = I_x(1/2, b_j) + c_j x^(1/2) (1 - x)^(b_j),
        c_j = 1 / (b_j B(1/2, b_j)),  c_{j+1} / c_j = (b_j + 1/2) / (b_j + 1),

    so G is summed with no cancellation.  For d >= 3 the slope of G,
    2 (1 - y^2)^(b - 1) / B(1/2, b) = 2 b c(b) (1 - y^2)^(b - 1), does not
    increase, so G is concave and Newton steps from y = 0 rise
    monotonically to the root.  They stop at a step below 1e-15 y, or
    where G reaches eps, which only rounding causes.  d = 2 has the closed
    form sin(pi eps / 2), and d = 1 gives 1.
    """
    if d == 1:
        return 1.0
    if d == 2:
        return math.sin(0.5 * math.pi * eps)
    b = (d - 1) / 2.0
    b0 = 1.0 if d % 2 == 1 else 0.5
    bj = b0 + np.arange((d - 2) // 2)  # b0, b0 + 1, ..., b - 1
    ratios = (bj + 0.5) / (bj + 1.0)
    c = (0.5 if b0 == 1.0 else 2.0 / math.pi) * np.cumprod(np.concatenate(([1.0], ratios)))
    slope0 = 2.0 * b * float(c[-1])
    c = c[:-1]
    y = 0.0
    for _ in range(NEWTON_MAX_ITER):
        log1m = math.log1p(-y * y)
        base = y if b0 == 1.0 else 2.0 / math.pi * math.asin(y)
        g = base + y * float(np.sum(c * np.exp(bj * log1m))) - eps
        if g >= 0.0:
            break
        step = -g / (slope0 * math.exp((b - 1.0) * log1m))
        y += step
        if step <= 1e-15 * y:
            break
    else:
        raise ConvergenceError(f"Newton iteration for the PCE failure quantile did "
                               f"not converge in {NEWTON_MAX_ITER} steps")
    return y


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
        Such as ``exact._f2_operator`` or any scipy linear operator (dense
        arrays can be wrapped with ``scipy.sparse.linalg.aslinearoperator``).
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
    alpha = 0.0
    V = [v]
    U = []
    alphas: list[float] = []
    betas: list[float] = []
    log_prod = 0.0
    delta = _sphere_quantile(cols, cfg.eps)

    for k in range(1, cols + 1):
        u = np.asarray(op.matvec(V[-1]), dtype=float).ravel()
        if k > 1:
            u = u - betas[-1] * U[-1]
        for _ in range(2):
            for q in U:
                u -= (q @ u) * q
        a = float(np.linalg.norm(u))
        if a <= 0.0:
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


def pce(sol: StlsSolution, A, cfg: PceConfig, solver=None) -> ConditionReport:
    """Probabilistic condition estimate: midpoint of the spectral-norm
    bracket of the rectangular factor, which is never materialized.
    ``solver="cg"`` solves with M by conjugate gradients instead of the
    eigendecomposition of M."""
    check_operator_inputs(sol, A)
    if solver not in (None, "factor", "cg"):
        raise ValueError(f"unknown solver {solver!r}; expected 'factor' or 'cg'")
    msolve = _cg_solver(sol) if solver == "cg" else sol.M.solve
    op = _f2_operator(sol, msolve)
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


def sce(sol: StlsSolution, A, cfg: SceConfig) -> ConditionReport:
    """Small-sample estimate from k orthonormal probes.

    Each probe contributes the norm of the adjoint product K'z_i (the
    square root of the quadratic form of K K' at z_i), taken as the norm of
    W'z_i for the rectangular factor W; the root sum of squares is rescaled
    by the ratio of Wallis factors for the sample size and the solution
    dimension.
    """
    check_operator_inputs(sol, A)
    n = len(sol.x)
    if cfg.k > n:
        raise SampleTooLargeError(f"sample size {cfg.k} exceeds dimension {n}")
    rng = np.random.default_rng(cfg.seed)
    Z = np.linalg.qr(rng.uniform(0.0, 1.0, size=(n, cfg.k)))[0]
    probes = _f2_operator(sol, sol.M.solve).rmatmat(Z)
    estimate = (wallis_factor(cfg.k) / wallis_factor(n)) * float(np.linalg.norm(probes))
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
