"""Matrix-free and stochastic condition-number estimation.

Three estimators, all driven by the solver's compressed problem, so none
of them reads the m x n data.  ``pce`` and ``sce`` take products with the
rectangular factor W of K K' (W W' = K K'), reduced to the matrix-free
n x (n+1) operator ``exact._f2_operator`` that ``kappa_f2`` also reads;
``power_method`` sweeps K K' itself, diagonal plus rank two in the
eigenbasis of M (``exact._f1_terms``).  Both work in the singular bases
and the units of the core, where each product costs O(n) and every
quantity is near 1; each estimator rotates its start vector or probes
into those bases once, so its values are those of the unrotated
operators, and ``exact._kappa`` takes them to the data's units:

* ``power_method``  -- power iteration on K K'; the running scalar
  converges to the squared spectral norm.  It stops on a relative change.
* ``pce``           -- probabilistic estimate: a certified lower bound and a
  probabilistic upper bound on the spectral norm of W, tightened until
  their ratio is below ``1 + theta``; the midpoint is the estimate.
* ``sce``           -- small-sample estimate from a few random probes z,
  the orthonormalized columns of a Gaussian matrix, using
  ||W'z|| = ||K'z|| (one block adjoint product), rescaled by Wallis
  factors.  The Gaussian law is rotation invariant, so each probe is
  uniform on the unit sphere, as the Wallis factors assume, and the
  estimate's error does not depend on how K lies in the coordinates.

``apply_KT`` and ``apply_K`` are the public products with K' and K in the
packed m x (n+1) perturbation form [dA, db] of the original data, formed
on the core's scale in any units.  A solve with M = V diag(d) V' is two
products with V; in the operator's basis it is a division by d.
``pce(..., solver="cg")`` instead hands the operator ``y -> V' cg(V y)``,
Jacobi-preconditioned conjugate gradients on M (relative residual 1e-12).

scipy is imported where it is called, never at module level:
``scipy.sparse.linalg`` only for ``solver="cg"``.  The three estimators
with their default solver load no scipy; the failure quantile of ``pce``
is a finite sum on numpy (``_sphere_quantile``), so no call pays an
import part-way through a run.

``METHODS`` is the one table of the six ways to evaluate the condition
number, the three exact forms and the three estimators, by name;
``CONFIGS`` is that of the estimators' config classes.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import exact, numerics
from .errors import ConvergenceError, SampleTooLargeError
from .exact import ConditionReport, _f2_operator, _kappa, check_operator_inputs
from .problem import StlsSolution, scaled_product, to_data_units


def _check_field_types(cfg) -> None:
    """Reject a non-number in a config field, a non-integer in an integer
    field, and an infinite or NaN value or an integer beyond the double
    range in a float field (a library caller's values reach the config
    unchecked; the CLI's are checked by its flags and config schema)."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        kind = numbers.Integral if f.type == "int" else numbers.Real
        if isinstance(value, bool) or not isinstance(value, kind):
            what = "an integer" if kind is numbers.Integral else "a number"
            raise ValueError(f"{f.name} must be {what}, got {value!r}")
        if kind is numbers.Real and not abs(value) <= sys.float_info.max:
            raise ValueError(f"{f.name} must be finite and within the double range")


@dataclass(frozen=True)
class PowerConfig:
    """Termination rule for the power iteration: stop when two successive
    values v of the running scalar differ by at most ``tol * v``, a
    relative change, or after ``max_iter`` iterations."""

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
    applying M through products with the core's A, in the core's units."""
    import scipy.sparse.linalg

    A = sol.core.A
    n = A.shape[1]
    shift = sol.sigma ** 2

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
    """Adjoint product: the m x (n+1) matrix whose column-major vec is K'y,
    formed on the core's scale and taken to the data's by ``exact._kappa``."""
    check_operator_inputs(sol, A)
    e, x, p = sol.e, sol.x, sol.problem
    y = np.asarray(y, dtype=float).ravel()
    if y.shape[0] != p.n:
        raise ValueError(f"y has length {y.shape[0]}, expected {p.n}")
    r = scaled_product(p.A, x, e, p.b)
    z = numerics.SpdFactorization(sol.svd, sol.d).solve(y)
    Az = scaled_product(p.A, z, e)
    w = (2.0 * float(r @ Az) / float(r @ r)) * r - Az
    out = np.column_stack([np.outer(w, x) - np.outer(r, z), -w])
    return _kappa(sol, out, out=out)


def apply_K(sol: StlsSolution, A, P) -> np.ndarray:
    """Forward product: K applied to the perturbation packed as the
    m x (n+1) matrix [dA, db], formed on the core's scale: P enters it as
    2**-e P, and KP, a perturbation of the unit-free x, leaves unscaled."""
    check_operator_inputs(sol, A)
    e, x, p = sol.e, sol.x, sol.problem
    P = np.asarray(P, dtype=float)
    m, n = p.A.shape
    if P.shape != (m, n + 1):
        raise ValueError(f"P has shape {P.shape}, expected {(m, n + 1)}")
    Ap = P[:, :n]
    r = scaled_product(p.A, x, e, p.b)
    s = scaled_product(Ap, x, e, P[:, n])
    t = ((2.0 * float(r @ s) / float(r @ r)) * scaled_product(p.A.T, r, e)
         - scaled_product(p.A.T, s, e) - scaled_product(Ap.T, r, e))
    return to_data_units(numerics.SpdFactorization(sol.svd, sol.d).solve(t), 0)


# ---------------------------------------------------------------------------
# Power method
# ---------------------------------------------------------------------------

def power_method(sol: StlsSolution, A, cfg: PowerConfig) -> ConditionReport:
    """Power iteration on K K', in the eigenbasis V of M.

    There ``V'KK'V = diag(L) - (a b' + b a')`` is diagonal plus rank two
    (``exact._f1_terms``), so a sweep ``Ey = L y - a (b'y) - b (a'y)``
    costs O(n).  The recorded scalar v is what a sweep through the
    rectangular factor W (W W' = K K') records: ``||W'y|| = sqrt(y'Ey)``
    times the norm ``||W q||`` of the sweep before, q being its unit W'y,
    so v = ||W'W q|| converges to the squared condition number.  The first
    sweep records the Rayleigh quotient ``||W'y||**2`` of the unit start
    vector, a lower bound on it.  The start vector is
    ``numerics.unit_sphere_sample`` of ``cfg.seed``, as pce's is.  Neither
    renormalizing the work vector every sweep (its scale carried into v)
    nor entering the start vector as V'y changes the v sequence.

    The sweeps run in the core's units and stop once
    ``|v - v_prev| <= tol * v``, so the data's units change neither the
    sweeps nor where they stop.  ``kappa_trace`` gives sqrt(v) of each
    sweep in the data's units.  A run that exhausts ``max_iter`` returns
    its last estimate flagged ``converged: False`` rather than raising.
    ``converged`` means stationary, v's relative change fell to ``tol``, and
    is no error bound: where K's top two singular values nearly coincide
    the sweeps plateau low (3.5e-3 at sigma_1/sigma_2 = 1.0035).
    """
    check_operator_inputs(sol, A)
    n = len(sol.x)
    L, a, b = exact._f1_terms(sol)
    y = sol.svd.vt(numerics.unit_sphere_sample(n, np.random.default_rng(cfg.seed)))
    scale = None
    v = 0.0
    v_prev = None
    v_trace: list[float] = []  # in the core's units
    converged = False
    iterations = 0
    Ey, work = np.empty(n), np.empty(n)
    for iterations in range(1, cfg.max_iter + 1):
        # Ey = L y - a (b'y) - b (a'y), in place, in that order
        np.multiply(L, y, out=Ey)
        Ey -= np.multiply(a, float(b @ y), out=work)
        Ey -= np.multiply(b, float(a @ y), out=work)
        qnorm = math.sqrt(max(float(y @ Ey), 0.0))  # ||W'y||
        v = qnorm * (qnorm if scale is None else scale)
        v_trace.append(v)
        if qnorm == 0.0:
            converged = True  # y is annihilated; the operator norm along it is 0
            break
        if v_prev is not None and abs(v - v_prev) <= cfg.tol * v:
            converged = True
            break
        v_prev = v
        eynorm = math.sqrt(float(Ey @ Ey))  # what np.linalg.norm computes
        if eynorm == 0.0:
            converged = True
            break
        scale = eynorm / qnorm  # ||W (W'y / ||W'y||)||
        Ey /= eynorm
        y, Ey = Ey, y
    return ConditionReport(
        absolute=_kappa(sol, math.sqrt(v)),
        method="POWER",
        diagnostics={
            "iterations": iterations,
            "converged": converged,
            "kappa_trace": _kappa(sol, np.sqrt(v_trace)).tolist(),
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
        h = float(np.log(w).sum()) - log_target
        if h <= 0.0:
            break
        step = h / float((es / w).sum())
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


def _lanczos_bracket(op, cfg: PceConfig, v):
    """Bracket the spectral norm of a linear operator.

    Runs a Golub-Kahan bidiagonalization with full reorthogonalization from
    the unit start vector ``v``, uniform on the sphere.  After each step:

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
    ``op`` has ``shape``, ``matvec`` and ``rmatvec``, such as the
    n x (n+1) ``exact._f2_operator`` or a scipy linear operator, and ``v``
    lies in its column space.  Returns
    ``(alpha, beta, steps)`` with alpha <= beta, steps being the Lanczos
    depth reached.

    The bases are row-stacked ``np.empty`` arrays of full depth, whose rows
    cost nothing until written, and each new vector is reorthogonalized
    against them in two block passes.  The Ritz values are those of the
    Gram tridiagonal ``B'B`` of the upper bidiagonal B of the alphas and
    betas, whose diagonal and off-diagonal grow by one entry a step."""
    rows, cols = op.shape
    alpha = 0.0
    U = np.empty((cols, rows))
    V = np.empty((cols, cols))
    V[0] = v
    diag = np.zeros(cols)  # alpha_j**2 + beta_(j-1)**2
    off = np.zeros(cols)  # alpha_j beta_j
    b = 0.0
    log_prod = 0.0
    delta = _sphere_quantile(cols, cfg.eps)

    for k in range(1, cols + 1):
        j = k - 1
        u = np.asarray(op.matvec(V[j]), dtype=float).ravel()
        if j:
            u = u - b * U[j - 1]
            for _ in range(2):
                u -= (U[:j] @ u) @ U[:j]
        a = float(np.linalg.norm(u))
        diag[j] += a * a
        T = np.zeros((k, k))
        T.flat[:: k + 1] = diag[:k]
        T.flat[k :: k + 1] = off[:j]  # the subdiagonal, which eigvalsh reads
        mu = np.linalg.eigvalsh(T)
        alpha = float(np.sqrt(max(float(mu[-1]), 0.0)))
        if a <= 0.0:
            # W v_k lies in the span of the earlier u: the v span is
            # invariant, and the last beta, already in T, completes it
            return alpha, alpha, k
        U[j] = u / a

        w = np.asarray(op.rmatvec(U[j]), dtype=float).ravel() - a * V[j]
        for _ in range(2):
            w -= (V[:k] @ w) @ V[:k]
        b = float(np.linalg.norm(w))

        if b <= 0.0 or k == cols:
            # invariant subspace (almost surely contains the dominant
            # direction) or the full space: the bracket collapses
            return alpha, alpha, k

        log_prod += np.log(a) + np.log(b)
        beta_up = max(_certified_upper(mu, log_prod - np.log(delta)), alpha)
        if beta_up <= (1.0 + cfg.theta) * alpha:
            return alpha, beta_up, k

        V[k] = w / b
        diag[k] = b * b
        off[j] = a * b

    raise AssertionError("unreachable: the loop returns at exhaustion")


def pce(sol: StlsSolution, A, cfg: PceConfig, solver=None) -> ConditionReport:
    """Probabilistic condition estimate: midpoint of the spectral-norm
    bracket of the rectangular factor, which is never materialized.
    ``solver="cg"`` solves with M by conjugate gradients instead of the
    eigendecomposition of M.  The diagnostics give the bracket and the
    Lanczos depth it took as ``iterations``.

    The start vector, uniform on the sphere in R^(n+1) from ``cfg.seed``,
    enters its first n coordinates as V'v, as power's start vector and
    sce's probes do (see ``exact._f2_operator``), so the bracket does not
    depend on the SVD's choice of basis."""
    check_operator_inputs(sol, A)
    if solver not in (None, "cg"):
        raise ValueError(f"unknown solver {solver!r}; expected None or 'cg'")
    msolve = None
    if solver == "cg":
        cg = _cg_solver(sol)

        def msolve(y):
            return sol.svd.vt(cg(sol.svd.v(y)))

    op = _f2_operator(sol, msolve)
    v = numerics.unit_sphere_sample(op.shape[1], np.random.default_rng(cfg.seed))
    v[:-1] = sol.svd.vt(v[:-1])  # into the operator's basis
    alpha, beta, steps = _lanczos_bracket(op, cfg, v)
    alpha, beta = _kappa(sol, alpha), _kappa(sol, beta)
    return ConditionReport(
        absolute=0.5 * (alpha + beta),
        method="PCE",
        diagnostics={"alpha": alpha, "beta": beta, "iterations": steps},
    )


# ---------------------------------------------------------------------------
# Small-sample estimation
# ---------------------------------------------------------------------------

def wallis_factor(p: int) -> float:
    """Wallis-factor approximation sqrt(2 / (pi * (p - 1/2)))."""
    return float(np.sqrt(2.0 / (np.pi * (p - 0.5))))


def sce(sol: StlsSolution, A, cfg: SceConfig) -> ConditionReport:
    """Small-sample estimate from k orthonormal probes, the Q of a QR of an
    n x k Gaussian matrix.

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
    Z = np.linalg.qr(rng.standard_normal((n, cfg.k)))[0]
    # the operator works in the eigenbasis V of M: the probes enter as V'Z
    probes = _f2_operator(sol).rmatmat(sol.svd.vt(Z))
    estimate = (wallis_factor(cfg.k) / wallis_factor(n)) * float(np.linalg.norm(probes))
    return ConditionReport(
        absolute=_kappa(sol, estimate), method="SCE", diagnostics={"k": cfg.k}
    )


# ---------------------------------------------------------------------------
# The six evaluations of the condition number, by name: each maps
# (sol, A, configs) to a ConditionReport, where configs holds the
# estimator configs under the keys of CONFIGS; the three exact forms
# ignore it.  The CLI's flags and --config schema and the bench's seed
# slots (1, 2, 3 in this order) are read off CONFIGS.
# ---------------------------------------------------------------------------

CONFIGS = {"power": PowerConfig, "pce": PceConfig, "sce": SceConfig}

METHODS = {
    "kron": lambda sol, A, configs: exact.kappa_kron(sol, A),
    "f1": lambda sol, A, configs: exact.kappa_f1(sol, A),
    "f2": lambda sol, A, configs: exact.kappa_f2(sol, A),
    "power": lambda sol, A, configs: power_method(sol, A, configs["power"]),
    "pce": lambda sol, A, configs: pce(sol, A, configs["pce"]),
    "sce": lambda sol, A, configs: sce(sol, A, configs["sce"]),
}
