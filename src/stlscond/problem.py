"""Problem and solution containers, uniqueness checking, and the solver.

The problem is: given a tall data matrix A, right-hand side b and a positive
scale on b, find the minimal Frobenius-norm correction of the augmented data
that makes the scaled system consistent.  Two independent routes compute the
solution: the normal-equations route through the shifted Gram matrix
``M = A'A - sigma^2 I`` and the SVD route through the trailing right
singular vector of the augmented matrix.  They agree for every problem that
satisfies the uniqueness condition, which makes each the cross-check of the
other.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import (
    DegenerateSingularVectorError,
    NongenericProblemError,
    ProblemFormatError,
)

# Below this relative gap the solution exists but is numerically fragile.
ILL_POSED_GAP = 1e-8


@dataclass(frozen=True, eq=False)
class StlsProblem:
    """Overdetermined data (A, b) with a positive scale on b.

    Attributes
    ----------
    A : (m, n) ndarray, m > n >= 1
    b : (m,) ndarray
    lam : float
        Positive scale applied to b in the augmented matrix [A, lam*b].
    """

    A: np.ndarray
    b: np.ndarray
    lam: float

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float).ravel()
        lam = float(self.lam)
        if A.ndim != 2:
            raise ValueError(f"A must be 2-d, got shape {A.shape}")
        m, n = A.shape
        if not (m > n >= 1):
            raise ValueError(f"need m > n >= 1, got m={m}, n={n}")
        if b.shape != (m,):
            raise ValueError(f"b has length {b.shape[0]}, expected {m}")
        if not (np.isfinite(A).all() and np.isfinite(b).all()):
            raise ValueError("A and b must have finite entries")
        if not (np.isfinite(lam) and lam > 0.0):
            raise ValueError(f"scale must be positive and finite, got {lam}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "lam", lam)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    def augmented(self) -> np.ndarray:
        """The m x (n+1) matrix [A, lam*b]."""
        return np.hstack([self.A, (self.lam * self.b)[:, None]])


@dataclass(frozen=True, eq=False)
class StlsSolution:
    """Solver output plus the quantities every downstream formula reuses.

    Attributes
    ----------
    x : (n,) ndarray
        Solution vector.
    r : (m,) ndarray
        Residual A @ x - b.
    sigma_np1 : float
        Smallest singular value of the augmented matrix [A, lam*b].
    sigma_hat_n : float
        Smallest singular value of A.
    M : numerics.SpdFactorization
        Factorization of A'A - sigma_np1**2 * I.
    genericity_gap : float
        sigma_hat_n - sigma_np1 (> 0 for a valid solution).
    ill_posed : bool
        True when the gap is positive but tiny relative to the largest
        singular value of A; the solution is then numerically fragile.
    """

    x: np.ndarray
    r: np.ndarray
    sigma_np1: float
    sigma_hat_n: float
    M: numerics.SpdFactorization
    genericity_gap: float
    ill_posed: bool = False


def _uniqueness_gap(p: StlsProblem, sigma_np1: float, gap_tol=None, strict=True):
    """The m-sized pass over A shared by the solvers and the genericity check.

    Returns (sigma_hat_1, sigma_hat_n, gap) with ``gap = sigma_hat_n -
    sigma_np1``.  When ``strict``, raises NongenericProblemError if the gap
    is at most ``gap_tol`` (default 1e-12 * sigma_hat_1).
    """
    s_hat = numerics.singular_values(p.A)
    sigma_hat_1 = float(s_hat[0])
    sigma_hat_n = float(s_hat[-1])
    gap = sigma_hat_n - sigma_np1
    if gap_tol is None:
        gap_tol = 1e-12 * sigma_hat_1
    if strict and gap <= gap_tol:
        raise NongenericProblemError(
            f"uniqueness gap {gap:.3e} <= tolerance {gap_tol:.3e}"
        )
    return sigma_hat_1, sigma_hat_n, gap


def check_genericity(p: StlsProblem):
    """Return (sigma_hat_n, sigma_np1, gap) without raising on a bad gap.

    ``gap = sigma_hat_n - sigma_np1`` must be positive for the problem to
    have a unique solution; a non-positive gap is reported, not thrown.
    """
    sigma_np1 = float(numerics.singular_values(p.augmented())[-1])
    _, sigma_hat_n, gap = _uniqueness_gap(p, sigma_np1, strict=False)
    return sigma_hat_n, sigma_np1, gap


def solve_stls(p: StlsProblem, gap_tol: float | None = None) -> StlsSolution:
    """Solve via the shifted normal equations.

    Computes sigma_np1 from the augmented matrix, forms
    ``M = A'A - sigma_np1**2 * I`` and solves ``M x = A'b`` by Cholesky.

    Raises
    ------
    NongenericProblemError
        If sigma_hat_n - sigma_np1 <= gap_tol (default 1e-12 * sigma_hat_1).
    NotPositiveDefiniteError
        Propagated from the factorization; equivalent to the above up to
        roundoff, kept separate as a diagnostic.
    """
    sigma_np1 = float(numerics.singular_values(p.augmented())[-1])
    sigma_hat_1, sigma_hat_n, gap = _uniqueness_gap(p, sigma_np1, gap_tol)
    A = p.A
    M = A.T @ A - (sigma_np1 ** 2) * np.eye(p.n)
    fact = numerics.SpdFactorization.from_matrix(M)
    x = fact.solve(A.T @ p.b)
    r = A @ x - p.b
    ill_posed = sigma_hat_1 > 0.0 and gap / sigma_hat_1 < ILL_POSED_GAP
    return StlsSolution(
        x=x,
        r=r,
        sigma_np1=sigma_np1,
        sigma_hat_n=sigma_hat_n,
        M=fact,
        genericity_gap=gap,
        ill_posed=ill_posed,
    )


def solve_stls_svd(p: StlsProblem, gap_tol: float | None = None) -> np.ndarray:
    """Solve via the trailing right singular vector of [A, lam*b].

    The unscaled problem on [A, lam*b] has solution -v[:n] / v[n] with v the
    right singular vector for the smallest singular value; dividing by the
    scale gives the solution of the scaled problem.

    Raises
    ------
    NongenericProblemError
        As in :func:`solve_stls`.
    DegenerateSingularVectorError
        If the last component of v is (numerically) zero.
    """
    _, s, Vt = numerics.svd(p.augmented())
    _uniqueness_gap(p, float(s[-1]), gap_tol)
    v = Vt[-1]
    if abs(v[p.n]) < 1e-14:
        raise DegenerateSingularVectorError(
            f"trailing component of the right singular vector is {v[p.n]:.3e}"
        )
    return -v[: p.n] / (p.lam * v[p.n])


# ---------------------------------------------------------------------------
# Problem file format (shared with the CLI): self-describing JSON with fields
# m, n, lambda, A (row-major array of arrays), b (array).  Readers reject
# dimension mismatches.
# ---------------------------------------------------------------------------

def problem_to_dict(p: StlsProblem, provenance: dict | None = None) -> dict:
    doc = {
        "m": p.m,
        "n": p.n,
        "lambda": p.lam,
        "A": [[float(v) for v in row] for row in p.A],
        "b": [float(v) for v in p.b],
    }
    if provenance is not None:
        doc["provenance"] = provenance
    return doc


def problem_from_dict(doc: dict) -> StlsProblem:
    try:
        m = int(doc["m"])
        n = int(doc["n"])
        lam = float(doc["lambda"])
        A_rows = doc["A"]
        b = doc["b"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ProblemFormatError(f"missing or malformed field: {exc}") from exc
    if len(A_rows) != m or any(len(row) != n for row in A_rows):
        raise ProblemFormatError(f"A must be {m} rows of {n} entries")
    if len(b) != m:
        raise ProblemFormatError(f"b must have {m} entries, got {len(b)}")
    try:
        return StlsProblem(np.array(A_rows, dtype=float), np.array(b, dtype=float), lam)
    except ValueError as exc:
        raise ProblemFormatError(str(exc)) from exc


def save_problem(p: StlsProblem, path, provenance: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(problem_to_dict(p, provenance), fh, sort_keys=True)
        fh.write("\n")


def load_problem(path) -> StlsProblem:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ProblemFormatError(f"not valid JSON: {exc}") from exc
    return problem_from_dict(doc)
