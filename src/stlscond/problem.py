"""Problem and solution containers, uniqueness checking, and the solver.

The problem is: given a tall data matrix A, right-hand side b and a positive
scale on b, find the minimal Frobenius-norm correction of the augmented data
that makes the scaled system consistent.  ``solve_stls`` makes one thin QR
of [A, b], the only pass over the m x n data, and reads the solution off the
trailing right singular vector of the (n+1) x n problem of its triangular
factor, which has the same solution (orthogonal invariance).
``solve_stls_svd`` applies the same formula to the uncompressed data and
serves as its oracle.
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
    core : StlsProblem
        The (n+1) x n problem Q'[A, b] = [A_c, b_c] with the same solution
        (residual A_c x - b_c = Q'r), read by everything after the solve.
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
    core: StlsProblem
    ill_posed: bool = False


def _compress(p: StlsProblem) -> StlsProblem:
    """The (n+1) x n problem of the R factor of [A, b]: the same x and K K',
    which depend on the data only through A'A, A'b and ||b||."""
    R = np.linalg.qr(np.column_stack([p.A, p.b]), mode="r")
    return StlsProblem(R[:, : p.n], R[:, p.n], p.lam)


def _singular_vector_solution(p: StlsProblem, s_hat: np.ndarray):
    """x = -v[:n] / (lam v[n]), sigma_np1 and the gap, from the trailing
    right singular vector v of [A, lam*b] and the singular values ``s_hat``
    of A; raises as :func:`solve_stls` does, checking the gap first."""
    _, s, Vt = numerics.svd(p.augmented())
    sigma_np1 = float(s[-1])
    gap = float(s_hat[-1]) - sigma_np1
    tol = 1e-12 * float(s_hat[0])
    if gap <= tol:
        raise NongenericProblemError(
            f"uniqueness gap {gap:.3e} <= tolerance {tol:.3e}"
        )
    v = Vt[-1]
    if abs(v[p.n]) < 1e-14:
        raise DegenerateSingularVectorError(
            f"trailing component of the right singular vector is {v[p.n]:.3e}"
        )
    return -v[: p.n] / (p.lam * v[p.n]), sigma_np1, gap


def check_genericity(p: StlsProblem):
    """Return (sigma_hat_n, sigma_np1, gap) without raising on a bad gap.

    ``gap = sigma_hat_n - sigma_np1`` must be positive for the problem to
    have a unique solution; a non-positive gap is reported, not thrown.
    """
    core = _compress(p)
    sigma_hat_n = float(numerics.singular_values(core.A)[-1])
    sigma_np1 = float(numerics.singular_values(core.augmented())[-1])
    return sigma_hat_n, sigma_np1, sigma_hat_n - sigma_np1


def solve_stls(p: StlsProblem) -> StlsSolution:
    """Solve on the compressed problem of ``_compress``.

    One SVD ``U diag(s_hat) V'`` of the core's A gives
    ``M = A'A - sigma_np1**2 I = V diag((s_hat - sigma)(s_hat + sigma)) V'``,
    whose smallest eigenvalue is positive exactly when the gap is.

    Raises
    ------
    NongenericProblemError
        If sigma_hat_n - sigma_np1 <= 1e-12 * sigma_hat_1.
    DegenerateSingularVectorError
        If the decisive singular vector has a (numerically) zero last
        component.
    """
    core = _compress(p)
    _, s_hat, Vt = numerics.svd(core.A)
    x, sigma_np1, gap = _singular_vector_solution(core, s_hat)
    return StlsSolution(
        x=x,
        r=p.A @ x - p.b,
        sigma_np1=sigma_np1,
        sigma_hat_n=float(s_hat[-1]),
        M=numerics.SpdFactorization(Vt.T, (s_hat - sigma_np1) * (s_hat + sigma_np1)),
        genericity_gap=gap,
        core=core,
        ill_posed=gap < ILL_POSED_GAP * float(s_hat[0]),
    )


def solve_stls_svd(p: StlsProblem) -> np.ndarray:
    """:func:`solve_stls`'s x from the uncompressed [A, lam*b], its oracle."""
    return _singular_vector_solution(p, numerics.singular_values(p.A))[0]


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
        "A": p.A.tolist(),
        "b": p.b.tolist(),
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
    # one json.dumps runs the C encoder; json.dump would stream through the
    # pure-Python one
    text = json.dumps(problem_to_dict(p, provenance), sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def load_problem(path) -> StlsProblem:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ProblemFormatError(f"not valid JSON: {exc}") from exc
    return problem_from_dict(doc)
