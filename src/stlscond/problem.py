"""Problem and solution containers, uniqueness checking, and the solver.

The problem is: given a tall data matrix A, right-hand side b and a positive
scale on b, find the minimal Frobenius-norm correction of the augmented data
that makes the scaled system consistent.  ``solve_stls`` makes one thin QR
of [A, b], the only pass over the m x n data, which has the same solution
(orthogonal invariance).  ``_compress`` scales its triangular factor by the
power of two 2**-e that brings the largest entry of [R11, lam*R12] into
[1/2, 1), which is exact: this core, with the blocks R11 (n x n), R12 and
the scalar R22, is where the data's units are decided, once.  One SVD
``R11 = U diag(s) V'``, whose U and V stay in LAPACK's factored form
(``numerics.FactoredSvd``), and ``c = U'R12`` reduce the rest to a secular
equation on (n+1)-vectors, solved by LAPACK's dlasd4, which yields x, the
gap and ``M = A'A - sigma**2 I`` in the eigenbasis V.  Everything after
the solve runs on these unit-scale quantities; a value returns to the
data's units, as a multiple of 2**e, only as it leaves.
``solve_stls_svd`` reads x off the trailing right singular vector of the
uncompressed [A, lam*b] and serves as its oracle.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import numerics
from .errors import (
    ConvergenceError,
    DegenerateSingularVectorError,
    MemoryBudgetError,
    NongenericProblemError,
    NonFiniteError,
    ProblemFormatError,
)

# Below this relative gap the solution exists but is numerically fragile.
ILL_POSED_GAP = 1e-8

# Largest JSON file, in bytes, that ``_read_bytes`` reads and
# ``problem_to_json`` writes.  A generated problem file's load peaks at
# 3.1-3.7 times its size for n >= 100, 5.2 at n = 10 and 15.8 at n = 1, where
# each one-entry row costs more in pydantic_core's parsed tree than in the
# file; so this keeps such a load within ``exact.KRON_BUDGET_BYTES``' 1 GiB.
LOAD_BUDGET_BYTES = 1 << 26
# Entries of A that ``problem_to_json`` spells per block: about 1.3 MB of
# JSON, so a refused file is built to at most one block over the budget.
_WRITE_BLOCK_ENTRIES = 1 << 16


def to_data_units(value, e, out=None):
    """``value * 2**e``, the core's value in the data's units, into the
    array ``out`` if given (``value`` itself, to spare a copy): exact,
    unless it leaves the double range, which raises NonFiniteError (a
    result that underflows rounds toward zero)."""
    with np.errstate(over="ignore"):
        out = np.ldexp(value, e, out=out)
    if not np.all(np.isfinite(out)):
        raise NonFiniteError(f"a value of 2**{e} times the core's is beyond the double range")
    return out if np.ndim(out) else float(out)


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

    Each fact is stored once, and nothing of the data's size m: every
    condition method reads the (n+1) x n ``core``, so the QR of the solve
    is its last pass over the data.  Every field but ``x``, ``problem`` and
    ``e`` is in the core's units, 2**-e times the data's; the properties
    ``sigma_np1``, ``genericity_gap``, ``sigma_hat_n``, ``s_hat`` and ``r``
    are in the data's, derived on demand.

    Attributes
    ----------
    x : (n,) ndarray
        Solution vector, which has no units.
    problem : StlsProblem
        The problem that was solved, by reference (not a copy).  Only the
        packed m x (n+1) products read its data (``scaled_product``).
    e : int
        The exponent of the core's units: a length in the core is 2**-e
        times the same length in the data.
    sigma : float
        Smallest singular value of the core's [A_c, lam*b_c].
    d : (n,) ndarray
        ``s**2 - sigma**2``, the eigenvalues of ``A_c'A_c - sigma**2 I`` in
        the basis V of ``svd``.
    gap : float
        s[-1] - sigma (> 0 for a valid solution).
    core : StlsProblem
        The (n+1) x n problem 2**-e Q'[A, b] = [A_c, b_c] with the same
        solution (residual A_c x - b_c = 2**-e Q'r), read by everything after
        the solve.  A_c is upper triangular, so its last row is zero.
    svd : numerics.FactoredSvd
        ``A_c[:n] = U diag(s) V'``, the SVD of the core's A without that zero
        row, with U and V kept in LAPACK's factored form: ``svd.ut``,
        ``svd.vt`` and ``svd.v`` apply U', V' and V in O(n^2) per vector; U
        and V themselves are never formed.
    c : (n,) ndarray
        ``U' b_c[:n]``, the core's b above its last entry in the basis U.
    """

    x: np.ndarray
    problem: StlsProblem
    e: int
    sigma: float
    d: np.ndarray
    gap: float
    core: StlsProblem
    svd: numerics.FactoredSvd
    c: np.ndarray

    @property
    def sigma_np1(self) -> float:
        """Smallest singular value of the augmented matrix [A, lam*b]."""
        return to_data_units(self.sigma, self.e)

    @property
    def genericity_gap(self) -> float:
        """sigma_hat_n - sigma_np1 (> 0 for a valid solution)."""
        return to_data_units(self.gap, self.e)

    @property
    def s_hat(self) -> np.ndarray:
        """Singular values of A, non-increasing."""
        return to_data_units(self.svd.s, self.e)

    @property
    def sigma_hat_n(self) -> float:
        """Smallest singular value of A."""
        return to_data_units(self.svd.s[-1], self.e)

    @property
    def ill_posed(self) -> bool:
        """True when the gap is positive but below ``ILL_POSED_GAP`` times
        the largest singular value of A; the solution is then numerically
        fragile.  A ratio, so read in the core's units."""
        return bool(self.gap < ILL_POSED_GAP * float(self.svd.s[0]))

    @property
    def r(self) -> np.ndarray:
        """The m-vector residual ``A @ x - b`` of the solved problem, formed
        on each access through ``scaled_product``, so that one beyond the
        double range raises NonFiniteError; the condition numbers read the
        core's residual instead."""
        p = self.problem
        return to_data_units(scaled_product(p.A, self.x, self.e, p.b), self.e)


def scaled_product(X, v, e: int, b=0.0) -> np.ndarray:
    """``2**-e (X v - b)`` for data X, b in units 2**e, half of 2**-e
    applied before the product and half after, so that neither leaves the
    double range near its ends; exact unless an entry underflows."""
    a = e // 2
    return np.ldexp(X @ np.ldexp(v, -a) - np.ldexp(b, -a), a - e)


def _compress(p: StlsProblem) -> tuple[StlsProblem, int]:
    """The (n+1) x n core of the R factor of [A, b], and its exponent e.

    The core has the same x and K K' as the data, which depend on it only
    through A'A, A'b and ||b||.  It is R times 2**-e, exact, with e the
    ``frexp`` exponent of the largest entry of [R11, lam*R12]: that entry
    lies in [1/2, 1), and the solve and every condition method work in
    these units, whatever the data's."""
    R = numerics.augmented_qr_r(p.A, p.b)
    n = p.n
    top = max(float(np.max(np.abs(R[:, :n]))), p.lam * float(np.max(np.abs(R[:, n]))))
    if not np.isfinite(top):
        raise NonFiniteError("the R factor of [A, b], or lam times its last column, is "
                             "beyond the double range")
    e = math.frexp(top)[1]
    np.ldexp(R, -e, out=R)
    return StlsProblem(R[:, :n], R[:, n], p.lam), e


def check_genericity(p: StlsProblem):
    """Return (sigma_hat_n, sigma_np1, gap) without raising on a bad gap.

    ``gap = sigma_hat_n - sigma_np1`` must be positive for the problem to
    have a unique solution; a non-positive gap is reported, not thrown.
    """
    core, e = _compress(p)
    sigma_hat_n = float(numerics.singular_values(core.A)[-1])
    sigma_np1 = float(numerics.singular_values(core.augmented())[-1])
    return tuple(to_data_units(v, e) for v in (sigma_hat_n, sigma_np1, sigma_hat_n - sigma_np1))


def _secular_root(s, z, z0, tol):
    """The smallest singular value sigma of the matrix whose Gram matrix is
    ``diag(s**2, 0) + (z, z0)(z, z0)'``, with z = lam c and z0 = lam R22 of
    the core: the root in (0, s[-1]) of the increasing secular function

        F(sigma) = 1 - z0**2 / sigma**2 + sum(z**2 / (s**2 - sigma**2)),

    found by LAPACK's dlasd4.  Returns ``(sigma, d, gap)`` with
    ``d = s**2 - sigma**2`` and ``gap = s[-1] - sigma``, which dlasd4 forms
    from its distances to the poles, so both keep their relative accuracy
    however close the root is to a pole.  The core's units keep the largest
    of s, z and z0 in [1/2, 1), so their squares neither overflow nor
    underflow.  Raises NongenericProblemError when the gap is not above
    ``tol``, ConvergenceError when dlasd4 fails, and NonFiniteError when
    ``s[-1]**2`` underflows, which happens only for data whose A and lam b
    differ in scale by more than about 1e154.

    dlasd4 takes the poles (0, s[-1], ..., s[0]) strictly increasing and of
    nonzero weight.  Equal s are one pole whose squared weight is the sum
    of theirs, and a pole of zero weight has no term in F: it is left out,
    and its d is formed directly.
    """
    sn = float(s[-1])
    if sn > tol and sn * sn < np.finfo(float).tiny:
        raise NonFiniteError("the smallest singular value of A is below 1e-154 of the "
                             "data's scale, so its square underflows")
    if not sn > tol:
        raise NongenericProblemError(f"uniqueness gap is at most the tolerance {tol:.3e}")
    if z0 == 0.0:
        # b_c lies in the range of A_c: the zero-weight pole 0 is the root
        return 0.0, s * s, sn
    s_up = s[::-1]
    first = np.flatnonzero(np.r_[True, s_up[1:] > s_up[:-1]])  # of each run of equal s
    poles, weights = s_up[first], np.hypot.reduceat(np.abs(z[::-1]), first)
    live = weights > 0.0
    w = np.r_[abs(z0), weights[live]]
    rho = float(np.linalg.norm(w))
    delta, sigma, work, info = numerics.dlasd4(np.r_[0.0, poles[live]], w / rho, rho * rho)
    if info:
        raise ConvergenceError(f"dlasd4 failed on the secular equation for sigma_np1 "
                               f"(info {info})")
    d_poles = (poles - sigma) * (poles + sigma)
    d_poles[live] = delta[1:] * work[1:]
    gap = float(delta[1]) if live[0] else sn - sigma
    if not gap > tol:
        raise NongenericProblemError(f"uniqueness gap {gap:.3e} is at most the tolerance "
                                     f"{tol:.3e}")
    return sigma, np.repeat(d_poles, np.diff(np.r_[first, len(s_up)]))[::-1], gap


def solve_stls(p: StlsProblem) -> StlsSolution:
    """Solve on the core of ``_compress``.

    With ``R11 = U diag(s) V'`` (one SVD, whose U and V are applied in
    factored form and never formed) and ``c = U'R12``, the smallest
    singular value of the core's [A_c, lam*b_c] is the root of the secular
    equation of ``_secular_root``.  It gives
    ``M = A_c'A_c - sigma**2 I = V diag(d) V'`` and the solution of
    ``M x = A_c'b_c`` in that eigenbasis, ``x = V (s c / d)``.

    Raises
    ------
    NongenericProblemError
        If sigma_hat_n - sigma_np1 <= 1e-12 * sigma_hat_1.
    DegenerateSingularVectorError
        If the trailing component 1/sqrt(1 + lam**2 ||x||**2) of the
        decisive singular vector is below 1e-14.
    """
    core, e = _compress(p)
    n = p.n
    svd = numerics.factored_svd(core.A[:n])
    s = svd.s
    c = svd.ut(core.b[:n])
    sigma, d, gap = _secular_root(s, p.lam * c, p.lam * float(core.b[n]), 1e-12 * float(s[0]))
    x = svd.v(s * c / d)
    trailing = 1.0 / math.hypot(1.0, p.lam * float(np.linalg.norm(x)))
    if trailing < 1e-14:
        raise DegenerateSingularVectorError(
            f"trailing component of the right singular vector is {trailing:.3e}"
        )
    return StlsSolution(x=x, problem=p, e=e, sigma=sigma, d=d, gap=gap, core=core, svd=svd,
                        c=c)


def solve_stls_svd(p: StlsProblem) -> np.ndarray:
    """:func:`solve_stls`'s x from the uncompressed [A, lam*b], its oracle:
    x = -v[:n] / (lam v[n]) from the trailing right singular vector v.
    Raises as :func:`solve_stls` does, checking the gap first."""
    s_hat = numerics.singular_values(p.A)
    _, s, Vt = numerics.svd(p.augmented())
    gap = float(s_hat[-1]) - float(s[-1])
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
    return -v[: p.n] / (p.lam * v[p.n])


# ---------------------------------------------------------------------------
# Problem file format (shared with the CLI): self-describing JSON with fields
# m, n, lambda, A (row-major array of arrays), b (array), written and read by
# pydantic_core, which only the calls that touch a file import.
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


def problem_to_json(p: StlsProblem, provenance: dict | None = None) -> bytes:
    """The problem file's bytes: ``problem_to_dict``'s keys in order, no
    spaces, each float in its shortest round-trip spelling, and a newline.
    A is spelled in blocks of rows, and MemoryBudgetError is raised as soon
    as the bytes so far pass ``LOAD_BUDGET_BYTES``, which ``load_problem``
    would refuse, so an oversized file is never built whole."""
    from pydantic_core import to_json

    head = to_json({"m": p.m, "n": p.n, "lambda": p.lam})[:-1] + b',"A":['
    tail = b'],"b":' + to_json(p.b.tolist())
    if provenance is not None:
        tail += b',"provenance":' + to_json(provenance)
    tail += b"}\n"
    size = len(head) + len(tail) - 1  # one comma fewer than blocks
    blocks = []
    step = max(1, _WRITE_BLOCK_ENTRIES // p.n)
    for i in range(0, p.m, step):
        blocks.append(to_json(p.A[i:i + step].tolist())[1:-1])  # rows, no brackets
        size += len(blocks[-1]) + 1
        if size > LOAD_BUDGET_BYTES:
            raise MemoryBudgetError(f"the problem file would be over the "
                                    f"{LOAD_BUDGET_BYTES >> 20} MiB load budget")
    return b"".join((head, b",".join(blocks), tail))


@cache
def _problem_schema():
    """The problem file format, stated once: integers m and n, finite numbers
    lambda, A and b (an integer is a number, true and "1.5" are not), each
    row of A and b read into a float64 array, and other keys ignored."""
    from pydantic_core import SchemaValidator, core_schema as cs

    number = cs.float_schema(strict=True, allow_inf_nan=False)
    # fail_fast: a list stops at its first bad entry, so a file of
    # millions of strings makes one error, not one per entry
    array = cs.no_info_after_validator_function(
        np.array, cs.list_schema(number, fail_fast=True))
    size = cs.typed_dict_field(cs.int_schema(strict=True))
    return SchemaValidator(cs.typed_dict_schema({
        "m": size, "n": size, "lambda": cs.typed_dict_field(number),
        "A": cs.typed_dict_field(cs.list_schema(array, fail_fast=True)), "b": cs.typed_dict_field(array),
    }, extra_behavior="ignore"))


def _validate(validate, source, error):
    """``validate(source)`` for a pydantic_core schema's ``validate``; a
    fault raises ``error(message)``, one line naming the first faulty
    field by its path, as ``A.3.1``."""
    from pydantic_core import ValidationError

    try:
        return validate(source)
    except ValidationError as exc:
        first = exc.errors(include_url=False, include_input=False)[0]
        where = ".".join(map(str, first["loc"]))
        raise error(f"{where}: {first['msg']}" if where else first["msg"]) from exc


def _validated(validate, source) -> StlsProblem:
    """The problem ``validate``, of ``_problem_schema()``, reads from
    ``source``; a fault raises a ProblemFormatError."""
    doc = _validate(validate, source, ProblemFormatError)
    m, n, rows, b = doc["m"], doc["n"], doc["A"], doc["b"]
    if len(rows) != m or any(len(row) != n for row in rows):
        raise ProblemFormatError(f"A must be {m} rows of {n} entries")
    if len(b) != m:
        raise ProblemFormatError(f"b must be a list of {m} entries")
    try:
        return StlsProblem(np.vstack(rows), b, doc["lambda"])
    except ValueError as exc:
        raise ProblemFormatError(str(exc)) from exc


def problem_from_dict(doc: dict) -> StlsProblem:
    return _validated(_problem_schema().validate_python, doc)


def save_problem(p: StlsProblem, path, provenance: dict | None = None) -> None:
    """Write ``problem_to_json``'s bytes, made before the path is opened."""
    data = problem_to_json(p, provenance)
    with open(path, "wb") as fh:
        fh.write(data)


def _read_bytes(path) -> bytes:
    """The file's bytes; one over ``LOAD_BUDGET_BYTES`` raises MemoryBudgetError."""
    size = os.stat(path).st_size
    if size > LOAD_BUDGET_BYTES:
        raise MemoryBudgetError(f"{path} has {size >> 20} MiB, over the "
                                f"{LOAD_BUDGET_BYTES >> 20} MiB load budget")
    with open(path, "rb") as fh:
        return fh.read()


def load_problem(path) -> StlsProblem:
    return _validated(_problem_schema().validate_json, _read_bytes(path))
