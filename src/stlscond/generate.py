"""Synthetic problems with a known spectrum and a controlled uniqueness gap.

The augmented matrix is built as ``Y @ [D; 0] @ Z.T`` where Y and Z are
Householder reflectors from random unit vectors and D is the fixed diagonal
``(n, n-1, ..., 2, 1, 1-e_p)``.  The reflectors are orthogonal, so the
singular values of the result are exactly D's diagonal: the last two differ
by e_p, which bounds the uniqueness gap from above by interlacing.  Small
e_p therefore dials the problem toward non-uniqueness.

Randomness comes from ``numpy.random.default_rng`` (PCG64), so a spec with
the same seed reproduces the same problem bit for bit on one platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import MemoryBudgetError
from .exact import KRON_BUDGET_BYTES
from .problem import StlsProblem


@dataclass(frozen=True)
class GeneratorSpec:
    """Size, scale, spectral-gap parameter and seed for one random problem;
    an m x (n+1) matrix over ``KRON_BUDGET_BYTES`` raises MemoryBudgetError."""

    m: int
    n: int
    lam: float
    e_p: float
    seed: int

    def __post_init__(self):
        if not (self.m > self.n >= 1):
            raise ValueError(f"need m > n >= 1, got m={self.m}, n={self.n}")
        if not (0.0 < self.e_p < 1.0):
            raise ValueError(f"e_p must lie in (0, 1), got {self.e_p}")
        if not (np.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError(f"scale must be positive and finite, got {self.lam}")
        if 8 * self.m * (self.n + 1) > KRON_BUDGET_BYTES:
            raise MemoryBudgetError(f"a {self.m}x{self.n} problem is over the "
                                    f"{KRON_BUDGET_BYTES >> 20} MiB budget")

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "lambda": self.lam,
            "e_p": self.e_p,
            "seed": self.seed,
        }


@dataclass(frozen=True, eq=False)
class GeneratedProblem:
    """A generated problem together with its exact construction data."""

    problem: StlsProblem
    known_singular_values: np.ndarray  # (n+1,) diagonal of D
    left_reflector: np.ndarray   # unit vector y defining Y = I - 2 y y'
    right_reflector: np.ndarray  # unit vector z defining Z = I - 2 z z'

    def provenance(self, spec: GeneratorSpec) -> dict:
        return {
            "spec": spec.to_dict(),
            "known_singular_values": [float(v) for v in self.known_singular_values],
        }


def generate(spec: GeneratorSpec) -> GeneratedProblem:
    """Build the random problem described by ``spec``.

    The data matrix is the first n columns of ``Y @ [D; 0] @ Z.T`` and the
    right-hand side is the last column divided by the scale.
    """
    m, n = spec.m, spec.n
    rng = np.random.default_rng(spec.seed)
    y = numerics.unit_sphere_sample(m, rng)
    z = numerics.unit_sphere_sample(n + 1, rng)
    d = np.concatenate([np.arange(n, 0, -1, dtype=float), [1.0 - spec.e_p]])
    C = np.zeros((m, n + 1))
    C[: n + 1, :] = np.diag(d)
    # apply the reflectors without forming them: Y C = C - 2 y (y'C)
    C -= 2.0 * np.outer(y, y @ C)
    C -= 2.0 * np.outer(C @ z, z)
    A = np.ascontiguousarray(C[:, :n])
    with np.errstate(over="ignore"):
        b = C[:, n] / spec.lam  # not finite for a tiny lam, which StlsProblem refuses
    return GeneratedProblem(
        problem=StlsProblem(A, b, spec.lam),
        known_singular_values=d,
        left_reflector=y,
        right_reflector=z,
    )
