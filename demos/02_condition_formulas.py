#!/usr/bin/env python3
"""Three equivalent evaluations of the condition number, validated two ways.

The absolute condition number is the spectral norm of the operator K that
maps stacked data perturbations [vec(dA); db] to the first-order solution
change.  This script evaluates it by

  * materializing K            (n x (n+1)^2 on the compressed problem),
  * an n x n quadratic form    (equal to K K' after sandwiching),
  * an n x (3n+2) factor       (no Gram products; the numerically
                                preferred route),

then validates the value against finite differences: the worst perturbation
direction must amplify exactly by the condition number, and random
directions must never exceed it.  The unit-scale and vanishing-scale
special cases close the loop.
"""

import numpy as np

from stlscond import (
    GeneratorSpec,
    StlsProblem,
    build_K_dense,
    generate,
    kappa_f1,
    kappa_f2,
    kappa_kron,
    kappa_ols,
    kappa_tls_bg,
    relative_from_absolute,
    solve_stls,
)

gp = generate(GeneratorSpec(m=40, n=25, lam=1.0, e_p=0.1, seed=3))
p = gp.problem
sol = solve_stls(p)

k_kron = kappa_kron(sol, p.A).absolute
k_f1 = kappa_f1(sol, p.A).absolute
k_f2 = kappa_f2(sol, p.A).absolute
print("three equivalent evaluations:")
print(f"  materialized operator : {k_kron:.12e}")
print(f"  quadratic form        : {k_f1:.12e}")
print(f"  rectangular factor    : {k_f2:.12e}")
print(f"  max relative spread   : {(max(k_kron,k_f1,k_f2)-min(k_kron,k_f1,k_f2))/k_f2:.2e}")
print(f"  relative condition    : {relative_from_absolute(sol, k_f2):.6e}")

# finite-difference validation
t = 1e-7
K = build_K_dense(sol, p.A)
_, s, Vt = np.linalg.svd(K, full_matrices=False)


def response(dvec):
    dA = dvec[: p.m * p.n].reshape((p.m, p.n), order="F")
    db = dvec[p.m * p.n :]
    moved = solve_stls(StlsProblem(p.A + t * dA, p.b + t * db, p.lam)).x
    return np.linalg.norm(moved - sol.x) / t


print("\nfinite-difference validation at step 1e-7:")
print(f"  worst direction gain  : {response(Vt[0]):.6e}  (condition number {s[0]:.6e})")
rng = np.random.default_rng(0)
gains = []
for _ in range(5):
    d = rng.standard_normal(p.m * (p.n + 1))
    gains.append(response(d / np.linalg.norm(d)))
print(f"  random-direction gains: {', '.join(f'{g:.3e}' for g in gains)}")
print("  (every random gain sits below the condition number)")

# unit scale: the Gram-based shortcut agrees once the shift is squared
k_bg = kappa_tls_bg(sol).absolute
print(f"\nunit-scale Gram form    : {k_bg:.12e}  (dev {(abs(k_bg-k_f1)/k_f1):.2e})")
k_raw = kappa_tls_bg(sol, squared=False).absolute
print(f"unsquared-shift variant : {k_raw:.12e}  "
      f"(drifts by {abs(k_raw-k_f1)/k_f1:.2e}; kept only as a diagnostic)")

# vanishing scale approaches ordinary least squares
rng = np.random.default_rng(5)
A = rng.standard_normal((12, 5))
b = rng.standard_normal(12)
lam = 1e-6 * np.linalg.svd(A, compute_uv=False)[-1] / np.linalg.norm(b)
k_limit = kappa_f2(solve_stls(StlsProblem(A, b, lam)), A).absolute
k_ols = kappa_ols(A, b, "f2").absolute
print(f"\nvanishing-scale limit   : {k_limit:.8e}")
print(f"least squares value     : {k_ols:.8e}  (dev {abs(k_limit-k_ols)/k_ols:.2e})")
