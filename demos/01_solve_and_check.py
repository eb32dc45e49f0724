#!/usr/bin/env python3
"""Solve a scaled total least squares problem and cross-check it.

The problem: find the smallest Frobenius-norm correction [E, r] of the data
such that lam*b - r lies in the range of A + E.  A unique solution exists
when the smallest singular value of A strictly exceeds the smallest singular
value of the augmented matrix [A, lam*b] (the "genericity gap").

Both solvers read x off the trailing right singular vector of [A, lam*b]:
  * solve_stls first compresses the data by one thin QR of [A, b] to an
    (n+1) x n problem with the same solution,
  * solve_stls_svd works on the uncompressed data (the oracle).

They must agree, and x must satisfy the shifted normal equations
(A'A - sigma^2 I) x = A'b; this script checks both on a synthetic problem
with a known spectrum.
"""

import numpy as np

from stlscond import (
    GeneratorSpec,
    check_genericity,
    generate,
    solve_stls,
    solve_stls_svd,
)

spec = GeneratorSpec(m=30, n=20, lam=5.0, e_p=0.1, seed=7)
gp = generate(spec)
p = gp.problem

print(f"generated problem: m={p.m}, n={p.n}, scale lam={p.lam}")
print(f"designed singular values of [A, lam*b]: {gp.known_singular_values[:4]} ... "
      f"{gp.known_singular_values[-2:]}")

sigma_hat_n, sigma_np1, gap = check_genericity(p)
print(f"\nuniqueness check: smallest sv of A       = {sigma_hat_n:.6f}")
print(f"                  smallest sv of [A,lb]   = {sigma_np1:.6f}")
print(f"                  gap                     = {gap:.6f}  (must be > 0)")
print(f"interlacing bounds the gap by e_p = {spec.e_p}")

sol = solve_stls(p)
x_svd = solve_stls_svd(p)

print(f"\ncompressed route:       ||x|| = {np.linalg.norm(sol.x):.12f}")
print(f"uncompressed route:     ||x|| = {np.linalg.norm(x_svd):.12f}")
print(f"route difference: {np.linalg.norm(sol.x - x_svd):.3e}")

print(f"\nresidual norm ||A x - b||      = {np.linalg.norm(sol.r):.6f}")
ne_residual = p.A.T @ (p.A @ sol.x) - sol.sigma_np1**2 * sol.x - p.A.T @ p.b
print(f"normal-equation residual       = {np.linalg.norm(ne_residual):.3e}")
print(f"ill-posedness flag             = {sol.ill_posed}")

# shrinking the designed gap makes the problem fragile: the solver still
# succeeds, but the solution carries an ill-posedness flag
fragile = generate(GeneratorSpec(m=30, n=20, lam=0.05, e_p=1e-9, seed=7))
frag_sol = solve_stls(fragile.problem)
print(f"\nwith e_p = 1e-9 the gap drops to {frag_sol.genericity_gap:.2e} "
      f"(ill_posed = {frag_sol.ill_posed})")
