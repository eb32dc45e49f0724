#!/usr/bin/env python3
"""Estimate the condition number without materializing the operator.

None of the three estimators reads the m x n data: each works on the
(n+1)-sized core that the solve leaves, the R factor of [A, b] in the
eigenbasis of the shifted Gram matrix, where a product costs O(n):

  * power iteration        -- stops once its running value is stationary;
  * probabilistic bracket  -- a guaranteed lower bound and an upper bound
                              holding with probability 1 - eps, tightened
                              until they differ by at most theta;
  * small-sample probing   -- a few orthonormal random probes, Wallis-factor
                              rescaled; cheap, and an estimate of the
                              Frobenius norm of K, which lies between
                              kappa and sqrt(n) kappa (near kappa where K
                              has one dominant direction, as here).
"""

import time

import numpy as np

from stlscond import (
    GeneratorSpec,
    PceConfig,
    PowerConfig,
    SceConfig,
    generate,
    kappa_f2,
    pce,
    power_method,
    sce,
    solve_stls,
)

gp = generate(GeneratorSpec(m=200, n=150, lam=5.0, e_p=0.1, seed=1))
p = gp.problem
sol = solve_stls(p)

t0 = time.perf_counter()
exact = kappa_f2(sol, p.A).absolute
t_exact = time.perf_counter() - t0
print(f"exact (rectangular factor): {exact:.10e}   [{t_exact*1e3:.1f} ms]")

t0 = time.perf_counter()
rep_pw = power_method(sol, p.A, PowerConfig(seed=0))
t_pw = time.perf_counter() - t0
print(f"power iteration           : {rep_pw.absolute:.10e}   [{t_pw*1e3:.1f} ms]  "
      f"iterations={rep_pw.diagnostics['iterations']} "
      f"converged={rep_pw.diagnostics['converged']}")

t0 = time.perf_counter()
rep_pce = pce(sol, p.A, PceConfig(eps=0.001, theta=0.01, seed=0))
t_pce = time.perf_counter() - t0
alpha, beta = rep_pce.diagnostics["alpha"], rep_pce.diagnostics["beta"]
print(f"probabilistic bracket     : {rep_pce.absolute:.10e}   [{t_pce*1e3:.1f} ms]  "
      f"bracket=[{alpha:.6e}, {beta:.6e}]")
print(f"                            certified: alpha <= exact ({alpha <= exact}), "
      f"bracket width {beta/alpha - 1.0:.2e}")

t0 = time.perf_counter()
rep_sce = sce(sol, p.A, SceConfig(k=3, seed=0))
t_sce = time.perf_counter() - t0
print(f"small-sample (k=3)        : {rep_sce.absolute:.10e}   [{t_sce*1e3:.1f} ms]  "
      f"ratio to exact {rep_sce.absolute/exact:.3f}")

print("\nratios to the exact value:")
print(f"  power / exact : {rep_pw.absolute / exact:.8f}")
print(f"  bracket/ exact: {rep_pce.absolute / exact:.8f}")
print(f"  sample / exact: {rep_sce.absolute / exact:.8f}")

# the hard regime: tiny designed gap and small scale slow the power method
hard = generate(GeneratorSpec(m=200, n=150, lam=0.05, e_p=0.001, seed=1))
hard_sol = solve_stls(hard.problem)
rep_hard = power_method(hard_sol, hard.problem.A, PowerConfig(seed=0))
print(f"\nhard regime (lam=0.05, e_p=0.001): power used "
      f"{rep_hard.diagnostics['iterations']} iterations, "
      f"converged={rep_hard.diagnostics['converged']}")
rep_hard_pce = pce(hard_sol, hard.problem.A, PceConfig(seed=0))
hard_exact = kappa_f2(hard_sol, hard.problem.A).absolute
print(f"the bracket still lands: {rep_hard_pce.absolute:.6e} vs exact {hard_exact:.6e}")
