"""A 50-digit referee that shares none of the library's arithmetic.

At n <= 8 mpmath computes, from the double data taken exactly, the SVD of
[A, lam*b] (sigma_np1 and x from its trailing right singular vector) and
the dense K of the paper's formula, whose norm is the square root of the
top eigenvalue of K K'.  The library's x, sigma_np1 and the three exact
condition numbers are held to rounding-error bounds against it.
"""

import numpy as np
import pytest

from stlscond import GeneratorSpec, generate, kappa_f1, kappa_f2, kappa_kron, solve_stls

mp = pytest.importorskip("mpmath")

U = np.finfo(float).eps


def mp_referee(p):
    """(x, sigma_np1, kappa, sigma_1, ||[A, lam*b]||_F) at 50 digits."""
    with mp.workdps(50):
        m, n = p.A.shape
        lam = mp.mpf(p.lam)
        A = mp.matrix(p.A.tolist())
        b = mp.matrix(p.b.tolist())
        C = mp.matrix(m, n + 1)
        C[:, :n] = A
        C[:, n] = lam * b
        _, S, V = mp.svd_r(C)
        sigma, v = S[n], V[n, :]
        x = mp.matrix([-v[j] / (lam * v[n]) for j in range(n)])
        r = A * x - b
        Minv = mp.inverse(A.T * A - sigma**2 * mp.eye(n))
        # column j*m + i of K multiplies dA[i, j], the last m columns db
        H = Minv * ((2 / mp.norm(r) ** 2) * (A.T * r) * r.T - A.T)
        K = mp.matrix(n, m * (n + 1))
        for j in range(n):
            K[:, j * m : (j + 1) * m] = x[j] * H - Minv[:, j] * r.T
        K[:, n * m :] = -H
        kappa = mp.sqrt(max(mp.eigsy(K * K.T, eigvals_only=True)))
        return x, sigma, kappa, S[0], mp.mnorm(C, "f")


@pytest.mark.parametrize("e_p", [1e-2, 1e-4, 1e-6, 1e-9])
@pytest.mark.parametrize("m, n, lam", [(12, 8, 0.5), (9, 3, 3.0), (4, 1, 1.0)])
def test_against_mpmath_referee(m, n, lam, e_p):
    # Worst ratios over 80 problems (these shapes and two more, seeds 0-3):
    # x error 0.55 kappa_rel u, sigma error 0.97 u sigma_1, and 1.7
    # kappa_rel u for each of kron, f1 and f2, whose errors agree in their
    # leading digits: the computed x and sigma, not the formula, set them.
    for seed in range(2):
        p = generate(GeneratorSpec(m=m, n=n, lam=lam, e_p=e_p, seed=seed)).problem
        x, sigma, kappa, sigma_1, data_norm = mp_referee(p)
        kappa_rel = float(kappa * data_norm / mp.norm(x))
        sol = solve_stls(p)
        x_err = mp.norm(mp.matrix(sol.x.tolist()) - x) / mp.norm(x)
        assert x_err <= 10.0 * kappa_rel * U
        assert abs(sol.sigma_np1 - sigma) <= 10.0 * U * sigma_1
        for formula in (kappa_f1, kappa_f2, kappa_kron):
            k_err = abs(formula(sol, p.A).absolute - kappa) / kappa
            assert k_err <= 10.0 * kappa_rel * U, formula.__name__
