"""Kernel tests with independent oracles for the SVD and the spectral norm."""

import numpy as np
import pytest
import scipy.linalg

from stlscond import (
    ConvergenceError,
    NonFiniteError,
    NotPositiveDefiniteError,
    SpdFactorization,
    numerics,
    spectral_norm_dense,
    svd,
    unit_sphere_sample,
)


def jacobi_eigenvalues(S, sweeps=100):
    """Cyclic Jacobi iteration for a symmetric matrix.

    Deliberately naive (explicit rotation matrices, full products) so it
    shares nothing with the LAPACK path it checks.
    """
    S = np.array(S, dtype=float)
    n = S.shape[0]
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off = max(off, abs(S[p, q]))
                if S[p, q] == 0.0:
                    continue
                theta = (S[q, q] - S[p, p]) / (2.0 * S[p, q])
                if theta == 0.0:
                    t = 1.0
                else:
                    t = np.sign(theta) / (abs(theta) + np.sqrt(theta**2 + 1.0))
                c = 1.0 / np.sqrt(t**2 + 1.0)
                s = t * c
                J = np.eye(n)
                J[p, p] = J[q, q] = c
                J[p, q] = s
                J[q, p] = -s
                S = J.T @ S @ J
        if off < 1e-15:
            break
    return np.sort(np.diag(S))[::-1]


def power_iteration_norm(S, iters=20_000, seed=0):
    """Power iteration on a symmetric PSD matrix; sqrt of the top eigenvalue."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(S.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = S @ v
        lam = float(v @ w)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
    return float(np.sqrt(lam))


def test_svd_identity():
    _, s, _ = svd(np.eye(3))
    assert np.allclose(s, [1.0, 1.0, 1.0])


def test_svd_padded_diagonal():
    X = np.zeros((5, 3))
    X[:3, :3] = np.diag([3.0, 2.0, 1.0])
    _, s, _ = svd(X)
    assert np.allclose(s, [3.0, 2.0, 1.0])


def test_svd_matches_gram_jacobi_oracle():
    rng = np.random.default_rng(42)
    X = rng.standard_normal((10, 4))
    _, s, _ = svd(X)
    expected = np.sqrt(np.clip(jacobi_eigenvalues(X.T @ X), 0.0, None))
    assert np.allclose(s, expected, rtol=1e-10, atol=1e-12)


def test_svd_reconstruction_and_ordering():
    rng = np.random.default_rng(7)
    for shape in [(6, 4), (4, 6), (5, 5)]:
        X = rng.standard_normal(shape)
        U, s, Vt = svd(X)
        assert spectral_norm_dense(U @ np.diag(s) @ Vt - X) <= 1e-12 * s[0]
        assert np.all(np.diff(s) <= 0)


def _not_converged(*args, **kwargs):
    raise np.linalg.LinAlgError("SVD did not converge")


def test_svd_falls_back_to_gesvd(monkeypatch):
    # numpy's gesdd failing hands the matrix to scipy's gesvd
    X = np.random.default_rng(8).standard_normal((7, 4))
    monkeypatch.setattr(numerics.np.linalg, "svd", _not_converged)
    U, s, Vt = svd(X)
    assert U.shape == (7, 4) and s.shape == (4,) and Vt.shape == (4, 4)
    assert np.linalg.norm(U @ np.diag(s) @ Vt - X) <= 1e-12 * s[0]
    assert np.all(np.diff(s) <= 0)
    assert np.array_equal(numerics.singular_values(X), s)


def test_svd_fallback_failure_is_convergence_error(monkeypatch):
    monkeypatch.setattr(numerics.np.linalg, "svd", _not_converged)
    monkeypatch.setattr(scipy.linalg, "svd", _not_converged)
    with pytest.raises(ConvergenceError):
        svd(np.eye(3))


def test_svd_rejects_nonfinite():
    X = np.ones((3, 2))
    X[1, 1] = np.nan
    with pytest.raises(NonFiniteError):
        svd(X)


def test_solve_spd_diagonal():
    M = SpdFactorization.from_matrix(np.diag([3.75, 0.75]))
    z = M.solve(np.array([1.0, 0.0]))
    assert np.allclose(z, [4.0 / 15.0, 0.0], rtol=1e-15)


def test_solve_spd_identity():
    M = SpdFactorization.from_matrix(np.eye(4))
    y = np.arange(1.0, 5.0)
    assert np.array_equal(M.solve(y), y)


def test_solve_spd_multiply_back():
    rng = np.random.default_rng(3)
    for _ in range(10):
        B = rng.standard_normal((8, 8))
        M = B @ B.T + 8.0 * np.eye(8)
        fact = SpdFactorization.from_matrix(M)
        y = rng.standard_normal(8)
        z = fact.solve(y)
        assert np.linalg.norm(M @ z - y) <= 1e-12 * np.linalg.norm(y)


def test_solve_spd_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        SpdFactorization.from_matrix(np.diag([1.0, -1.0]))


def test_solve_spd_rejects_length_mismatch():
    M = SpdFactorization.from_matrix(np.eye(3))
    with pytest.raises(ValueError):
        M.solve(np.ones(2))


def test_spectral_norm_simple_values():
    assert spectral_norm_dense(np.diag([3.0, 2.0, 1.0])) == 3.0
    assert spectral_norm_dense(np.zeros((4, 2))) == 0.0


def test_spectral_norm_matches_power_iteration_oracle():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((6, 9))
    expected = power_iteration_norm(X @ X.T)
    assert abs(spectral_norm_dense(X) - expected) <= 1e-10 * expected


def test_spectral_norm_transpose_invariant():
    rng = np.random.default_rng(1)
    for _ in range(20):
        X = rng.standard_normal((int(rng.integers(1, 8)), int(rng.integers(1, 8))))
        a = spectral_norm_dense(X)
        b = spectral_norm_dense(X.T)
        assert abs(a - b) <= 1e-12 * max(a, 1e-300)


def test_unit_sphere_dim1_is_sign():
    rng = np.random.default_rng(5)
    for _ in range(10):
        v = unit_sphere_sample(1, rng)
        assert v.shape == (1,)
        assert abs(abs(v[0]) - 1.0) < 1e-15


def test_unit_sphere_deterministic():
    a = unit_sphere_sample(4, np.random.default_rng(123))
    b = unit_sphere_sample(4, np.random.default_rng(123))
    assert np.array_equal(a, b)
    assert abs(np.linalg.norm(a) - 1.0) <= 1e-15


def test_unit_sphere_mean_near_zero():
    rng = np.random.default_rng(99)
    samples = np.array([unit_sphere_sample(3, rng) for _ in range(10_000)])
    assert np.linalg.norm(samples.mean(axis=0)) <= 0.05


def test_unit_sphere_rejects_bad_dim():
    with pytest.raises(ValueError):
        unit_sphere_sample(0, np.random.default_rng(0))
