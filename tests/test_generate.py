"""Generator tests: spectrum fidelity, reflector orthogonality, determinism."""

import numpy as np
import pytest

from stlscond import (
    GeneratorSpec,
    MemoryBudgetError,
    check_genericity,
    generate,
    spectral_norm_dense,
    svd,
)
from stlscond.exact import KRON_BUDGET_BYTES


def test_known_spectrum_small_case():
    gp = generate(GeneratorSpec(m=5, n=3, lam=1.0, e_p=0.1, seed=42))
    assert np.allclose(gp.known_singular_values, [3.0, 2.0, 1.0, 0.9], atol=0)
    s = svd(gp.problem.augmented())[1]
    assert np.max(np.abs(s - gp.known_singular_values)) <= 1e-12


def test_gap_is_ep_by_construction():
    gp = generate(GeneratorSpec(m=4, n=2, lam=1.0, e_p=0.5, seed=0))
    d = gp.known_singular_values
    assert d[-2] == 1.0
    assert d[-1] == 0.5
    assert d[-2] - d[-1] == 0.5


def test_genericity_gap_bounded_by_ep():
    gp = generate(GeneratorSpec(m=30, n=20, lam=0.05, e_p=0.001, seed=11))
    _, _, gap = check_genericity(gp.problem)
    assert 0.0 < gap <= 0.001 + 1e-14


def test_reflector_orthogonality(generator_reflectors):
    y, z = generator_reflectors(GeneratorSpec(m=25, n=10, lam=2.0, e_p=0.2, seed=8))
    Y = np.eye(25) - 2.0 * np.outer(y, y)
    Z = np.eye(11) - 2.0 * np.outer(z, z)
    assert spectral_norm_dense(Y.T @ Y - np.eye(25)) <= 1e-13
    assert spectral_norm_dense(Z.T @ Z - np.eye(11)) <= 1e-13


def test_determinism_same_spec():
    spec = GeneratorSpec(m=14, n=6, lam=0.7, e_p=0.05, seed=31)
    a = generate(spec)
    b = generate(spec)
    assert np.array_equal(a.problem.A, b.problem.A)
    assert np.array_equal(a.problem.b, b.problem.b)


def test_spectrum_preserved_across_seeds():
    for seed in range(5):
        gp = generate(GeneratorSpec(m=12, n=5, lam=0.7, e_p=0.05, seed=seed))
        s = svd(gp.problem.augmented())[1]
        assert np.max(np.abs(s - gp.known_singular_values)) <= 1e-12


def test_singular_values_invariant_under_generated_reflectors(generator_reflectors):
    y, _ = generator_reflectors(GeneratorSpec(m=7, n=4, lam=1.0, e_p=0.3, seed=2))
    Y = np.eye(7) - 2.0 * np.outer(y, y)
    X = np.random.default_rng(0).standard_normal((7, 5))
    s0 = svd(X)[1]
    s1 = svd(Y @ X)[1]
    s2 = svd(X.T @ Y)[1]
    assert np.allclose(s0, s1, rtol=1e-12)
    assert np.allclose(s0, s2, rtol=1e-12)


def test_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec(m=3, n=3, lam=1.0, e_p=0.1, seed=0)
    with pytest.raises(ValueError):
        GeneratorSpec(m=4, n=2, lam=1.0, e_p=1.5, seed=0)
    with pytest.raises(ValueError):
        GeneratorSpec(m=4, n=2, lam=0.0, e_p=0.1, seed=0)


def test_provenance_payload():
    spec = GeneratorSpec(m=5, n=3, lam=1.0, e_p=0.1, seed=42)
    gp = generate(spec)
    doc = gp.provenance(spec)
    assert doc["spec"] == {"m": 5, "n": 3, "lambda": 1.0, "e_p": 0.1, "seed": 42}
    assert doc["known_singular_values"] == [3.0, 2.0, 1.0, 0.9]


def test_spec_over_the_budget_is_refused_before_allocating():
    # an m x (n+1) augmented matrix of exactly the budget passes; one more
    # row does not.  Only the specs are built, so nothing is allocated
    n = 127
    m = KRON_BUDGET_BYTES // (8 * (n + 1))
    GeneratorSpec(m=m, n=n, lam=1.0, e_p=0.5, seed=0)
    with pytest.raises(MemoryBudgetError, match="over the 1024 MiB budget"):
        GeneratorSpec(m=m + 1, n=n, lam=1.0, e_p=0.5, seed=0)
    with pytest.raises(MemoryBudgetError):
        GeneratorSpec(m=1_000_000, n=999_999, lam=1.0, e_p=0.5, seed=0)
