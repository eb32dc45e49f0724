"""Estimator tests: operator products against the dense oracle, power
iteration, the probabilistic bracket, and small-sample probing."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg as spla
import scipy.special
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stlscond import (
    ConvergenceError,
    GeneratorSpec,
    PceConfig,
    PowerConfig,
    SampleTooLargeError,
    SceConfig,
    StlsError,
    apply_K,
    apply_KT,
    build_K_dense,
    generate,
    kappa_f1,
    kappa_f2,
    kappa_kron,
    pce,
    power_method,
    probabilistic_spectral_norm,
    relative_from_absolute,
    sce,
    solve_stls,
)
from stlscond import estimate
from stlscond.estimate import wallis_factor
from stlscond.exact import _f2_operator

KAPPA_DIAGONAL = np.sqrt(20.0 / 9.0)


# ---------------------------------------------------------------------------
# operator products
# ---------------------------------------------------------------------------

def test_apply_KT_diagonal_fixture(diagonal_problem, diagonal_solution):
    P = apply_KT(diagonal_solution, diagonal_problem.A, np.array([1.0, 0.0]))
    expected = np.zeros((3, 3))
    expected[2, 0] = 2.0 / 15.0   # -r z' block: 0.5 * (4/15)
    expected[0, 2] = 8.0 / 15.0   # -w block
    assert np.allclose(P, expected, atol=1e-14)


def test_apply_KT_linear_in_y(diagonal_problem, diagonal_solution):
    P = apply_KT(diagonal_solution, diagonal_problem.A, np.zeros(2))
    assert np.array_equal(P, np.zeros((3, 3)))


def test_apply_KT_matches_dense_oracle(gen_problem):
    p, sol = gen_problem(9, 5, 1.3, 0.2, 6)
    K = build_K_dense(sol, p.A)
    rng = np.random.default_rng(0)
    for _ in range(10):
        y = rng.standard_normal(p.n)
        P = apply_KT(sol, p.A, y)
        expected = K.T @ y
        assert np.linalg.norm(P.ravel(order="F") - expected) <= 1e-12 * np.linalg.norm(expected)


def test_apply_K_zero(gen_problem):
    p, sol = gen_problem(7, 4, 1.0, 0.3, 9)
    out = apply_K(sol, p.A, np.zeros((7, 5)))
    assert np.array_equal(out, np.zeros(4))


def test_apply_K_composition_matches_dense(gen_problem):
    p, sol = gen_problem(9, 5, 0.7, 0.2, 13)
    K = build_K_dense(sol, p.A)
    G = K @ K.T
    rng = np.random.default_rng(1)
    for _ in range(10):
        y = rng.standard_normal(p.n)
        out = apply_K(sol, p.A, apply_KT(sol, p.A, y))
        expected = G @ y
        assert np.linalg.norm(out - expected) <= 1e-11 * np.linalg.norm(expected)


def test_adjoint_identity(gen_problem):
    p, sol = gen_problem(11, 6, 2.0, 0.15, 3)
    rng = np.random.default_rng(5)
    for _ in range(100):
        y = rng.standard_normal(p.n)
        P = rng.standard_normal((p.m, p.n + 1))
        lhs = float(apply_KT(sol, p.A, y).ravel(order="F") @ P.ravel(order="F"))
        rhs = float(y @ apply_K(sol, p.A, P))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1e-300)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 6),
    extra=st.integers(1, 6),
    lam=st.floats(0.05, 20.0),
    e_p=st.floats(1e-3, 0.9),
    k=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_factor_route_matches_packed_boundary(n, extra, lam, e_p, k, seed):
    # the estimators' rectangular factor W (W W' = K K') against the packed
    # public products, which the tests above tie to the dense K, and its
    # block adjoint against the column-by-column one
    p = generate(GeneratorSpec(m=n + extra, n=n, lam=lam, e_p=e_p, seed=seed)).problem
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(n)
    Y = rng.standard_normal((n, k))
    try:
        sol = solve_stls(p)
        P = apply_KT(sol, p.A, y)
    except StlsError:
        assume(False)
    op = _f2_operator(sol, sol.M.solve)
    q = op.rmatvec(y)
    assert np.linalg.norm(q) == pytest.approx(np.linalg.norm(P), rel=1e-12)
    expected = apply_K(sol, p.A, P)
    assert np.linalg.norm(op.matvec(q) - expected) <= 1e-12 * np.linalg.norm(expected)
    by_column = np.column_stack([op.rmatvec(Y[:, j]) for j in range(k)])
    assert np.linalg.norm(op.rmatmat(Y) - by_column) <= 1e-12 * np.linalg.norm(by_column)


# ---------------------------------------------------------------------------
# power method
# ---------------------------------------------------------------------------

def test_power_diagonal_converges_fast(diagonal_problem, diagonal_solution):
    # (0, 1) is the exact dominant eigenvector of K K'
    rep = power_method(
        diagonal_solution, diagonal_problem.A, PowerConfig(), y0=np.array([0.0, 1.0])
    )
    assert rep.diagnostics["converged"]
    assert rep.diagnostics["iterations"] <= 3
    assert rep.absolute == pytest.approx(KAPPA_DIAGONAL, abs=1e-6)
    assert rep.method == "POWER"


def test_power_defaults_match_protocol():
    cfg = PowerConfig()
    assert cfg.tol == 1e-8
    assert cfg.max_iter == 500


def test_power_matches_exact_form(gen_problem):
    p, sol = gen_problem(30, 20, 5.0, 0.1, 14)
    rep = power_method(sol, p.A, PowerConfig(seed=7))
    exact = kappa_f2(sol, p.A).absolute
    assert rep.diagnostics["converged"]
    assert abs(rep.absolute - exact) <= 1e-6 * exact


def test_power_monotone_tail(gen_problem):
    p, sol = gen_problem(16, 10, 0.5, 0.2, 2)
    rep = power_method(sol, p.A, PowerConfig(seed=3))
    trace = rep.diagnostics["v_trace"]
    assert len(trace) >= 2
    for before, after in zip(trace[1:], trace[2:]):
        assert after >= before - 1e-12 * max(1.0, before)


def test_power_unconverged_is_flagged_not_raised(gen_problem):
    p, sol = gen_problem(20, 12, 1.0, 0.1, 5)
    rep = power_method(sol, p.A, PowerConfig(tol=1e-30, max_iter=2, seed=1))
    assert not rep.diagnostics["converged"]
    assert rep.diagnostics["iterations"] == 2
    assert rep.absolute > 0.0


def test_power_rejects_zero_start(gen_problem):
    p, sol = gen_problem(8, 4, 1.0, 0.2, 0)
    with pytest.raises(ValueError):
        power_method(sol, p.A, PowerConfig(), y0=np.zeros(4))


# ---------------------------------------------------------------------------
# probabilistic spectral-norm bracket
# ---------------------------------------------------------------------------

def test_bracket_known_diagonal_norm():
    op = spla.aslinearoperator(np.diag([3.0, 2.0, 1.0]))
    alpha, beta = probabilistic_spectral_norm(op, PceConfig(eps=0.001, theta=0.01))
    assert alpha <= 3.0 * (1.0 + 1e-12)
    assert beta >= 3.0 * (1.0 - 1e-12)
    assert beta <= (1.0 + 0.01) * alpha * (1.0 + 1e-12)


def test_bracket_scalar_operator_exhausts():
    op = spla.aslinearoperator(np.array([[5.0]]))
    alpha, beta = probabilistic_spectral_norm(op, PceConfig())
    assert alpha == 5.0
    assert beta == 5.0


def test_bracket_oracle_coverage():
    # certified side must never fail; probabilistic side may fail with
    # probability <= eps per trial (0.001 here)
    rng = np.random.default_rng(0)
    lower_ok = 0
    upper_ok = 0
    trials = 200
    for t in range(trials):
        X = rng.standard_normal((40, 90))
        true = float(np.linalg.svd(X, compute_uv=False)[0])
        alpha, beta = probabilistic_spectral_norm(
            spla.aslinearoperator(X), PceConfig(seed=1000 + t)
        )
        assert beta <= (1.0 + 0.01) * alpha * (1.0 + 1e-12)
        if alpha <= true * (1.0 + 1e-10):
            lower_ok += 1
        if beta >= true:
            upper_ok += 1
    assert lower_ok == trials
    assert upper_ok >= trials - 2


@pytest.mark.parametrize("mu, log_target, root", [
    # t - 1 = e^L: a root just right of the pole, one near it, one far out
    ([1.0], -30.0, 1.0 + np.exp(-30.0)),
    ([1.0], 0.0, 2.0),
    ([1.0], 40.0, 1.0 + np.exp(40.0)),
    # (t - 1)(t - 4) = 10 and t (t - 1)(t - 3) = 12
    ([1.0, 4.0], np.log(10.0), 6.0),
    ([0.0, 1.0, 3.0], np.log(12.0), 4.0),
])
def test_certified_upper_solves_characteristic_equation(mu, log_target, root):
    t = estimate._certified_upper(np.array(mu), log_target) ** 2
    assert t == pytest.approx(root, rel=1e-14, abs=0.0)


def test_certified_upper_iteration_cap(monkeypatch):
    monkeypatch.setattr(estimate, "NEWTON_MAX_ITER", 1)
    with pytest.raises(ConvergenceError):
        estimate._certified_upper(np.array([1.0, 4.0]), np.log(10.0))


@pytest.mark.parametrize("d", [3, 4, 5, 6, 11, 50, 51, 902, 1503, 20001])
@pytest.mark.parametrize("eps", [1e-15, 1e-3, 0.1, 0.5, 0.99])
def test_sphere_quantile_matches_beta_quantile(d, eps):
    # v_1^2 ~ Beta(1/2, (d-1)/2) for v uniform on the unit sphere in R^d
    ref = np.sqrt(scipy.special.betaincinv(0.5, (d - 1) / 2.0, eps))
    assert estimate._sphere_quantile(d, eps) == pytest.approx(ref, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("d, eps, delta", [
    (1, 0.3, 1.0),                          # v_1 = +-1
    (2, 0.3, np.sin(0.15 * np.pi)),         # v_1 = cos of a uniform angle
    (3, 0.3, 0.3),                          # Archimedes: |v_1| is uniform
    (3, 1e-300, 1e-300),                    # below the range of Beta quantiles in x
    (5, 1e-300, 1e-300 / 1.5),              # G(y) ~ 3y/2 near 0
])
def test_sphere_quantile_closed_forms(d, eps, delta):
    assert estimate._sphere_quantile(d, eps) == pytest.approx(delta, rel=1e-15, abs=0.0)


def test_sphere_quantile_iteration_cap(monkeypatch):
    monkeypatch.setattr(estimate, "NEWTON_MAX_ITER", 1)
    with pytest.raises(ConvergenceError):
        estimate._sphere_quantile(902, 0.5)


def test_pce_diagonal_brackets_exact(diagonal_problem, diagonal_solution):
    rep = pce(diagonal_solution, diagonal_problem.A, PceConfig(eps=0.001, theta=0.01))
    alpha = rep.diagnostics["alpha"]
    beta = rep.diagnostics["beta"]
    assert alpha <= KAPPA_DIAGONAL * (1.0 + 1e-10)
    assert beta >= KAPPA_DIAGONAL * (1.0 - 1e-10)
    assert alpha <= rep.absolute <= beta


def test_pce_defaults_match_protocol():
    cfg = PceConfig()
    assert cfg.eps == 0.001
    assert cfg.theta == 0.01


def test_pce_accuracy_on_large_problem(gen_problem):
    p, sol = gen_problem(200, 150, 5.0, 0.1, 6)
    exact = kappa_f2(sol, p.A).absolute
    rep = pce(sol, p.A, PceConfig(seed=2))
    assert abs(rep.absolute - exact) <= (0.01 / 2.0 + 1e-6) * exact
    assert rep.diagnostics["alpha"] <= exact * (1.0 + 1e-10)


def test_pce_cg_solver_agrees(gen_problem):
    p, sol = gen_problem(24, 12, 0.5, 0.2, 7)
    a = pce(sol, p.A, PceConfig(seed=5)).absolute
    b = pce(sol, p.A, PceConfig(seed=5), solver="cg").absolute
    assert a == pytest.approx(b, rel=1e-6)


# ---------------------------------------------------------------------------
# small-sample estimation
# ---------------------------------------------------------------------------

def test_sce_scalar_dimension_is_exact():
    # n = 1: the single probe is 1 after normalization, so the estimate is
    # the exact condition number (the operator has one row)
    from stlscond import StlsProblem, solve_stls

    p = StlsProblem(np.array([[2.0], [0.0]]), np.array([1.0, 1.0]), 1.0)
    sol = solve_stls(p)
    rep = sce(sol, p.A, SceConfig(k=1, seed=0))
    exact = kappa_kron(sol, p.A).absolute
    assert rep.absolute == pytest.approx(exact, rel=1e-12)


def test_sce_full_sample_equals_frobenius_norm(gen_problem):
    p, sol = gen_problem(8, 5, 1.0, 0.2, 11)
    K = build_K_dense(sol, p.A)
    rep = sce(sol, p.A, SceConfig(k=5, seed=1))
    assert rep.absolute == pytest.approx(np.linalg.norm(K, "fro"), rel=1e-10)


def test_sce_upper_bound_invariant(gen_problem):
    for seed in range(5):
        p, sol = gen_problem(10, 6, 2.0, 0.15, seed)
        K = build_K_dense(sol, p.A)
        rep = sce(sol, p.A, SceConfig(k=3, seed=seed))
        bound = (wallis_factor(3) / wallis_factor(6)) * np.linalg.norm(K, "fro")
        assert 0.0 < rep.absolute <= bound + 1e-12


def test_sce_probe_identity_against_dense(gen_problem):
    # each probe's quadratic form equals the dense adjoint-product norm
    p, sol = gen_problem(9, 5, 1.0, 0.25, 19)
    K = build_K_dense(sol, p.A)
    C = K @ K.T
    rng = np.random.default_rng(23)
    for _ in range(10):
        z = rng.standard_normal(p.n)
        z /= np.linalg.norm(z)
        quad = np.sqrt(float(z @ C @ z))
        direct = np.linalg.norm(apply_KT(sol, p.A, z))
        assert direct == pytest.approx(quad, rel=1e-10)


def test_sce_rejects_oversized_sample(gen_problem):
    p, sol = gen_problem(8, 4, 1.0, 0.2, 1)
    with pytest.raises(SampleTooLargeError):
        sce(sol, p.A, SceConfig(k=5, seed=0))


def test_sce_default_sample_size():
    assert SceConfig().k == 3


def test_config_validation():
    with pytest.raises(ValueError):
        PowerConfig(tol=0.0)
    with pytest.raises(ValueError):
        PowerConfig(max_iter=0)
    with pytest.raises(ValueError):
        PceConfig(eps=1.5)
    with pytest.raises(ValueError):
        PceConfig(theta=0.0)
    with pytest.raises(ValueError):
        SceConfig(k=0)
    with pytest.raises(ValueError):
        PowerConfig(tol="x")
    with pytest.raises(ValueError):
        PowerConfig(max_iter=1.5)
    with pytest.raises(ValueError):
        PceConfig(theta=None)
    with pytest.raises(ValueError):
        SceConfig(k=1.5)
    with pytest.raises(ValueError):
        SceConfig(seed=True)
    assert PowerConfig(tol=1, max_iter=np.int64(5)).max_iter == 5


def test_post_solve_work_allocates_no_m_sized_array(gen_problem):
    # after the solve, the exact forms and the estimators read only the
    # (n+1) x n compressed problem, so none of them may allocate anything
    # near the size of the m x n data
    p, sol = gen_problem(4000, 40, 1.0, 0.1, 3)
    calls = {
        "f1": lambda: kappa_f1(sol, p.A),
        "f2": lambda: kappa_f2(sol, p.A),
        "power": lambda: power_method(sol, p.A, PowerConfig(tol=1e-300, max_iter=20)),
        "pce": lambda: pce(sol, p.A, PceConfig()),
        "sce": lambda: sce(sol, p.A, SceConfig()),
        "relative": lambda: relative_from_absolute(p, sol, 1.0),
    }
    for name, call in calls.items():
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < p.A.nbytes / 4, (name, peak / p.A.nbytes)
