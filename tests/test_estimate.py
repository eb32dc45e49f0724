"""Estimator tests: operator products against the dense oracle, power
iteration, the probabilistic bracket, and small-sample probing."""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse.linalg as spla
import scipy.special
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stlscond import (
    ConvergenceError,
    GeneratorSpec,
    NonFiniteError,
    PceConfig,
    PowerConfig,
    SampleTooLargeError,
    SceConfig,
    StlsError,
    StlsProblem,
    apply_K,
    apply_KT,
    build_K_dense,
    generate,
    kappa_f1,
    kappa_f2,
    kappa_kron,
    pce,
    power_method,
    relative_from_absolute,
    sce,
    solve_stls,
    unit_sphere_sample,
)
from stlscond import estimate, exact, numerics
from stlscond.estimate import METHODS, wallis_factor
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
    # W works in the eigenbasis V of M: its product with its adjoint is
    # V' K K' V, so y enters as V'y and W W'V'y leaves as V'K K'y.  It also
    # works in the core's units, where K is 2**e times the data's
    op = _f2_operator(sol)
    V = sol.svd.v(np.eye(n))
    q = op.rmatvec(V.T @ y)
    assert np.ldexp(np.linalg.norm(q), -sol.e) == pytest.approx(np.linalg.norm(P), rel=1e-12)
    expected = apply_K(sol, p.A, P)
    WWy = np.ldexp(V @ op.matvec(q), -2 * sol.e)
    assert np.linalg.norm(WWy - expected) <= 1e-12 * np.linalg.norm(expected)
    by_column = np.column_stack([op.rmatvec(Y[:, j]) for j in range(k)])
    assert np.linalg.norm(op.rmatmat(Y) - by_column) <= 1e-12 * np.linalg.norm(by_column)


def test_operators_refuse_data_other_than_the_solved(gen_problem):
    # A must be the data the solution solves: a matrix of the same shape is
    # not, and a copy is read as the data itself
    p, sol = gen_problem(12, 5, 1.0, 0.1, 0)
    rng = np.random.default_rng(1)
    y, P = rng.standard_normal(5), rng.standard_normal((12, 6))
    configs = {"power": PowerConfig(), "pce": PceConfig(), "sce": SceConfig()}
    for A in (2.0 * p.A, np.zeros_like(p.A), p.A[:, :4]):
        for call in (lambda: apply_KT(sol, A, y), lambda: apply_K(sol, A, P),
                     lambda: build_K_dense(sol, A),
                     *(lambda f=f: f(sol, A, configs) for f in METHODS.values())):
            with pytest.raises(ValueError, match="not the data"):
                call()
    A = p.A.copy()
    assert np.array_equal(apply_KT(sol, A, y), apply_KT(sol, p.A, y))
    assert np.array_equal(apply_K(sol, A, P), apply_K(sol, p.A, P))
    assert np.array_equal(build_K_dense(sol, A), build_K_dense(sol, p.A))
    with pytest.raises(ValueError, match="y has length 4, expected 5"):
        apply_KT(sol, p.A, y[:4])
    with pytest.raises(ValueError, match=r"P has shape \(12, 5\), expected \(12, 6\)"):
        apply_K(sol, p.A, P[:, :5])


# ---------------------------------------------------------------------------
# power method
# ---------------------------------------------------------------------------

def test_power_diagonal_converges_fast(diagonal_problem, diagonal_solution):
    # K K' has eigenvalues 20/9 and 68/225, so each sweep cuts the error
    # about 7-fold; seeds 0-5 take 7 or 8 sweeps
    rep = power_method(diagonal_solution, diagonal_problem.A, PowerConfig(seed=0))
    assert rep.diagnostics["converged"]
    assert rep.diagnostics["iterations"] <= 10
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
    trace = rep.diagnostics["kappa_trace"]
    assert len(trace) >= 2
    assert trace[-1] == rep.absolute
    for before, after in zip(trace[1:], trace[2:]):
        assert after >= before * (1.0 - 1e-12)


def test_power_unconverged_is_flagged_not_raised(gen_problem):
    p, sol = gen_problem(20, 12, 1.0, 0.1, 5)
    rep = power_method(sol, p.A, PowerConfig(tol=1e-30, max_iter=2, seed=1))
    assert not rep.diagnostics["converged"]
    assert rep.diagnostics["iterations"] == 2
    assert rep.absolute > 0.0


def _kappa_trace(sol, trace):
    """The running estimates sqrt(v) of a power iteration in the core's
    units, in the data's."""
    return np.ldexp(np.sqrt(trace), -sol.e).tolist()


def _power_through_factor(sol, cfg):
    """Referee: the power iteration on W W' = K K' through the products of
    the rectangular factor W, recording ||W'y|| times the scale carried
    (||W'y||**2 at the first sweep), stopped on a relative change."""
    op = _f2_operator(sol)
    y = np.random.default_rng(cfg.seed).standard_normal(len(sol.x))
    y = sol.svd.vt(y / np.linalg.norm(y))
    scale, v_prev, trace = None, None, []
    for it in range(1, cfg.max_iter + 1):
        q = op.rmatvec(y)
        qnorm = float(np.linalg.norm(q))
        trace.append(qnorm * (qnorm if scale is None else scale))
        if v_prev is not None and abs(trace[-1] - v_prev) <= cfg.tol * trace[-1]:
            return it, _kappa_trace(sol, trace)
        v_prev = trace[-1]
        y = op.matvec(q / qnorm)
        scale = float(np.linalg.norm(y))
        y = y / scale
    return cfg.max_iter, _kappa_trace(sol, trace)


@pytest.mark.parametrize("m, n, lam, e_p, seed, tol", [
    (60, 40, 1.0, 0.1, 1, 1e-8),
    (60, 40, 5.0, 1e-3, 2, 1e-8),
    (120, 80, 20.0, 1e-6, 3, 1e-8),
    (80, 50, 0.5, 0.3, 4, 1e-8),
    # kappa near 1e4, with a loose relative tol that stops the iteration
    # far from its limit
    (200, 150, 0.05, 1e-3, 5, 1e-4),
])
def test_power_matches_iteration_through_the_factor(gen_problem, m, n, lam, e_p, seed, tol):
    p, sol = gen_problem(m, n, lam, e_p, seed)
    cfg = PowerConfig(tol=tol, seed=seed)
    rep = power_method(sol, p.A, cfg)
    iterations, trace = _power_through_factor(sol, cfg)
    assert rep.diagnostics["iterations"] == iterations
    assert np.allclose(rep.diagnostics["kappa_trace"], trace, rtol=1e-12, atol=0.0)
    if tol == 1e-4:
        assert rep.absolute > 5e3


def _power_old_expression(sol, cfg):
    """power_method's sweep as it was written before it ran in place, the
    reference its kappa_trace must equal bit for bit."""
    L, a, b = exact._f1_terms(sol)
    y = np.random.default_rng(cfg.seed).standard_normal(len(sol.x))
    y = sol.svd.vt(y / float(np.linalg.norm(y)))
    scale, v_prev, trace = None, None, []
    for _ in range(cfg.max_iter):
        Ey = L * y - a * float(b @ y) - b * float(a @ y)
        qnorm = math.sqrt(max(float(y @ Ey), 0.0))
        trace.append(qnorm * (qnorm if scale is None else scale))
        if qnorm == 0.0 or (v_prev is not None
                            and abs(trace[-1] - v_prev) <= cfg.tol * trace[-1]):
            break
        v_prev = trace[-1]
        eynorm = float(np.linalg.norm(Ey))
        if eynorm == 0.0:
            break
        scale = eynorm / qnorm
        y = Ey / eynorm
    return _kappa_trace(sol, trace)


@pytest.mark.parametrize("m, n, lam, e_p, seed", [
    (60, 40, 1.0, 0.1, 1), (120, 80, 20.0, 1e-6, 3), (30, 1, 1.0, 0.1, 2),
])
def test_power_sweep_is_bitwise_the_old_expression(gen_problem, m, n, lam, e_p, seed):
    p, sol = gen_problem(m, n, lam, e_p, seed)
    for cfg in (PowerConfig(seed=seed), PowerConfig(tol=1e-30, max_iter=60, seed=seed)):
        assert (power_method(sol, p.A, cfg).diagnostics["kappa_trace"]
                == _power_old_expression(sol, cfg))


# ---------------------------------------------------------------------------
# probabilistic spectral-norm bracket
# ---------------------------------------------------------------------------

def _bracket(op, cfg):
    """(alpha, beta) of the bracket from a start vector drawn from cfg.seed."""
    v = unit_sphere_sample(op.shape[1], np.random.default_rng(cfg.seed))
    return estimate._lanczos_bracket(op, cfg, v)[:2]


def test_bracket_known_diagonal_norm():
    op = spla.aslinearoperator(np.diag([3.0, 2.0, 1.0]))
    alpha, beta = _bracket(op, PceConfig(eps=0.001, theta=0.01))
    assert alpha <= 3.0 * (1.0 + 1e-12)
    assert beta >= 3.0 * (1.0 - 1e-12)
    assert beta <= (1.0 + 0.01) * alpha * (1.0 + 1e-12)


def test_bracket_scalar_operator_exhausts():
    op = spla.aslinearoperator(np.array([[5.0]]))
    alpha, beta = _bracket(op, PceConfig())
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
        alpha, beta = _bracket(spla.aslinearoperator(X), PceConfig(seed=1000 + t))
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


@pytest.mark.parametrize("m", [2, 3, 5])
def test_pce_scalar_dimension_is_exact(m):
    # n = 1: the second Lanczos vector of the 1-dimensional side vanishes,
    # and the last beta completes the exact norm
    rng = np.random.default_rng(m)
    p = StlsProblem(rng.standard_normal((m, 1)), rng.standard_normal(m), 1.0)
    sol = solve_stls(p)
    exact = kappa_f2(sol, p.A).absolute
    rep = pce(sol, p.A, PceConfig(seed=m))
    assert rep.diagnostics["alpha"] == pytest.approx(exact, rel=1e-12)
    assert rep.diagnostics["beta"] == pytest.approx(exact, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 6),
    extra=st.integers(1, 6),
    lam=st.floats(0.05, 20.0),
    e_p=st.floats(1e-3, 0.9),
    seed=st.integers(0, 2**32 - 1),
)
def test_pce_bracket_contains_exact_property(n, extra, lam, e_p, seed):
    # alpha is certified; beta fails with probability at most eps, taken
    # tiny here so that a failure points at the code
    p = generate(GeneratorSpec(m=n + extra, n=n, lam=lam, e_p=e_p, seed=seed)).problem
    try:
        sol = solve_stls(p)
        exact = kappa_f2(sol, p.A).absolute
    except StlsError:
        assume(False)
    rep = pce(sol, p.A, PceConfig(eps=1e-12, seed=seed))
    assert rep.diagnostics["alpha"] <= exact * (1.0 + 1e-12)
    assert rep.diagnostics["beta"] >= exact * (1.0 - 1e-12)


def _binomial_upper(trials, p, tail=1e-6):
    """The least count c with P(X > c) <= tail for X ~ Binomial(trials, p)."""
    cdf = 0.0
    for c in range(trials + 1):
        cdf += math.comb(trials, c) * p**c * (1.0 - p) ** (trials - c)
        if 1.0 - cdf <= tail:
            return c
    return trials


@pytest.mark.parametrize("eps", [0.2, 0.5])
def test_pce_upper_bound_fails_at_most_at_rate_eps(eps):
    # each run's beta is below kappa with probability at most eps, the
    # runs are independent (one seed each), so the failure count is at most
    # binomial.  theta = 10 stops the brackets after one or two steps, where
    # the rate is nearest eps (200 of 1000 at 0.2, 496 at 0.5), so a
    # quantile 1.3 times too loose fails
    problems = []
    for seed in range(8):
        p = generate(GeneratorSpec(m=40, n=(2, 5, 12, 30)[seed % 4], lam=1.0, e_p=0.3,
                                   seed=seed)).problem
        sol = solve_stls(p)
        problems.append((p, sol, kappa_f2(sol, p.A).absolute))
    runs, failures = 1000, 0
    for seed in range(runs):
        p, sol, exact = problems[seed % len(problems)]
        beta = pce(sol, p.A, PceConfig(eps=eps, theta=10.0, seed=seed)).diagnostics["beta"]
        failures += beta < exact * (1.0 - 1e-12)
    assert failures <= _binomial_upper(runs, eps)


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


def test_pce_reports_lanczos_depth(gen_problem, monkeypatch):
    # iterations is the number of bidiagonalization steps: one product
    # with the operator each
    p, sol = gen_problem(60, 40, 5.0, 0.1, 6)
    calls = []

    def counted(sol, msolve=None):
        op = _f2_operator(sol, msolve)

        def matvec(v):
            calls.append(1)
            return op.matvec(v)

        return SimpleNamespace(**{**vars(op), "matvec": matvec})

    monkeypatch.setattr(estimate, "_f2_operator", counted)
    rep = pce(sol, p.A, PceConfig(seed=2))
    assert rep.diagnostics["iterations"] == len(calls) >= 1


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


@pytest.mark.parametrize("seed", [1, 3])
def test_sce_median_ratio_is_near_one(seed):
    # Gaussian probes are uniform on the sphere in any basis, as the Wallis
    # factors assume; probes of uniform(0, 1) entries lean toward
    # (1, ..., 1)/sqrt(n), and their median ratios read 1.174 and 0.813 here
    p = generate(GeneratorSpec(m=120, n=60, lam=1.0, e_p=1e-2, seed=seed)).problem
    sol = solve_stls(p)
    exact_value = kappa_f2(sol, p.A).absolute
    ratios = [sce(sol, p.A, SceConfig(k=3, seed=s)).absolute / exact_value for s in range(300)]
    assert 0.88 <= np.median(ratios) <= 1.0


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
    for bad in (math.inf, math.nan, 10**400):
        with pytest.raises(ValueError):
            PowerConfig(tol=bad)
        with pytest.raises(ValueError):
            PceConfig(theta=bad)
        with pytest.raises(ValueError):
            PceConfig(eps=bad)
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
        "relative": lambda: relative_from_absolute(sol, 1.0),
    }
    for name, call in calls.items():
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < p.A.nbytes / 4, (name, peak / p.A.nbytes)


def _six_kappas(p):
    sol = solve_stls(p)
    configs = {"power": PowerConfig(seed=1), "pce": PceConfig(seed=2),
               "sce": SceConfig(k=min(3, p.n), seed=3)}
    return sol, np.array([METHODS[name](sol, p.A, configs).absolute for name in METHODS])


def _exponent(value):
    return math.frexp(value)[1]


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 6),
    extra=st.integers(1, 6),
    lam=st.floats(0.05, 20.0),
    e_p=st.floats(1e-3, 0.9),
    t=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_method_is_unit_free(n, extra, lam, e_p, t, seed):
    # (A, b) -> 2**k (A, b) is exact, keeps x and divides kappa by 2**k.
    # The scales run from the lowest k at which 2**k (A, b) has no
    # subnormal entry to the highest at which its Frobenius norm is below
    # 2**1020 (above that LAPACK's QR guards its column norms against
    # overflow and rounds differently), both ends included, as far as
    # 2**-k kappa is a normal double
    p = generate(GeneratorSpec(m=n + extra, n=n, lam=lam, e_p=e_p, seed=seed)).problem
    try:
        sol, kappas = _six_kappas(p)
    except StlsError:
        assume(False)
    data = np.abs(np.r_[p.A.ravel(), p.b])
    products = _packed_products(p, sol, 1.0)
    k_lo = max(-1021 - _exponent(data[data > 0].min()), _exponent(kappas.max()) - 1020)
    k_hi = min(1020 - _exponent(np.linalg.norm(data)), _exponent(kappas.min()) + 1021)
    for k in {k_lo, k_hi, k_lo + round(t * (k_hi - k_lo))}:
        sol_k, kappas_k = _six_kappas(StlsProblem(np.ldexp(p.A, k), np.ldexp(p.b, k), lam))
        assert np.linalg.norm(sol_k.x - sol.x) <= 1e-13 * np.linalg.norm(sol.x), k
        assert np.all(np.abs(np.ldexp(kappas_k, k) - kappas) <= 1e-13 * kappas), k
        for got, want in zip(_packed_products(p, sol_k, 2.0**k), products):
            assert _close(got, want), k


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 6),
    extra=st.integers(1, 6),
    lam=st.floats(0.05, 20.0),
    e_p=st.floats(1e-3, 0.9),
    c=st.sampled_from([3.0, 0.7, 10.0, 1e100 / 7, 3e-100]),
    seed=st.integers(0, 2**32 - 1),
)
def test_power_sweep_count_is_unit_free(n, extra, lam, e_p, c, seed):
    # (A, b) -> c (A, b) with c not a power of two rounds the data, so the
    # core differs in its last bits, yet the stop is on a relative change
    # and power takes the same number of sweeps
    p = generate(GeneratorSpec(m=n + extra, n=n, lam=lam, e_p=e_p, seed=seed)).problem
    cfg = PowerConfig(seed=1)
    try:
        rep = power_method(solve_stls(p), p.A, cfg)
        pc = StlsProblem(p.A * c, p.b * c, lam)
        rep_c = power_method(solve_stls(pc), pc.A, cfg)
    except StlsError:
        assume(False)
    assert rep_c.diagnostics["iterations"] == rep.diagnostics["iterations"]
    assert rep_c.diagnostics["converged"] == rep.diagnostics["converged"]


def _packed_products(p, sol, c):
    """apply_KT, apply_K and build_K_dense on the data of ``sol``, which is
    c times that of ``p``, with operands drawn from a fixed seed: y has no
    units and the perturbation P is c times its draw, so K'y and K are 1/c
    times their values on ``p`` and KP is the same."""
    rng = np.random.default_rng(5)
    y, P = rng.standard_normal(p.n), rng.standard_normal((p.m, p.n + 1))
    A = sol.problem.A
    return [apply_KT(sol, A, y) * c, apply_K(sol, A, P * c), build_K_dense(sol, A) * c]


def _close(a, b, tol=1e-13):
    return np.linalg.norm(a - b) <= tol * np.linalg.norm(b)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_packed_products_hold_beyond_1e154(gen_problem, scale):
    # the data's M, 4**e times the core's, and ||r||**2 leave the double
    # range there; the products solve with the core's M instead
    p, sol = gen_problem(12, 5, 1.0, 0.1, 0)
    scaled = StlsProblem(scale * p.A, scale * p.b, p.lam)
    for got, want in zip(_packed_products(p, solve_stls(scaled), scale),
                         _packed_products(p, sol, 1.0)):
        assert _close(got, want)


def test_packed_products_leaving_the_double_range_raise(gen_problem):
    # data scaled down 2**1008 to 2**1016 times, with |x| < 1: K'y and K,
    # 2**-k times their values on the core, reach the top of the double
    # range there; each is returned finite or refused, never inf or NaN
    p, sol = gen_problem(12, 5, 1.0, 1e-3, 0)
    assert np.abs(sol.x).max() < 1.0
    y = np.random.default_rng(5).standard_normal(p.n)
    for k in range(-1008, -1017, -1):
        sol_k = solve_stls(StlsProblem(np.ldexp(p.A, k), np.ldexp(p.b, k), p.lam))
        A = sol_k.problem.A
        for product in (lambda: apply_KT(sol_k, A, y), lambda: build_K_dense(sol_k, A)):
            try:
                assert np.isfinite(product()).all(), k
            except NonFiniteError:
                pass
    for product in (lambda: apply_KT(sol_k, A, y), lambda: build_K_dense(sol_k, A)):
        with pytest.raises(NonFiniteError):
            product()


def test_the_qr_is_the_last_pass_over_the_data(gen_problem):
    # the six methods and the relative condition number read the solution
    # alone, so data overwritten after the solve changes none of their values
    p, sol = gen_problem(60, 12, 1.0, 0.1, 7)
    configs = {"power": PowerConfig(seed=1), "pce": PceConfig(seed=1), "sce": SceConfig(seed=1)}

    def values():
        reports = [METHODS[name](sol, p.A, configs) for name in METHODS]
        return [rep.absolute for rep in reports] + [relative_from_absolute(sol, 1.0)]

    before = values()
    p.A[:] = np.nan
    p.b[:] = np.nan
    assert values() == before


# ---------------------------------------------------------------------------
# the bases U and V: applied in factored form, never formed
# ---------------------------------------------------------------------------

def _solve_and_evaluate(p):
    sol = solve_stls(p)
    values = [sol.sigma_np1, sol.genericity_gap, kappa_f1(sol, p.A).absolute,
              kappa_f2(sol, p.A).absolute,
              power_method(sol, p.A, PowerConfig(tol=1e-14, seed=2)).absolute,
              pce(sol, p.A, PceConfig(theta=1e-3, seed=2)).absolute,
              sce(sol, p.A, SceConfig(k=4, seed=2)).absolute]
    return sol.x, np.array(values)


@pytest.mark.parametrize("route", ["no LAPACKE", "dbdsdc fails"])
def test_svd_routes_give_the_same_values(route, monkeypatch):
    # without numpy's OpenBLAS, the solution's SVD wraps numpy's explicit U
    # and V; when dbdsdc does not converge, gesvd's.  Each basis differs
    # from the factored one in its signs and last bits only
    real = numerics._openblas()
    if real is None:
        pytest.skip("numpy ships no scipy_openblas library here")
    p = generate(GeneratorSpec(m=90, n=40, lam=2.0, e_p=0.1, seed=4)).problem
    x_ref, ref = _solve_and_evaluate(p)
    if route == "no LAPACKE":
        monkeypatch.setattr(numerics, "_openblas", lambda: None)
    else:
        failing = SimpleNamespace(**vars(real))
        failing.dbdsdc = lambda *args: 1
        monkeypatch.setattr(numerics, "_openblas", lambda: failing)
    x, values = _solve_and_evaluate(p)
    assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)
    assert np.all(np.abs(values - ref) <= 1e-12 * np.abs(ref)), (values - ref) / ref


@pytest.mark.skipif(numerics._openblas() is None,
                    reason="numpy ships no scipy_openblas library here")
@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 40),
    extra=st.integers(1, 40),
    lam=st.floats(-2.0, 2.0).map(lambda t: 10.0**t),
    e_p=st.floats(-10.0, -0.1).map(lambda t: 10.0**t),
    seed=st.integers(0, 2**31 - 1),
)
def test_the_fallback_platform_gives_the_same_values(n, extra, lam, e_p, seed):
    # where numpy ships no scipy_openblas, every kernel takes its fallback at
    # once: numpy's QR, numpy's explicit U and V, and scipy's dlasd4.  Both
    # QRs are backward stable, so they differ by a data perturbation of order
    # u, which moves x and every kappa by up to about kappa_rel u (1.1 at
    # most over 900 draws from these ranges)
    p = generate(GeneratorSpec(m=n + extra, n=n, lam=lam, e_p=e_p, seed=seed)).problem
    configs = {"power": PowerConfig(seed=2), "pce": PceConfig(seed=2),
               "sce": SceConfig(k=min(3, n), seed=2)}

    def evaluate():
        sol = solve_stls(p)
        return sol, {name: METHODS[name](sol, p.A, configs).absolute for name in METHODS}

    try:
        ref_sol, ref = evaluate()
    except StlsError:
        assume(False)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerics, "_openblas", lambda: None)
        sol, values = evaluate()
    tol = max(1e-12, 10.0 * relative_from_absolute(ref_sol, ref["f2"]) * np.finfo(float).eps)
    assert np.linalg.norm(sol.x - ref_sol.x) <= tol * np.linalg.norm(ref_sol.x)
    for name in METHODS:
        assert abs(values[name] - ref[name]) <= tol * ref[name], name
