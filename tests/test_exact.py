"""Exact condition-number tests.

The three routes check each other; the operator itself is checked against a
finite-difference oracle that re-solves perturbed problems from scratch.
"""

import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stlscond import (
    ConditionReport,
    FactoredSvd,
    GeneratorSpec,
    MemoryBudgetError,
    RankDeficientError,
    StlsProblem,
    StlsError,
    StlsSolution,
    ZeroResidualError,
    ZeroSolutionError,
    build_K_dense,
    generate,
    kappa_f1,
    kappa_f2,
    kappa_kron,
    kappa_ols,
    kappa_tls_bg,
    relative_from_absolute,
    save_problem,
    solve_stls,
)
from stlscond import bench, cli, exact, numerics

KAPPA_DIAGONAL = np.sqrt(20.0 / 9.0)  # = sqrt(1.25)/0.75 = 1.4907119849998598


def fd_quotient(p, sol, dA, db, t=1e-7):
    """Finite-difference response of the solution along (dA, db)."""
    perturbed = StlsProblem(p.A + t * dA, p.b + t * db, p.lam)
    return (solve_stls(perturbed).x - sol.x) / t


def unpack_direction(dvec, m, n):
    """Split a stacked direction into (dA, db) using column-major vec."""
    dA = dvec[: m * n].reshape((m, n), order="F")
    db = dvec[m * n :]
    return dA, db


def test_build_K_shape(gen_problem):
    p, sol = gen_problem(5, 3, 1.0, 0.3, 0)
    assert build_K_dense(sol, p.A).shape == (3, 20)


def test_diagonal_gram_of_K(diagonal_problem, diagonal_solution):
    K = build_K_dense(diagonal_solution, diagonal_problem.A)
    assert np.allclose(K @ K.T, np.diag([68.0 / 225.0, 20.0 / 9.0]), atol=1e-14)


def test_kappa_diagonal_all_forms(diagonal_problem, diagonal_solution):
    A = diagonal_problem.A
    for rep in (
        kappa_kron(diagonal_solution, A),
        kappa_f1(diagonal_solution, A),
        kappa_f2(diagonal_solution, A),
        kappa_tls_bg(diagonal_solution),
    ):
        assert rep.absolute == pytest.approx(KAPPA_DIAGONAL, rel=1e-12)
    assert kappa_kron(diagonal_solution, A).method == "KRON"
    assert kappa_f2(diagonal_solution, A).method == "F2"


def test_f1_cross_terms_vanish_when_residual_orthogonal(diagonal_problem, diagonal_solution):
    # A'r = 0 here, so the middle matrix is (1+||x||^2) A'A + ||r||^2 I
    A = diagonal_problem.A
    sol = diagonal_solution
    reduced = (1.0 + sol.x @ sol.x) * (A.T @ A) + (sol.r @ sol.r) * np.eye(2)
    M = A.T @ A - sol.sigma_np1**2 * np.eye(2)
    E = np.linalg.solve(M, np.linalg.solve(M, reduced).T)
    expected = np.sqrt(np.linalg.norm(E, 2))
    assert kappa_f1(sol, A).absolute == pytest.approx(expected, rel=1e-13)


def test_f2_factor_shape(gen_problem):
    p, sol = gen_problem(5, 3, 1.0, 0.3, 1)
    # W lives on the 4 x 3 compressed problem, reduced to n x (n+1)
    op = exact._f2_operator(sol)
    assert op.shape == (3, 4)
    assert op.rmatmat(np.eye(3)).shape == (4, 3)


def dense_referee(sol):
    """kappa_f1 and kappa_f2 by the dense routes the O(n) ones replaced:
    eigvalsh of the n x n rotated f1 matrix, and the largest singular value
    of the unreduced n x (3n+2) W, rotated into the bases of M's
    eigenvectors and the core's singular vectors,

        D^-1 [[S, 0], ||x|| ([S, 0] - g r1'/||r||^2), ||r|| I - g h'/||r||].

    Both are formed in the core's units and returned in the data's."""
    h, r_t, rn2, g = exact._rotated(sol)
    d, s = sol.d, sol.svd.s
    n = len(d)
    E = np.outer(g, -h)
    E += E.T
    E[np.diag_indices_from(E)] += (1.0 + float(h @ h)) * s ** 2 + rn2
    E /= np.outer(d, d)
    f1 = float(np.sqrt(np.linalg.eigvalsh(E)[-1]))
    xn, rn = float(np.linalg.norm(h)), float(np.sqrt(rn2))
    S0 = np.hstack([np.diag(s), np.zeros((n, 1))])
    W = np.hstack([S0, xn * (S0 - np.outer(g, r_t) / rn2),
                   rn * np.eye(n) - np.outer(g, h) / rn]) / d[:, None]
    assert W.shape == (n, 3 * n + 2)
    f2 = float(numerics.singular_values(W)[0])
    return float(np.ldexp(f1, -sol.e)), float(np.ldexp(f2, -sol.e))


@pytest.mark.parametrize("e_p", [1e-2, 1e-4, 1e-6, 1e-8, 1e-10])
@pytest.mark.parametrize("lam", [0.05, 1.0, 5.0])
def test_forms_match_dense_referee(gen_problem, e_p, lam):
    for m, n, seed in ((12, 6, 0), (40, 25, 1), (40, 25, 2)):
        p, sol = gen_problem(m, n, lam, e_p, seed)
        f1, f2 = dense_referee(sol)
        assert kappa_f1(sol, p.A).absolute == pytest.approx(f1, rel=1e-12, abs=0.0)
        assert kappa_f2(sol, p.A).absolute == pytest.approx(f2, rel=1e-12, abs=0.0)


def test_f1_f2_allocate_no_square_array(gen_problem):
    # 8 n^2 / 4 bytes: a quarter of one n x n array
    n = 300
    p, sol = gen_problem(400, n, 1.0, 0.1, 0)
    for form in (kappa_f1, kappa_f2):
        form(sol, p.A)
        tracemalloc.start()
        try:
            form(sol, p.A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n / 4, form.__name__


def test_forms_agree_on_generated_problems(gen_problem):
    cases = [
        # (m, n, lam, e_p, seed, tol): per-pair agreement tolerances
        (10, 6, 1.0, 0.1, 5, 1e-10),
        (10, 6, 5.0, 0.1, 5, 1e-10),
        (50, 30, 0.05, 0.001, 9, 1e-8),
        (50, 30, 5.0, 0.1, 2, 1e-9),
    ]
    for m, n, lam, e_p, seed, tol in cases:
        p, sol = gen_problem(m, n, lam, e_p, seed)
        k_kron = kappa_kron(sol, p.A).absolute
        k_f1 = kappa_f1(sol, p.A).absolute
        k_f2 = kappa_f2(sol, p.A).absolute
        assert abs(k_kron - k_f1) <= tol * k_kron
        assert abs(k_f1 - k_f2) <= tol * k_kron
        assert abs(k_kron - k_f2) <= tol * k_kron


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 6),
    extra=st.integers(1, 6),
    lam=st.floats(0.05, 20.0),
    e_p=st.floats(1e-3, 0.9),
    seed=st.integers(0, 2**32 - 1),
)
def test_three_forms_agree_property(n, extra, lam, e_p, seed):
    p = generate(GeneratorSpec(m=n + extra, n=n, lam=lam, e_p=e_p, seed=seed)).problem
    try:
        sol = solve_stls(p)
        k_kron = kappa_kron(sol, p.A).absolute
    except StlsError:
        assume(False)
    assert kappa_f1(sol, p.A).absolute == pytest.approx(k_kron, rel=1e-8)
    assert kappa_f2(sol, p.A).absolute == pytest.approx(k_kron, rel=1e-8)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 6),
    extra=st.integers(1, 6),
    lam=st.floats(0.05, 20.0),
    e_p=st.floats(1e-3, 0.9),
    c=st.floats(1e-3, 1e3),
    seed=st.integers(0, 2**32 - 1),
)
def test_scaling_property(n, extra, lam, e_p, c, seed):
    # (A, b) -> c (A, b) keeps x, scales sigma_np1 by c and the absolute
    # condition number by 1/c, and keeps the relative one.  Rounding c A is
    # a data perturbation of an ulp, bounded as in the orthogonal
    # invariance property of test_problem.py.
    p = generate(GeneratorSpec(m=n + extra, n=n, lam=lam, e_p=e_p, seed=seed)).problem
    scaled = StlsProblem(c * p.A, c * p.b, lam)
    try:
        sol = solve_stls(p)
        kappas = [f(sol, p.A).absolute for f in (kappa_kron, kappa_f1, kappa_f2)]
        ku = relative_from_absolute(sol, kappas[2]) * np.finfo(float).eps
    except StlsError:
        assume(False)
    sol_c = solve_stls(scaled)
    assert np.linalg.norm(sol_c.x - sol.x) <= (1e-8 + 100 * ku) * np.linalg.norm(sol.x)
    assert sol_c.sigma_np1 == pytest.approx(c * sol.sigma_np1, rel=1e-12)
    for f, k in zip((kappa_kron, kappa_f1, kappa_f2), kappas):
        k_c = f(sol_c, scaled.A).absolute
        assert k_c == pytest.approx(k / c, rel=1e-8 + 1e4 * ku)
        assert relative_from_absolute(sol_c, k_c) == pytest.approx(
            relative_from_absolute(sol, k), rel=1e-8 + 1e4 * ku)


def test_kron_over_budget_refused(gen_problem, tmp_path, monkeypatch, capsys):
    # K of a 20x13 problem takes 8*13*20*14 = 29120 bytes; kappa_kron builds
    # the K of its 14x13 compressed problem, 8*13*14*14 = 20384 bytes
    p, sol = gen_problem(20, 13, 1.0, 0.1, 5)
    path = tmp_path / "p.json"
    save_problem(p, path)
    monkeypatch.setattr(exact, "KRON_BUDGET_BYTES", 20383)
    with pytest.raises(MemoryBudgetError):
        kappa_kron(sol, p.A)
    assert np.isnan(bench._measure("kron", sol, {})[0])
    assert cli.main(["cond", "--in", str(path), "--method", "kron"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "budget" in err
    # all skips kron, with the reason, and prints the other five methods
    assert cli.main(["cond", "--in", str(path), "--method", "all"]) == 0
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert [rep["method"] for rep in doc["reports"]] == ["F1", "F2", "POWER", "PCE", "SCE"]
    assert set(doc["ratios"]) == {"ratio1", "ratio2", "ratio3"}
    assert list(doc["skipped"]) == ["kron"] and "budget" in doc["skipped"]["kron"]
    assert err.startswith("stlscond: skipped kron:") and err.count("\n") == 1
    monkeypatch.setattr(exact, "KRON_BUDGET_BYTES", 20384)
    assert np.isfinite(kappa_kron(sol, p.A).absolute)
    monkeypatch.setattr(exact, "KRON_BUDGET_BYTES", 29119)
    with pytest.raises(MemoryBudgetError):
        build_K_dense(sol, p.A)
    monkeypatch.setattr(exact, "KRON_BUDGET_BYTES", 29120)
    assert build_K_dense(sol, p.A).shape == (13, 280)


def test_kron_peak_memory_is_about_K(gen_problem):
    # tracemalloc sees numpy's arrays but not LAPACK's work space, so it
    # bounds what the Python side allocates next to K
    m, n = 200, 150
    p, sol = gen_problem(m, n, 1.0, 0.1, 0)
    k_bytes = 8 * n * (n + 1) ** 2
    tracemalloc.start()
    try:
        kappa_kron(sol, p.A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * k_bytes


_KRON_RSS_SCRIPT = """
from stlscond import GeneratorSpec, generate, kappa_kron, solve_stls
def status_kib(field):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith(field))
small = generate(GeneratorSpec(m=12, n=8, lam=1.0, e_p=0.1, seed=0)).problem
kappa_kron(solve_stls(small), small.A)
p = generate(GeneratorSpec(m=200, n=150, lam=1.0, e_p=0.1, seed=0)).problem
sol = solve_stls(p)
rss = status_kib("VmRSS:")
kappa_kron(sol, p.A)
print((status_kib("VmHWM:") - rss) * 1024 / (8 * 150 * 151**2))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_kron_peak_rss_is_about_K():
    # the whole process, LAPACK included: an SVD of K copied it (2.2 K);
    # the Gram route reads about 1.05 K.  VmHWM, unlike ru_maxrss, starts
    # afresh at exec, so the parent's size does not leak into the reading;
    # a warm-up call maps the library code the measured call runs
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    r = subprocess.run([sys.executable, "-c", _KRON_RSS_SCRIPT], capture_output=True,
                       text=True, env=env, check=True)
    assert float(r.stdout) <= 1.5


def test_operator_against_finite_differences(gen_problem):
    p, sol = gen_problem(10, 6, 1.0, 0.1, 4)
    K = build_K_dense(sol, p.A)
    rng = np.random.default_rng(17)
    dim = p.m * (p.n + 1)
    for _ in range(20):
        dvec = rng.standard_normal(dim)
        dvec /= np.linalg.norm(dvec)
        predicted = K @ dvec
        observed = fd_quotient(p, sol, *unpack_direction(dvec, p.m, p.n))
        assert np.linalg.norm(predicted - observed) <= 1e-5 * np.linalg.norm(predicted)


def test_top_direction_attains_condition_number(gen_problem):
    p, sol = gen_problem(12, 8, 1.0, 0.1, 21)
    K = build_K_dense(sol, p.A)
    _, s, Vt = np.linalg.svd(K, full_matrices=False)
    kappa = s[0]
    observed = fd_quotient(p, sol, *unpack_direction(Vt[0], p.m, p.n))
    assert np.linalg.norm(observed) == pytest.approx(kappa, rel=1e-3)


def test_zero_residual_rejected():
    # consistent system: b in range(A), so sigma_{n+1} = 0 and r = 0
    rng = np.random.default_rng(2)
    A = rng.standard_normal((8, 4))
    b = A @ rng.standard_normal(4)
    p = StlsProblem(A, b, 1.0)
    sol = solve_stls(p)
    assert np.linalg.norm(sol.r) <= 1e-10
    for fn in (build_K_dense, kappa_kron, kappa_f1, kappa_f2):
        with pytest.raises(ZeroResidualError):
            fn(sol, A)


def test_relative_matches_direct_recomputation(gen_problem):
    p, sol = gen_problem(20, 10, 1.0, 0.1, 4)
    absolute = kappa_f2(sol, p.A).absolute
    rel = relative_from_absolute(sol, absolute)
    expected = absolute * np.linalg.norm(p.augmented(), "fro") / np.linalg.norm(sol.x)
    assert rel == pytest.approx(expected, rel=1e-14)


def test_relative_arithmetic_identity():
    # ||[A, lam*b]||_F = 3, ||x|| = 6, absolute = 2 -> relative = 1, with
    # the core in units of 2**-2 of the data's: A_c = A / 4
    p = StlsProblem(np.array([[3.0], [0.0]]), np.zeros(2), 1.0)
    core = StlsProblem(p.A / 4.0, p.b, p.lam)
    sol = StlsSolution(
        x=np.array([6.0]),
        problem=p,
        e=2,
        sigma=0.0,
        d=np.ones(1),
        gap=0.75,
        core=core,
        svd=FactoredSvd.explicit(np.eye(1), np.array([0.75]), np.eye(1)),
        c=np.zeros(1),
    )
    assert sol.s_hat[0] == sol.genericity_gap == 3.0
    assert relative_from_absolute(sol, 2.0) == pytest.approx(1.0, abs=1e-15)


def test_relative_zero_solution_rejected(diagonal_solution):
    with pytest.raises(ZeroSolutionError):
        relative_from_absolute(diagonal_solution, 1.0)


def test_tls_gram_form_requires_unit_scale(gen_problem):
    _, sol = gen_problem(8, 4, 2.0, 0.2, 3)
    with pytest.raises(ValueError):
        kappa_tls_bg(sol)


def test_tls_gram_form_matches_other_routes(gen_problem):
    p, sol = gen_problem(10, 6, 1.0, 0.1, 8)
    k_f1 = kappa_f1(sol, p.A).absolute
    k_bg = kappa_tls_bg(sol).absolute
    assert abs(k_bg - k_f1) <= 1e-9 * k_f1

    p2, sol2 = gen_problem(10, 6, 1.0, 0.001, 8)
    k_kron = kappa_kron(sol2, p2.A).absolute
    k_bg2 = kappa_tls_bg(sol2).absolute
    assert abs(k_bg2 - k_kron) <= 1e-8 * k_kron


def test_ols_orthonormal_fixture():
    A = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    b = np.array([1.0, 1.0, 1.0])
    for form in ("f1", "f2", "kron"):
        assert kappa_ols(A, b, form).absolute == pytest.approx(2.0, abs=1e-12)
    assert kappa_ols(A, b, "f1").method == "OLS_F1"
    assert kappa_ols(A, b, "kron").method == "OLS_KRON"


def test_ols_consistent_system():
    # b in range(A) with orthonormal columns: kappa = sqrt(1 + ||x||^2)
    A = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    b = np.array([1.0, 2.0, 0.0])
    expected = np.sqrt(1.0 + 5.0)
    assert kappa_ols(A, b, "f1").absolute == pytest.approx(expected, rel=1e-13)


def test_ols_forms_agree_random():
    rng = np.random.default_rng(10)
    A = rng.standard_normal((10, 4))
    b = rng.standard_normal(10)
    values = [kappa_ols(A, b, form).absolute for form in ("f1", "f2", "kron")]
    assert abs(values[0] - values[1]) <= 1e-10 * values[0]
    assert abs(values[1] - values[2]) <= 1e-10 * values[0]


def test_ols_rank_deficient_rejected():
    A = np.ones((5, 2))
    with pytest.raises(RankDeficientError):
        kappa_ols(A, np.ones(5), "f1")


def test_report_serialization_roundtrip(gen_problem):
    p, sol = gen_problem(8, 4, 1.0, 0.2, 12)
    rep = kappa_f2(sol, p.A)
    rep.relative = relative_from_absolute(sol, rep.absolute)
    doc = json.loads(rep.to_json())
    assert doc["method"] == "F2"
    assert doc["absolute"] == rep.absolute
    assert doc["relative"] == rep.relative
    # relative consistency contract
    assert rep.relative == pytest.approx(
        rep.absolute * np.linalg.norm(p.augmented(), "fro") / np.linalg.norm(sol.x),
        rel=1e-14,
    )
    assert isinstance(rep, ConditionReport)
