"""Solver and uniqueness-check tests; the two routes validate each other."""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stlscond import (
    ConvergenceError,
    DegenerateSingularVectorError,
    GeneratorSpec,
    NongenericProblemError,
    NonFiniteError,
    ProblemFormatError,
    StlsError,
    StlsProblem,
    check_genericity,
    generate,
    kappa_f2,
    load_problem,
    relative_from_absolute,
    save_problem,
    solve_stls,
    solve_stls_svd,
)
from stlscond import numerics


def exact_solution(spec, reflectors):
    """The solution the generator built in: the trailing right singular
    vector of [A, lam*b] = Y [D; 0] Z' is v = Z e_{n+1} = e_{n+1} - 2 z z_{n+1}
    with z the right reflector, so x = -v[:n] / (lam v[n]) exactly;
    ``reflectors`` is the ``generator_reflectors`` fixture."""
    _, z = reflectors(spec)
    n = spec.n
    v = -2.0 * z[n] * z
    v[n] += 1.0
    return -v[:n] / (spec.lam * v[n])


def test_validation_rejects_bad_inputs():
    with pytest.raises(ValueError):
        StlsProblem(np.eye(3), np.ones(3), 1.0)  # needs m > n
    with pytest.raises(ValueError):
        StlsProblem(np.ones((3, 1)), np.ones(2), 1.0)
    with pytest.raises(ValueError):
        StlsProblem(np.ones((3, 1)), np.ones(3), -1.0)
    with pytest.raises(ValueError):
        StlsProblem(np.array([[np.inf], [1.0], [0.0]]), np.ones(3), 1.0)


def test_check_genericity_orthogonal_columns_tie():
    p = StlsProblem(np.array([[1.0], [0.0]]), np.array([0.0, 1.0]), 1.0)
    s_hat, s_aug, gap = check_genericity(p)
    assert s_hat == pytest.approx(1.0, abs=1e-15)
    assert s_aug == pytest.approx(1.0, abs=1e-15)
    assert gap == pytest.approx(0.0, abs=1e-15)


def test_check_genericity_block_diagonal(diagonal_problem):
    s_hat, s_aug, gap = check_genericity(diagonal_problem)
    assert s_hat == pytest.approx(1.0, abs=1e-15)
    assert s_aug == pytest.approx(0.5, abs=1e-15)
    assert gap == pytest.approx(0.5, abs=1e-15)


def test_check_genericity_generated_gap_within_construction_bound():
    gp = generate(GeneratorSpec(m=5, n=3, lam=1.0, e_p=0.1, seed=0))
    _, _, gap = check_genericity(gp.problem)
    # interlacing bounds the gap by the constructed spectral gap
    assert 0.0 < gap <= 0.1 + 1e-12


def test_solve_diagonal_fixture(diagonal_problem):
    sol = solve_stls(diagonal_problem)
    assert sol.sigma_np1 == pytest.approx(0.5, abs=1e-15)
    assert sol.sigma_hat_n == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(sol.x, [0.0, 0.0], atol=1e-15)
    assert np.allclose(sol.r, [0.0, 0.0, -0.5], atol=1e-15)
    # M = A'A - sigma_np1**2 I = diag(3.75, 0.75), and d holds its eigenvalues
    M = diagonal_problem.A.T @ diagonal_problem.A - sol.sigma_np1**2 * np.eye(2)
    assert np.allclose(M, np.diag([3.75, 0.75]), rtol=1e-14)
    assert np.allclose(np.sort(np.ldexp(sol.d, 2 * sol.e)), [0.75, 3.75], rtol=1e-14)
    assert not sol.ill_posed


def test_solve_nongeneric_raises():
    p = StlsProblem(np.array([[1.0], [0.0]]), np.array([0.0, 1.0]), 1.0)
    with pytest.raises(NongenericProblemError):
        solve_stls(p)
    with pytest.raises(NongenericProblemError):
        solve_stls_svd(p)


def test_residual_beyond_the_double_range_is_refused():
    # the data's Frobenius norm is below 2**1020, but x = 21.4 and the
    # residual 2**e ||r_c|| is beyond the largest double: r overflowed in
    # A @ x and came back as inf
    p = generate(GeneratorSpec(m=4, n=1, lam=5.247422849999433, e_p=0.0647083625933468,
                               seed=2677868109)).problem
    sol = solve_stls(StlsProblem(np.ldexp(p.A, 1020), np.ldexp(p.b, 1020), p.lam))
    with pytest.raises(NonFiniteError):
        sol.r
    sol = solve_stls(p)
    assert np.array_equal(sol.r, p.A @ sol.x - p.b)


def test_solution_invariants_on_generated_problems():
    for seed in range(5):
        gp = generate(GeneratorSpec(m=12, n=7, lam=2.0, e_p=0.2, seed=seed))
        p = gp.problem
        sol = solve_stls(p)
        scale = np.linalg.norm(p.A) * np.linalg.norm(sol.x) + np.linalg.norm(p.b)
        assert np.linalg.norm(sol.r - (p.A @ sol.x - p.b)) <= 1e-12 * scale
        assert sol.genericity_gap > 0.0
        # normal-equation consistency: M x = A'b
        Mx = p.A.T @ (p.A @ sol.x) - sol.sigma_np1**2 * sol.x
        rhs = p.A.T @ p.b
        assert np.linalg.norm(Mx - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_route_equivalence_on_generated_problems():
    cases = [
        (30, 20, 5.0, 0.1, 7, 1e-9),
        (30, 20, 0.05, 0.001, 3, 1e-8),
        (10, 6, 1.0, 0.1, 0, 1e-9),
    ]
    for m, n, lam, e_p, seed, tol in cases:
        gp = generate(GeneratorSpec(m=m, n=n, lam=lam, e_p=e_p, seed=seed))
        sol = solve_stls(gp.problem)
        x_svd = solve_stls_svd(gp.problem)
        assert np.linalg.norm(sol.x - x_svd) <= tol * (1.0 + np.linalg.norm(sol.x))


@pytest.mark.parametrize("seed", range(5))
def test_solution_accuracy_against_generator_truth(seed, generator_reflectors):
    # near non-uniqueness (e_p = 1e-6) x solves M x = A'b in the exact
    # eigenbasis of M that the SVD of the compressed A gives, with d from
    # the secular root, never through a Gram product A'A
    spec = GeneratorSpec(m=300, n=100, lam=1.0, e_p=1e-6, seed=seed)
    x_true = exact_solution(spec, generator_reflectors)
    x = solve_stls(generate(spec).problem).x
    assert np.linalg.norm(x - x_true) <= 5e-8 * np.linalg.norm(x_true)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 30),
    extra=st.integers(1, 30),
    lam=st.floats(0.05, 20.0),
    e_p=st.sampled_from([1e-2, 1e-4, 1e-6, 1e-8]),
    seed=st.integers(0, 2**32 - 1),
)
def test_forward_error_within_condition_bound_property(generator_reflectors, n, extra, lam,
                                                       e_p, seed):
    # ||x - x_true|| / ||x_true|| <= c kappa_rel u against generator truth.
    # The largest ratio over 3000 draws from these ranges was 1.5 (3.9
    # with x from the singular vector of [A, lam*b]); c = 10 allows
    # some margin above that.
    spec = GeneratorSpec(m=n + extra, n=n, lam=lam, e_p=e_p, seed=seed)
    p = generate(spec).problem
    try:
        sol = solve_stls(p)
        k_rel = relative_from_absolute(sol, kappa_f2(sol, p.A).absolute)
    except StlsError:
        assume(False)
    x_true = exact_solution(spec, generator_reflectors)
    err = np.linalg.norm(sol.x - x_true) / np.linalg.norm(x_true)
    assert err <= 10.0 * k_rel * np.finfo(float).eps


def test_sigma_matches_svd_with_small_residual():
    # b = A x0 + 1e-10 noise: sigma_np1 is about 1e-10 of ||A||, which the
    # secular root keeps to full relative accuracy
    for seed in range(5):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((60, 20))
        b = A @ rng.standard_normal(20) + 1e-10 * rng.standard_normal(60)
        p = StlsProblem(A, b, 1.0)
        sigma_svd = check_genericity(p)[1]
        assert sigma_svd < 1e-9
        assert solve_stls(p).sigma_np1 == pytest.approx(sigma_svd, rel=1e-12)


@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e160, 1e300])
def test_solve_in_any_units(scale):
    # the secular equation runs on squares scaled by a power of two, so data
    # anywhere in the double range solves to the same x; unscaled, the
    # squares overflowed above 1e154 and divided by an underflowed zero
    # below 1e-162
    p = generate(GeneratorSpec(m=6, n=3, lam=1.5, e_p=0.1, seed=0)).problem
    sol = solve_stls(p)
    scaled = solve_stls(StlsProblem(scale * p.A, scale * p.b, p.lam))
    assert np.allclose(scaled.x, sol.x, rtol=1e-13, atol=0.0)
    assert scaled.sigma_np1 == pytest.approx(scale * sol.sigma_np1, rel=1e-13)
    assert scaled.genericity_gap == pytest.approx(scale * sol.genericity_gap, rel=1e-12)


def test_solve_refuses_scales_beyond_the_double_range():
    # lam b 1e300 times larger than A: A's singular values squared, in the
    # data's scale, underflow
    p = generate(GeneratorSpec(m=6, n=3, lam=1.5, e_p=0.1, seed=0)).problem
    b = p.b.copy()
    b[0] = 1e300
    with pytest.raises(NonFiniteError):
        solve_stls(StlsProblem(p.A, b, p.lam))


def test_secular_root_iteration_cap(monkeypatch, dlasd4_failing):
    # dlasd4 reporting INFO > 0 (its iteration failed) raises ConvergenceError
    p = generate(GeneratorSpec(m=30, n=10, lam=1.0, e_p=0.1, seed=0)).problem
    solve_stls(p)
    monkeypatch.setattr(numerics, "dlasd4", dlasd4_failing)
    with pytest.raises(ConvergenceError):
        solve_stls(p)


def _secular_errors(p):
    """The errors of solve_stls's gap and d = s**2 - sigma**2 against a
    50-digit root of the secular equation on the same double inputs of the
    core, s, z = lam c and z0 = lam R22, relative and in units of
    u s_n / gap."""
    mp = pytest.importorskip("mpmath")
    sol = solve_stls(p)
    with mp.workdps(50):
        s = [mp.mpf(float(v)) for v in sol.svd.s]
        z = [mp.mpf(float(v)) for v in p.lam * sol.c]
        z0 = mp.mpf(p.lam * float(sol.core.b[p.n]))
        sn = s[-1]

        def F(t):  # the secular function at sigma = s_n - t, decreasing in t
            sigma = sn - t
            return 1 - z0**2 / sigma**2 + sum(
                zi**2 / ((si - sn + t) * (si + sigma)) for si, zi in zip(s, z))

        lo, hi = mp.mpf(0), sn
        for _ in range(170):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if F(mid) > 0 else (lo, mid)
        gap = (lo + hi) / 2
        d = [(si - sn + gap) * (si + sn - gap) for si in s]
        unit = np.finfo(float).eps * float(sn / gap)
        gap_err = float(abs(sol.gap - gap) / gap) / unit
        d_err = max(float(abs(mp.mpf(float(a)) - b) / b) for a, b in zip(sol.d, d)) / unit
    return gap_err, d_err


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 12),
    extra=st.integers(1, 39),
    lam=st.floats(-3.0, 3.0).map(lambda t: 10.0**t),
    e_p=st.floats(-15.0, -0.1).map(lambda t: 10.0**t),
    seed=st.integers(0, 2**31 - 1),
)
# the hand-written rational iteration that dlasd4 replaced erred by 12.6
# units in both on this problem
@example(n=12, extra=25, lam=0.022437712796056386, e_p=2.001471603498759e-07,
         seed=1350940708)
def test_secular_step_matches_a_50_digit_root(n, extra, lam, e_p, seed):
    p = generate(GeneratorSpec(m=n + extra, n=n, lam=lam, e_p=e_p, seed=seed)).problem
    try:
        gap_err, d_err = _secular_errors(p)
    except StlsError:
        assume(False)
    assert gap_err <= 8.0 and d_err <= 8.0, (gap_err, d_err)


def test_scipy_dlasd4_gives_the_same_solution(monkeypatch):
    # scipy's wrapper (where numpy ships no scipy_openblas) runs the same
    # routine: on the secular equations of 18 solves, the same bits
    if numerics._openblas() is None:
        pytest.skip("numpy ships no scipy_openblas library here")
    calls = []
    real = numerics.dlasd4

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(numerics, "dlasd4", spy)
    for lam in (0.5, 2.0, 8.0):
        for e_p in (1e-2, 1e-5, 1e-8):
            for seed in range(2):
                spec = GeneratorSpec(m=60, n=30, lam=lam, e_p=e_p, seed=seed)
                solve_stls(generate(spec).problem)
    monkeypatch.undo()
    assert len(calls) == 18
    ref = [numerics.dlasd4(*args) for args in calls]
    monkeypatch.setattr(numerics, "_openblas", lambda: None)
    for args, (delta, sigma, work, info) in zip(calls, ref):
        got = numerics.dlasd4(*args)
        assert np.array_equal(got[0], delta) and got[1] == sigma
        assert np.array_equal(got[2], work) and got[3] == info == 0


_DIAGONAL = np.vstack([np.diag([3.0, 2.0, 1.0]), np.zeros((2, 3))])
_RNG = np.random.default_rng(1)


@pytest.mark.parametrize("binding", ["ctypes", "scipy"])
@pytest.mark.parametrize("A, b", [
    # s_hat all 1: one pole of dlasd4
    (np.vstack([np.eye(4), np.zeros((3, 4))]), _RNG.standard_normal(7)),
    # c = U'R12 has an exact zero at s_hat_n, then at s_hat_1: no pole
    (_DIAGONAL, np.array([1.0, 1.0, 0.0, 0.5, 0.2])),
    (_DIAGONAL, np.array([0.0, 1.0, 1.0, 0.5, 0.2])),
    # consistent: R22 = 0, so sigma_np1 = 0 without dlasd4
    (_DIAGONAL, np.array([1.0, 1.0, 1.0, 0.0, 0.0])),
    # n = 1: dlasd4 hands two poles to dlasd5
    (_RNG.standard_normal((5, 1)), _RNG.standard_normal(5)),
], ids=["repeated", "zero-weight-last", "zero-weight-first", "consistent", "n1"])
def test_secular_deflation_matches_svd_route(A, b, binding, monkeypatch):
    if binding == "scipy":
        monkeypatch.setattr(numerics, "_openblas", lambda: None)
    p = StlsProblem(A, b, 1.0)
    sol = solve_stls(p)
    x = solve_stls_svd(p)
    s = np.linalg.svd(p.augmented(), compute_uv=False)
    assert np.linalg.norm(sol.x - x) <= 1e-14 * np.linalg.norm(x)
    assert sol.sigma_np1 == pytest.approx(s[-1], rel=1e-14, abs=1e-15)
    assert sol.genericity_gap == pytest.approx(sol.sigma_hat_n - s[-1], rel=1e-14)
    # M = A'A - sigma_np1**2 I is V diag(d 4**e) V', V the right singular vectors of A
    M = p.A.T @ p.A - sol.sigma_np1**2 * np.eye(p.n)
    d = np.ldexp(sol.d, 2 * sol.e)
    assert np.allclose(sol.svd.v((sol.svd.vt(M @ x).T / d).T), x, rtol=1e-13, atol=0.0)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 6),
    extra=st.integers(1, 6),
    lam=st.floats(0.05, 20.0),
    e_p=st.floats(1e-3, 0.9),
    seed=st.integers(0, 2**32 - 1),
)
def test_orthogonal_invariance_property(n, extra, lam, e_p, seed):
    # x and the condition number depend on [A, b] only through A'A, A'b and
    # ||b||, so an orthogonal Q applied to the data changes neither.  The
    # rounding of Q @ A is a data perturbation of a few ulps, which moves x
    # by up to ~10 kappa_rel u and kappa by up to ~1e3 kappa_rel u (largest
    # ratios over 12000 draws from these ranges, equal before compression);
    # the bounds allow ten times that on top of 1e-8.
    p = generate(GeneratorSpec(m=n + extra, n=n, lam=lam, e_p=e_p, seed=seed)).problem
    Q = np.linalg.qr(np.random.default_rng(seed).standard_normal((p.m, p.m)))[0]
    rotated = StlsProblem(Q @ p.A, Q @ p.b, lam)
    try:
        sol = solve_stls(p)
        k_f2 = kappa_f2(sol, p.A).absolute
        ku = relative_from_absolute(sol, k_f2) * np.finfo(float).eps
    except StlsError:
        assume(False)
    sol_q = solve_stls(rotated)
    assert np.linalg.norm(sol_q.x - sol.x) <= (1e-8 + 100 * ku) * np.linalg.norm(sol.x)
    assert kappa_f2(sol_q, rotated.A).absolute == pytest.approx(k_f2, rel=1e-8 + 1e4 * ku)


def test_scale_coherence():
    # solving with scale lam equals the lam=1 solve on [A, lam*b], divided by lam
    gp = generate(GeneratorSpec(m=9, n=5, lam=3.0, e_p=0.4, seed=1))
    p = gp.problem
    unscaled = StlsProblem(p.A, p.lam * p.b, 1.0)
    x_direct = solve_stls(p).x
    x_unscaled = solve_stls(unscaled).x / p.lam
    assert np.linalg.norm(x_direct - x_unscaled) <= 1e-12 * (1.0 + np.linalg.norm(x_direct))


def test_svd_route_zero_solution_fixture(diagonal_problem):
    A, b = diagonal_problem.A, diagonal_problem.b
    assert np.allclose(solve_stls_svd(diagonal_problem), [0.0, 0.0], atol=1e-14)
    # A'b = 0 keeps x = 0 for any scale that preserves uniqueness ...
    assert np.allclose(solve_stls_svd(StlsProblem(A, b, 1.9)), [0.0, 0.0], atol=1e-12)
    # ... but at lam = 2 this fixture loses uniqueness exactly (both smallest
    # singular values equal 1), so the solver must refuse
    with pytest.raises(NongenericProblemError):
        solve_stls_svd(StlsProblem(A, b, 2.0))


def test_positive_definiteness_tracks_gap(diagonal_problem):
    # generic fixture factorizes; the nongeneric one (gap exactly 0) is
    # rejected by the gap check before factorization
    sol = solve_stls(diagonal_problem)
    assert sol.genericity_gap > 0.0
    bad = StlsProblem(np.array([[1.0], [0.0]]), np.array([0.0, 1.0]), 1.0)
    with pytest.raises(NongenericProblemError):
        solve_stls(bad)
    # and the shifted Gram matrix of the nongeneric fixture really is not
    # positive definite: a zero gap means a zero pivot
    from stlscond import NotPositiveDefiniteError, SpdFactorization, check_genericity

    _, sigma_aug, _ = check_genericity(bad)
    M = bad.A.T @ bad.A - sigma_aug**2 * np.eye(1)
    with pytest.raises(NotPositiveDefiniteError):
        SpdFactorization.from_matrix(M)


def test_svd_route_degenerate_singular_vector():
    # the gap (2.5e-12) clears the 1e-12 tolerance, but the trailing right
    # singular vector of [A, b] is almost orthogonal to b (last component
    # 5e-15), so the singular-vector route refuses
    A = np.array([[1.0, 0.0], [0.0, 5e-6], [0.0, 0.0]])
    p = StlsProblem(A, np.array([0.0, 1e3, 1e6]), 1.0)
    assert check_genericity(p)[2] > 1e-12
    with pytest.raises(DegenerateSingularVectorError):
        solve_stls_svd(p)


def test_solve_refuses_a_degenerate_singular_vector():
    # the gap is clear, but the trailing right singular vector of the
    # scaled [A, b] ends in 4.7e-15, so no meaningful x exists
    p = StlsProblem(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]), np.array([1.0, 1.0, 1.0]),
                    1e14)
    with pytest.raises(DegenerateSingularVectorError, match="4.71"):
        solve_stls(p)


def test_ill_posed_flag_near_nongeneric():
    gp = generate(GeneratorSpec(m=6, n=3, lam=1.0, e_p=1e-9, seed=4))
    sol = solve_stls(gp.problem)
    assert sol.ill_posed
    assert 0.0 < sol.genericity_gap <= 1e-9 + 1e-15


def test_problem_json_roundtrip(tmp_path, diagonal_problem):
    path = tmp_path / "p.json"
    save_problem(diagonal_problem, path, provenance={"note": "fixture"})
    q = load_problem(path)
    assert np.array_equal(q.A, diagonal_problem.A)
    assert np.array_equal(q.b, diagonal_problem.b)
    assert q.lam == diagonal_problem.lam


def test_save_problem_refuses_a_file_over_the_load_budget(tmp_path, monkeypatch,
                                                          diagonal_problem):
    # load_problem would refuse the file; its bytes are made before the
    # path is opened, so the refusal leaves no file behind
    from stlscond import MemoryBudgetError, problem

    size = len(problem.problem_to_json(diagonal_problem))
    path = tmp_path / "p.json"
    monkeypatch.setattr(problem, "LOAD_BUDGET_BYTES", size - 1)
    with pytest.raises(MemoryBudgetError):
        save_problem(diagonal_problem, path)
    assert not path.exists()
    monkeypatch.setattr(problem, "LOAD_BUDGET_BYTES", size)
    save_problem(diagonal_problem, path)
    assert path.stat().st_size == size
    assert np.array_equal(load_problem(path).A, diagonal_problem.A)


@pytest.mark.parametrize("block", [1, 9, 27, 1 << 16])
def test_problem_to_json_joins_its_blocks_into_the_whole_document(monkeypatch, block):
    # A is spelled a block of rows at a time; the joined bytes are those of
    # the whole document spelled at once
    from pydantic_core import to_json

    from stlscond import problem

    monkeypatch.setattr(problem, "_WRITE_BLOCK_ENTRIES", block)
    spec = GeneratorSpec(m=40, n=9, lam=2.5, e_p=0.1, seed=3)
    gp = generate(spec)
    p = gp.problem
    whole = {"m": p.m, "n": p.n, "lambda": p.lam, "A": p.A.tolist(), "b": p.b.tolist()}
    for provenance in (None, gp.provenance(spec)):
        doc = whole if provenance is None else whole | {"provenance": provenance}
        assert problem.problem_to_json(p, provenance) == to_json(doc) + b"\n"


def test_problem_to_json_refuses_before_building_the_whole_file(monkeypatch):
    # the bytes are counted block by block, so a file over the budget is
    # refused with at most one block spelled past it
    import pydantic_core

    from stlscond import MemoryBudgetError, problem

    p = StlsProblem(np.full((40, 10), 1 / 3), np.ones(40), 1.0)
    budget = len(problem.problem_to_json(p)) // 2
    row = len(pydantic_core.to_json(p.A[0].tolist())) + 1  # and its comma
    to_json, spelled = pydantic_core.to_json, []

    def counting_to_json(value):
        spelled.append(value)
        return to_json(value)

    monkeypatch.setattr(pydantic_core, "to_json", counting_to_json)
    monkeypatch.setattr(problem, "_WRITE_BLOCK_ENTRIES", 10)  # a row a block
    monkeypatch.setattr(problem, "LOAD_BUDGET_BYTES", budget)
    with pytest.raises(MemoryBudgetError, match="load budget"):
        problem.problem_to_json(p)
    rows = len(spelled) - 2  # besides the header and b
    assert rows < p.m and (rows - 1) * row <= budget


def _load_doc(tmp_path, doc):
    """``load_problem`` of a file holding ``doc`` spelled by ``json.dumps``."""
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return load_problem(path)


def test_problem_json_rejects_dimension_mismatch(tmp_path):
    base = {"m": 3, "n": 1, "lambda": 1.0, "A": [[1.0], [0.0], [2.0]], "b": [0.0, 0.0, 1.0]}
    _load_doc(tmp_path, base)  # sanity: the honest document parses
    bad_rows = dict(base, A=[[1.0], [0.0]])
    with pytest.raises(ProblemFormatError):
        _load_doc(tmp_path, bad_rows)
    bad_cols = dict(base, A=[[1.0, 2.0], [0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ProblemFormatError):
        _load_doc(tmp_path, bad_cols)
    bad_b = dict(base, b=[0.0, 1.0])
    with pytest.raises(ProblemFormatError):
        _load_doc(tmp_path, bad_b)
    with pytest.raises(ProblemFormatError):
        _load_doc(tmp_path, {"m": 3, "n": 1})


@pytest.mark.parametrize("doc, message", [
    ({"A": [[1.0, 0.5], [0.0, 2.0], [1.0, 1.0], [0.3, "x"]]}, "A.3.1: Input should be a valid number"),
    ({"b": [1.0, 0.0, True, -1.0]}, "b.2: Input should be a valid number"),
    ({"m": 4.0}, "m: Input should be a valid integer"),
    ({"lambda": float("inf")}, "lambda: Input should be a finite number"),
])
def test_format_error_names_the_field_path(tmp_path, doc, message):
    # every fault of the schema leaves as one ProblemFormatError line, which
    # the CLI maps to exit 3, not as a ValueError that it would map to exit 2
    base = {"m": 4, "n": 2, "lambda": 1.5, "A": [[1.0, 0.5], [0.0, 2.0], [1.0, 1.0], [0.3, -1.0]],
            "b": [1.0, 0.0, 2.0, -1.0]}
    with pytest.raises(ProblemFormatError) as info:
        _load_doc(tmp_path, base | doc)  # inf is spelled Infinity
    assert str(info.value) == message
    assert not isinstance(info.value, ValueError)


@pytest.mark.parametrize("where", ["A", "b"])
def test_a_file_of_strings_makes_one_error_per_list(tmp_path, where):
    # each list stops at its first bad entry: 1e5 strings are one error
    # each, not 1e5 errors with a copy of every input
    m = 100_000
    doc = {"m": m, "n": 1, "lambda": 1.0, "A": [["x"]] * m, "b": ["x"] * m}
    if where == "b":
        doc["A"] = [[1.0]] * m
    path = tmp_path / "strings.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ProblemFormatError, match=rf"^{where}\.0") as info:
        load_problem(path)
    assert info.value.__cause__.error_count() <= 2


FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
     1.7976931348623157e308, -1.7976931348623157e308])
# halfway cases and literals beyond the last digit a double holds
HARD_LITERALS = [
    "-0", "-0e0", "1e-400", "-1e-400", "2.4703282292062328e-324", "2.4703282292062327e-324",
    "1.00000000000000011102230246251565404236316680908203125",
    "1.00000000000000011102230246251565404236316680908203126",
    "9007199254740993", "1.7976931348623158e308", "1E5", "1e+5",
]


@st.composite
def number_literals(draw):
    """A JSON number as a writer other than ``json.dumps`` may print it."""
    kind = draw(st.sampled_from(["repr", "17", "25", "int", "digits", "hard"]))
    if kind == "int":
        return str(draw(st.integers(-2**70, 2**70)))
    if kind == "digits":
        digits = draw(st.text("0123456789", min_size=17, max_size=25))
        sign = draw(st.sampled_from(["", "-"]))
        return f"{sign}{digits[0]}.{digits[1:]}e{draw(st.integers(-345, 290))}"
    if kind == "hard":
        return draw(st.sampled_from(HARD_LITERALS))
    x = draw(FINITE_FLOATS)
    return {"repr": repr(x), "17": f"{x:.16e}", "25": f"{x:.24e}"}[kind]


@st.composite
def problem_texts(draw):
    m = draw(st.integers(2, 6))
    n = draw(st.integers(1, m - 1))
    lam = draw(number_literals().filter(lambda t: float(t) > 0.0))
    rows = [f"[{', '.join(draw(number_literals()) for _ in range(n))}]" for _ in range(m)]
    b = ", ".join(draw(number_literals()) for _ in range(m))
    return f'{{"m": {m}, "n": {n}, "lambda": {lam}, "A": [{", ".join(rows)}], "b": [{b}]}}'


@settings(max_examples=300, deadline=None)
@given(text=problem_texts())
def test_load_problem_matches_the_json_module_bit_for_bit(text):
    # the oracle of the file parser: json.loads, then np.array(dtype=float)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        p = load_problem(path)
    doc = json.loads(text)
    assert p.A.tobytes() == np.array(doc["A"], dtype=float).tobytes()
    assert p.b.tobytes() == np.array(doc["b"], dtype=float).tobytes()
    assert np.float64(p.lam).tobytes() == np.float64(doc["lambda"]).tobytes()


# finite doubles a writer must spell exactly: subnormals, signed zeros, the
# ends of the range and integral values
WRITTEN_FLOATS = (FINITE_FLOATS | st.integers(-2**63, 2**63).map(float)
                  | st.floats(-1e-307, 1e-307, allow_subnormal=True))


@st.composite
def written_problems(draw):
    m = draw(st.integers(2, 6))
    n = draw(st.integers(1, m - 1))
    A = np.array(draw(st.lists(WRITTEN_FLOATS, min_size=m * n, max_size=m * n))).reshape(m, n)
    b = np.array(draw(st.lists(WRITTEN_FLOATS, min_size=m, max_size=m)))
    lam = draw(WRITTEN_FLOATS.filter(lambda v: v > 0.0))
    return StlsProblem(A, b, lam)


@settings(max_examples=300, deadline=None)
@given(p=written_problems())
def test_saved_problem_reads_back_bit_for_bit(p):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.json")
        save_problem(p, path, provenance={"note": "property"})
        q = load_problem(path)
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    for got in (q.A, np.array(doc["A"], dtype=float)):
        assert got.tobytes() == p.A.tobytes()
    for got in (q.b, np.array(doc["b"], dtype=float)):
        assert got.tobytes() == p.b.tobytes()
    for got in (q.lam, doc["lambda"]):
        assert np.float64(got).tobytes() == np.float64(p.lam).tobytes()
