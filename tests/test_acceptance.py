"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 7 is a qualitative timing-ordering property and is
non-gating: when the host machine does not show the expected ordering the
test reports the measured ratio and skips instead of failing the suite.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from stlscond import (
    GeneratorSpec,
    PceConfig,
    PowerConfig,
    SceConfig,
    StlsProblem,
    ZeroResidualError,
    ZeroSolutionError,
    build_K_dense,
    generate,
    kappa_f1,
    kappa_f2,
    kappa_kron,
    kappa_ols,
    kappa_tls_bg,
    pce,
    power_method,
    relative_from_absolute,
    save_problem,
    sce,
    solve_stls,
)
from stlscond.bench import run_timing_bench

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {num}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)


def _grid_problems():
    """Criterion-1 grid: sizes x scales x gaps x 10 seeds."""
    for m in (10, 30, 50):
        n = (2 * m) // 3
        for lam in (0.05, 1.0, 5.0):
            for e_p in (0.1, 0.001):
                for seed in range(10):
                    yield GeneratorSpec(m=m, n=n, lam=lam, e_p=e_p, seed=seed)


def test_criterion_1_three_form_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for spec in _grid_problems():
        gp = generate(spec)
        sol = solve_stls(gp.problem)
        values = [
            kappa_kron(sol, gp.problem.A).absolute,
            kappa_f1(sol, gp.problem.A).absolute,
            kappa_f2(sol, gp.problem.A).absolute,
        ]
        spread = (max(values) - min(values)) / min(values)
        worst = max(worst, spread)
        count += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 60.0
    _report(1, "three-form equivalence", ok,
            f"{count} problems, max spread {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed < 60.0


def test_criterion_2_finite_difference_validation():
    t = 1e-7
    rng = np.random.default_rng(2024)
    checked_random = 0
    worst_top = 0.0
    sizes = [8, 10, 12, 14, 16, 18, 20]
    lams = [0.5, 1.0, 2.0, 5.0]
    for idx in range(20):
        m = sizes[idx % len(sizes)]
        n = (2 * m) // 3
        lam = lams[idx % len(lams)]
        gp = generate(GeneratorSpec(m=m, n=n, lam=lam, e_p=0.1, seed=100 + idx))
        p = gp.problem
        sol = solve_stls(p)
        K = build_K_dense(sol, p.A)
        _, s, Vt = np.linalg.svd(K, full_matrices=False)
        kappa = s[0]
        assert kappa <= 1e6  # stay inside the first-order regime

        def respond(dvec):
            dA = dvec[: m * n].reshape((m, n), order="F")
            db = dvec[m * n :]
            perturbed = StlsProblem(p.A + t * dA, p.b + t * db, p.lam)
            return np.linalg.norm(solve_stls(perturbed).x - sol.x) / t

        # the top right singular vector attains the condition number
        gain = respond(Vt[0])
        worst_top = max(worst_top, abs(gain - kappa) / kappa)
        assert kappa * (1 - 1e-3) <= gain <= kappa * (1 + 1e-3)
        # random directions never exceed it
        for _ in range(3):
            dvec = rng.standard_normal(m * (n + 1))
            dvec /= np.linalg.norm(dvec)
            assert respond(dvec) <= kappa * (1 + 1e-3)
            checked_random += 1
    assert checked_random >= 50
    _report(2, "finite-difference validation of the operator", True,
            f"top-direction worst rel dev {worst_top:.2e}, "
            f"{checked_random} random directions bounded")


def test_criterion_3_tls_and_ols_specializations():
    # unit-scale problems: rectangular factor vs the squared-shift Gram form
    worst_tls = 0.0
    for seed in range(10):
        gp = generate(GeneratorSpec(m=12 + seed, n=8, lam=1.0, e_p=0.1, seed=seed))
        sol = solve_stls(gp.problem)
        k_f2 = kappa_f2(sol, gp.problem.A).absolute
        k_bg = kappa_tls_bg(sol).absolute
        worst_tls = max(worst_tls, abs(k_f2 - k_bg) / k_f2)
    assert worst_tls <= 1e-8

    # vanishing-scale limit approaches the least squares condition number
    rng = np.random.default_rng(77)
    worst_ols = 0.0
    for _ in range(5):
        A = rng.standard_normal((12, 5))
        b = rng.standard_normal(12)
        sigma_hat_n = np.linalg.svd(A, compute_uv=False)[-1]
        lam = 1e-6 * sigma_hat_n / np.linalg.norm(b)
        p = StlsProblem(A, b, lam)
        k_stls = kappa_f2(solve_stls(p), A).absolute
        k_ols = kappa_ols(A, b, "f2").absolute
        worst_ols = max(worst_ols, abs(k_stls - k_ols) / k_ols)
    assert worst_ols <= 1e-3

    # orthonormal fixture is exactly 2
    A3 = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    fixture = kappa_ols(A3, np.array([1.0, 1.0, 1.0]), "f1").absolute
    assert abs(fixture - 2.0) <= 1e-12
    _report(3, "TLS/OLS specializations", True,
            f"tls dev {worst_tls:.2e}, ols-limit dev {worst_ols:.2e}, "
            f"fixture {fixture}")


def test_criterion_4_power_method(diagonal_problem, diagonal_solution):
    cfg_defaults = PowerConfig()
    assert cfg_defaults.tol == 1e-8 and cfg_defaults.max_iter == 500
    converged = 0
    total = 0
    worst = 0.0
    for idx, spec in enumerate(_grid_problems()):
        gp = generate(spec)
        sol = solve_stls(gp.problem)
        exact = kappa_f2(sol, gp.problem.A).absolute
        rep = power_method(sol, gp.problem.A, PowerConfig(seed=idx))
        total += 1
        if rep.diagnostics["converged"]:
            converged += 1
            rel = abs(rep.absolute - exact) / exact
            worst = max(worst, rel)
            assert rel <= 1e-6
    fixture = power_method(diagonal_solution, diagonal_problem.A, PowerConfig(seed=0))
    assert fixture.diagnostics["converged"]
    assert abs(fixture.absolute - 1.490712) <= 1e-6
    _report(4, "power method accuracy", True,
            f"{converged}/{total} converged, worst rel err {worst:.2e}")


def test_criterion_5_probabilistic_estimation_contract():
    eps, theta = 0.001, 0.01
    runs = 200
    lower_ok = 0
    upper_ok = 0
    worst_mid = 0.0
    lams = (0.05, 1.0, 5.0)
    e_ps = (0.1, 0.001)
    for t in range(runs):
        gp = generate(GeneratorSpec(
            m=60, n=40, lam=lams[t % 3], e_p=e_ps[t % 2], seed=5000 + t
        ))
        sol = solve_stls(gp.problem)
        exact = kappa_f2(sol, gp.problem.A).absolute
        rep = pce(sol, gp.problem.A, PceConfig(eps=eps, theta=theta, seed=t))
        alpha = rep.diagnostics["alpha"]
        beta = rep.diagnostics["beta"]
        assert beta <= 1.01 * alpha * (1.0 + 1e-12)
        if alpha <= exact * (1.0 + 1e-10):
            lower_ok += 1
        if beta >= exact:
            upper_ok += 1
        rel = abs(rep.absolute - exact) / exact
        worst_mid = max(worst_mid, rel)
        assert rel <= 0.005
    assert lower_ok == runs
    assert upper_ok >= runs - 2
    _report(5, "probabilistic estimation contract", True,
            f"lower {lower_ok}/{runs}, upper {upper_ok}/{runs}, "
            f"worst mid rel err {worst_mid:.2e}")


def test_criterion_6_small_sample_statistics():
    inside = 0
    runs = 200
    lams = (0.05, 1.0, 5.0)
    e_ps = (0.1, 0.001)
    for t in range(runs):
        gp = generate(GeneratorSpec(
            m=24, n=16, lam=lams[t % 3], e_p=e_ps[t % 2], seed=9000 + t
        ))
        sol = solve_stls(gp.problem)
        exact = kappa_f2(sol, gp.problem.A).absolute
        rep = sce(sol, gp.problem.A, SceConfig(k=3, seed=t))
        if 0.1 < rep.absolute / exact < 10.0:
            inside += 1
    fraction = inside / runs
    assert fraction >= 0.95

    # complete orthonormal sample reproduces the Frobenius norm
    worst_frob = 0.0
    for seed in range(5):
        gp = generate(GeneratorSpec(m=12, n=8, lam=1.0, e_p=0.1, seed=seed))
        sol = solve_stls(gp.problem)
        frob = np.linalg.norm(build_K_dense(sol, gp.problem.A), "fro")
        rep = sce(sol, gp.problem.A, SceConfig(k=8, seed=seed))
        worst_frob = max(worst_frob, abs(rep.absolute - frob) / frob)
        assert abs(rep.absolute - frob) <= 1e-10 * frob
    _report(6, "small-sample estimation statistics", True,
            f"inside (0.1,10): {fraction:.1%}, full-sample dev {worst_frob:.2e}")


def test_criterion_7_timing_ordering_nongating():
    records, summaries = run_timing_bench(
        [(200, 150)], [5.0], [0.1], trials=3, methods=["kron", "f2"],
        seed=0,
    )
    means = {s["method"]: s["mean_wall_time"] for s in summaries}
    ratio = means["kron"] / means["f2"]
    ok = ratio >= 5.0
    _report(7, "timing ordering (non-gating)", ok,
            f"kron/f2 mean wall-time ratio {ratio:.1f}x")
    if not ok:
        pytest.skip(f"timing ordering not met on this host (ratio {ratio:.1f}x); "
                    "criterion is environment-dependent and non-gating")


def test_criterion_8_generator_fidelity():
    worst = 0.0
    for idx in range(50):
        m = 10 + (idx % 7) * 5
        n = (2 * m) // 3
        e_p = (0.1, 0.001, 0.5)[idx % 3]
        spec = GeneratorSpec(m=m, n=n, lam=(0.05, 1.0, 5.0)[idx % 3],
                             e_p=e_p, seed=idx)
        gp = generate(spec)
        d = gp.known_singular_values
        # construction check: the last two diagonal entries are exactly the
        # intended floats, so the designed spectral gap is e_p
        assert d[-2] == 1.0
        assert d[-1] == 1.0 - e_p
        assert np.array_equal(d[:-1], np.arange(n, 0, -1, dtype=float))
        s = np.linalg.svd(gp.problem.augmented(), compute_uv=False)
        worst = max(worst, float(np.max(np.abs(s - d))))
        assert np.max(np.abs(s - d)) <= 1e-12
    _report(8, "generator fidelity", True, f"50 problems, worst spectrum dev {worst:.2e}")


def test_criterion_9_degenerate_handling(tmp_path, diagonal_problem, diagonal_solution):
    # consistent system (residual exactly representable as zero)
    rng = np.random.default_rng(12)
    A = rng.standard_normal((10, 5))
    b = A @ rng.standard_normal(5)
    sol = solve_stls(StlsProblem(A, b, 1.0))
    with pytest.raises(ZeroResidualError):
        kappa_f2(sol, A)

    # zero solution: relative conditioning is undefined
    with pytest.raises(ZeroSolutionError):
        relative_from_absolute(diagonal_solution, 1.0)

    # nongeneric fixture exits the CLI with code 4
    path = tmp_path / "nongeneric.json"
    save_problem(StlsProblem(np.array([[1.0], [0.0]]), np.array([0.0, 1.0]), 1.0), path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "stlscond", "cond", "--in", str(path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 4
    _report(9, "degenerate handling", True,
            "ZeroResidual raised, ZeroSolution raised, CLI exit 4")
