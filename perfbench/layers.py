"""The traced layer suite: one timing per layer, taken from outside.

Each layer is a module of ``stlscond``.  Its metrics time the benchmark's
calls into that module's public functions, each call inside a span, on
the input of the workload the layer matters to:

* ``cli``, ``problem.load_problem``: the ``cli-tall`` file;
* ``problem``, ``numerics``, ``exact.kappa_f1/f2``: the ``exact-square``
  problems;
* ``generate``, ``exact.kappa_kron``: the ``grid-small`` problems;
* ``estimate``: the ``estimate-gauss`` problems;
* ``bench``: one ``grid-small`` call of the harness.

Every traced run prints the whole suite, so each workload's traced output
holds every per-layer metric.
"""

from __future__ import annotations

import statistics
import sys

import numpy as np

from stlscond import (
    GeneratorSpec,
    SpdFactorization,
    apply_K,
    apply_KT,
    check_genericity,
    generate,
    kappa_f1,
    kappa_f2,
    kappa_kron,
    load_problem,
    pce,
    power_method,
    sce,
    solve_stls,
)
from stlscond.bench import derive_seed

from workloads import GRID_METHODS, WORKLOADS, cli_env, run_child, sub_seed


def _timed(tr, samples, name, fn, *args, **kwargs):
    """Call ``fn`` inside a span named ``name``; append its duration to
    ``samples[name]``."""
    with tr.span(name) as rec:
        out = fn(*args, **kwargs)
    samples.setdefault(name, []).append(rec["end"] - rec["start"])
    return out


def _medians(samples):
    return {name: statistics.median(values) for name, values in samples.items()}


def cli_layers(cli, reps, tr):
    """Interpreter start, import, and the CLI call minus the in-process
    import, load, solve and f2 on the same file."""
    env = cli_env()
    py = sys.executable
    cond = [py, "-m", "stlscond", "cond", "--in", cli["path"], "--method", "f2"]
    s = {}
    for r in range(reps):
        tr.op = f"layers.cli.{r}"
        with tr.span("layers.cli"):
            _timed(tr, s, "cli.interp", run_child, [py, "-c", "pass"], env)
            _timed(tr, s, "cli.import", run_child, [py, "-c", "import stlscond"], env)
            proc = _timed(tr, s, "cli.cond", run_child, cond, env)
            if proc.returncode != 0:
                raise RuntimeError(f"CLI exited {proc.returncode}: {proc.stderr[-500:]}")
            p = _timed(tr, s, "problem.load_problem", load_problem, cli["path"])
            sol = _timed(tr, s, "problem.solve_stls", solve_stls, p)
            _timed(tr, s, "exact.kappa_f2", kappa_f2, sol, p.A)
    med = _medians(s)
    in_process = med["problem.load_problem"] + med["problem.solve_stls"] + med["exact.kappa_f2"]
    return {
        "cli.interp_s": med["cli.interp"],
        "cli.import_s": med["cli.import"] - med["cli.interp"],
        "cli.self_s": med["cli.cond"] - med["cli.import"] - in_process,
        "problem.json_mb": cli["json_bytes"] / 1e6,
        "problem.load_problem_s": med["problem.load_problem"],
    }


def square_layers(square, tr):
    """The m-sized pass, the solve, the factorization of M and the two
    n x n / n x (2m+n) formulas."""
    s = {}
    for i, (p, _) in enumerate(square["problems"]):
        tr.op = f"layers.square.{i}"
        with tr.span("layers.square"):
            _timed(tr, s, "problem.check_genericity", check_genericity, p)
            sol = _timed(tr, s, "problem.solve_stls", solve_stls, p)
            M = p.A.T @ p.A - sol.sigma_np1 ** 2 * np.eye(p.n)
            _timed(tr, s, "numerics.spd_factor", SpdFactorization.from_matrix, M)
            _timed(tr, s, "exact.kappa_f1", kappa_f1, sol, p.A)
            _timed(tr, s, "exact.kappa_f2", kappa_f2, sol, p.A)
    return {name + "_s": value for name, value in _medians(s).items()}


def kron_layers(grid, tr):
    """Problem generation and the materialized operator at the grid size."""
    g = WORKLOADS["grid-small"]
    size = grid["sizes"]
    m, n = size["m"], size["n"]
    rseed = grid["rounds"][0][0]
    s = {}
    for ci, (lam, e_p) in enumerate(g.cells(size)):
        tr.op = f"layers.kron.{ci}"
        with tr.span("layers.kron"):
            spec = GeneratorSpec(m=m, n=n, lam=lam, e_p=e_p, seed=derive_seed(rseed, ci, 0))
            p = _timed(tr, s, "generate.generate", generate, spec).problem
            sol = _timed(tr, s, "problem.solve_stls", solve_stls, p)
            _timed(tr, s, "exact.kappa_kron", kappa_kron, sol, p.A)
    med = _medians(s)
    return {
        "generate.generate_s": med["generate.generate"],
        "exact.kappa_kron_s": med["exact.kappa_kron"],
        # computed from the shape, not measured: 8 bytes per entry of K
        "exact.kron_mb": 8.0 * n * m * (n + 1) / 1e6,
    }


def estimate_layers(gauss, tr, count=4):
    """One K' and one K product at the public boundary, the three
    estimators, and PCE with the conjugate-gradient solver."""
    g = WORKLOADS["estimate-gauss"]
    s = {}
    sweeps, sweep_s, ratios = [], [], []
    for i in range(min(count, len(gauss["seeds"]))):
        p, (pw_cfg, pc_cfg, sc_cfg), ref = g.prepare(gauss, i)
        tr.op = f"layers.estimate.{i}"
        with tr.span("layers.estimate"):
            sol = _timed(tr, s, "problem.solve_stls", solve_stls, p)
            y = np.random.default_rng(sub_seed(gauss["seeds"][i], 4)).standard_normal(p.n)
            P = _timed(tr, s, "estimate.apply_KT", apply_KT, sol, p.A, y)
            _timed(tr, s, "estimate.apply_K", apply_K, sol, p.A, P)
            pw = _timed(tr, s, "estimate.power_method", power_method, sol, p.A, pw_cfg)
            _timed(tr, s, "estimate.pce", pce, sol, p.A, pc_cfg)
            _timed(tr, s, "estimate.pce_cg", pce, sol, p.A, pc_cfg, solver="cg")
            sc = _timed(tr, s, "estimate.sce", sce, sol, p.A, sc_cfg)
        iters = pw.diagnostics["iterations"]
        sweeps.append(iters)
        sweep_s.append(s["estimate.power_method"][-1] / iters)
        ratios.append(sc.absolute / ref)
    med = _medians(s)
    out = {name + "_s": med[name] for name in med if name.startswith("estimate.")}
    out["estimate.power_sweeps"] = statistics.median(sweeps)
    out["estimate.power_sweep_s"] = statistics.median(sweep_s)
    out["estimate.sce_ratio_p50"] = statistics.median(ratios)
    return out


def bench_layers(grid, tr):
    """One harness call: pool busy fraction and per-method record times."""
    g = WORKLOADS["grid-small"]
    tr.op = "layers.bench"
    with tr.span("layers.bench") as rec:
        records = g.call(g.prepare(grid, 0), tr)
    wall = rec["end"] - rec["start"]
    out = {
        "bench.pool_busy_frac":
            sum(r.wall_time_seconds for r in records) / (grid["threads"] * wall),
    }
    for method in GRID_METHODS:
        out[f"bench.{method}_s"] = statistics.median(
            r.wall_time_seconds for r in records if r.method == method
        )
    return out


def measure_layers(inputs, reps, tr):
    """Every per-layer metric except the tracing overhead."""
    out = {}
    out.update(cli_layers(inputs["cli-tall"], reps, tr))
    out.update(square_layers(inputs["exact-square"], tr))
    out.update(kron_layers(inputs["grid-small"], tr))
    out.update(estimate_layers(inputs["estimate-gauss"], tr))
    out.update(bench_layers(inputs["grid-small"], tr))
    return out
