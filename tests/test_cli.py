"""End-to-end CLI tests through subprocess: exit codes, formats, determinism."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from stlscond import StlsProblem, save_problem
from stlscond.bench import (
    BENCH_COLUMNS,
    RATIO_COLUMNS,
    run_ratio_bench,
    run_timing_bench,
)
from stlscond.estimate import METHODS

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "stlscond", *args],
        capture_output=True, text=True, env=env,
    )


@pytest.fixture(scope="module")
def problem_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "p.json"
    r = run_cli("gen", "--m", "20", "--n", "13", "--lambda", "1", "--ep", "0.1",
                "--seed", "5", "--out", str(path))
    assert r.returncode == 0, r.stderr
    return path


@pytest.fixture(scope="module")
def diagonal_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-diag") / "diag.json"
    A = np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    save_problem(StlsProblem(A, np.array([0.0, 0.0, 0.5]), 1.0), path)
    return path


# Runs cli.main on its arguments (none: import only) in a fresh interpreter
# and prints the exit code and the scipy modules loaded.
SCIPY_PROBE = """
import json, sys
from stlscond import cli
code = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


@pytest.mark.parametrize("args", [
    pytest.param((), id="import"),
    pytest.param(("gen", "--m", "6", "--n", "4", "--lambda", "1", "--ep", "0.1"), id="gen"),
    pytest.param(("solve", "--in", "{in}"), id="solve"),
    *[pytest.param(("cond", "--in", "{in}", "--method", m), id=f"cond-{m}")
      for m in ("f2", "f1", "kron", "power", "sce", "pce", "all")],
])
def test_commands_load_no_scipy(problem_file, tmp_path, args):
    # scipy's import costs more than a small problem's whole command, so
    # it is loaded only where a fallback or pce(solver="cg") calls it
    argv = [a.replace("{in}", str(problem_file)) for a in args]
    if argv:
        argv += ["--out", str(tmp_path / "out")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    r = subprocess.run([sys.executable, "-c", SCIPY_PROBE, *argv],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    code, loaded = json.loads(r.stdout)
    assert code == 0, r.stderr
    assert loaded == [], loaded


def test_gen_writes_problem_with_provenance(tmp_path):
    out = tmp_path / "p.json"
    r = run_cli("gen", "--m", "5", "--n", "3", "--lambda", "1", "--ep", "0.1",
                "--seed", "42", "--out", str(out))
    assert r.returncode == 0, r.stderr
    doc = json.loads(out.read_text())
    assert doc["m"] == 5 and doc["n"] == 3 and doc["lambda"] == 1.0
    assert doc["provenance"]["known_singular_values"] == [3.0, 2.0, 1.0, 0.9]
    assert doc["provenance"]["spec"]["seed"] == 42
    assert len(doc["A"]) == 5 and len(doc["A"][0]) == 3


def test_gen_rejects_invalid_sizes():
    r = run_cli("gen", "--m", "3", "--n", "3", "--lambda", "1", "--ep", "0.1")
    assert r.returncode == 2
    assert r.stderr.strip()


def test_gen_is_byte_deterministic():
    args = ("gen", "--m", "6", "--n", "4", "--lambda", "0.5", "--ep", "0.2",
            "--seed", "9")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_solve_reports_solution(problem_file):
    r = run_cli("solve", "--in", str(problem_file))
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert len(doc["x"]) == 13
    assert doc["genericity_gap"] > 0.0
    assert doc["sigma_hat_n"] > doc["sigma_np1"]


def test_solve_csv_format(problem_file):
    r = run_cli("solve", "--in", str(problem_file), "--format", "csv")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "field,value"
    fields = {line.split(",")[0] for line in lines[1:]}
    assert "genericity_gap" in fields and "x[0]" in fields


def test_cond_methods_agree(problem_file):
    reports = {}
    for method in METHODS:
        r = run_cli("cond", "--in", str(problem_file), "--method", method)
        assert r.returncode == 0, r.stderr
        reports[method] = json.loads(r.stdout)
    f2 = reports["f2"]["absolute"]
    for method in ("kron", "f1"):
        assert abs(reports[method]["absolute"] - f2) <= 1e-8 * f2
    power = reports["power"]
    assert power["diagnostics"]["converged"] is True
    assert abs(power["absolute"] - f2) <= 1e-6 * f2
    bracket = reports["pce"]["diagnostics"]
    assert bracket["alpha"] <= f2 * (1 + 1e-12)
    assert f2 <= bracket["beta"] * (1 + 1e-12)
    assert 0.1 < reports["sce"]["absolute"] / f2 < 10.0


@pytest.mark.parametrize("args", [
    ("cond", "--method", "bogus"),
    ("bench-time", "--sizes", "12x8", "--lambdas", "1", "--ep", "0.1",
     "--methods", "bogus"),
    ("gen", "--m", "5", "--n", "3", "--lambda", "1", "--ep", "0.1",
     "--format", "csv"),
    ("solve", "--seed", "1"),
])
def test_unknown_method_or_option_is_usage_error(problem_file, args):
    if args[0] in ("cond", "solve"):
        args = (args[0], "--in", str(problem_file), *args[1:])
    r = run_cli(*args)
    assert r.returncode == 2
    assert r.stderr.strip()
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("config", [
    {"power": {"tol": "x"}},
    [1, 2],
    {"sce": {"k": 1.5}},
    {"powr": {"tol": 1e-6}},
    {"power": {"bogus": 3}},
])
def test_malformed_config_is_usage_error(problem_file, tmp_path, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    r = run_cli("cond", "--in", str(problem_file), "--method", "power",
                "--config", str(cfg))
    assert r.returncode == 2
    assert r.stderr.startswith("stlscond: invalid arguments:")
    assert len(r.stderr.strip().splitlines()) == 1


def test_cond_all_on_zero_solution_fixture(diagonal_file):
    r = run_cli("cond", "--in", str(diagonal_file), "--method", "all")
    assert r.returncode == 5  # zero solution: relative condition undefined
    doc = json.loads(r.stdout)
    by_tag = {rep["method"]: rep for rep in doc["reports"]}
    expected = float(np.sqrt(20.0 / 9.0))
    for tag in ("KRON", "F1", "F2"):
        assert by_tag[tag]["absolute"] == pytest.approx(expected, rel=1e-10)
        assert "relative" not in by_tag[tag]
        assert by_tag[tag]["diagnostics"]["relative_error"] == "ZeroSolution"
    assert doc["ratios"]["ratio1"] == pytest.approx(1.0, abs=1e-6)
    assert 0.1 < doc["ratios"]["ratio3"] < 10.0


def test_cond_nongeneric_exit_code(tmp_path):
    path = tmp_path / "nongeneric.json"
    save_problem(StlsProblem(np.array([[1.0], [0.0]]), np.array([0.0, 1.0]), 1.0), path)
    r = run_cli("cond", "--in", str(path), "--method", "f2")
    assert r.returncode == 4
    assert "nongeneric" in r.stderr.lower()


def test_degenerate_singular_vector_exit_code(tmp_path):
    # the gap clears its tolerance, but the trailing right singular vector
    # of [A, b] has a last component of 5e-15: no meaningful x exists
    path = tmp_path / "degenerate.json"
    A = np.array([[1.0, 0.0], [0.0, 5e-6], [0.0, 0.0]])
    save_problem(StlsProblem(A, np.array([0.0, 1e3, 1e6]), 1.0), path)
    for cmd in ("solve", "cond"):
        r = run_cli(cmd, "--in", str(path))
        assert r.returncode == 4
        assert r.stdout == ""
        assert r.stderr.startswith("stlscond: nongeneric problem:")
        assert r.stderr.count("\n") == 1


def test_cond_zero_residual_exit_code(tmp_path):
    rng = np.random.default_rng(3)
    A = rng.standard_normal((8, 4))
    b = A @ rng.standard_normal(4)
    path = tmp_path / "consistent.json"
    save_problem(StlsProblem(A, b, 1.0), path)
    r = run_cli("cond", "--in", str(path), "--method", "f2")
    assert r.returncode == 5
    assert "degenerate" in r.stderr.lower()


def test_cond_relative_reported(problem_file):
    r = run_cli("cond", "--in", str(problem_file), "--method", "f2")
    doc = json.loads(r.stdout)
    assert doc["relative"] > doc["absolute"] * 0.0
    assert doc["method"] == "F2"


def test_cond_csv_format(problem_file):
    r = run_cli("cond", "--in", str(problem_file), "--method", "f2",
                "--format", "csv")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "method,absolute,relative"
    method, absolute, relative = lines[1].split(",")
    assert method == "F2" and float(absolute) > 0 and float(relative) > 0


def test_cond_estimator_config_file(problem_file, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"power": {"max_iter": 1, "tol": 1e-30}, "seed": 1}))
    r = run_cli("cond", "--in", str(problem_file), "--method", "power",
                "--config", str(cfg))
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["diagnostics"]["iterations"] == 1
    assert doc["diagnostics"]["converged"] is False
    # CLI flag overrides the config block
    r2 = run_cli("cond", "--in", str(problem_file), "--method", "power",
                 "--config", str(cfg), "--power-max-iter", "500",
                 "--power-tol", "1e-8")
    doc2 = json.loads(r2.stdout)
    assert doc2["diagnostics"]["converged"] is True


def test_missing_input_is_io_error():
    r = run_cli("cond", "--in", "/nonexistent/problem.json")
    assert r.returncode == 3


def test_malformed_problem_is_io_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"m": 3, "n": 1, "lambda": 1.0,
                                "A": [[1.0], [2.0]], "b": [0.0, 0.0, 0.0]}))
    r = run_cli("cond", "--in", str(path))
    assert r.returncode == 3


def test_unknown_subcommand_is_usage_error():
    r = run_cli("frobnicate")
    assert r.returncode == 2


def test_bench_time_emits_csv(tmp_path):
    out = tmp_path / "bench.csv"
    r = run_cli("bench-time", "--sizes", "12x8", "--lambdas", "1", "--ep", "0.1",
                "--trials", "2", "--methods", "kron,f2", "--seed", "1",
                "--threads", "1", "--out", str(out))
    assert r.returncode == 0, r.stderr
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ",".join(BENCH_COLUMNS)
    assert len(lines) == 1 + 2 * 2
    assert "mean=" in r.stderr


def test_bench_ratio_emits_csv(tmp_path):
    out = tmp_path / "ratios.csv"
    r = run_cli("bench-ratio", "--sizes", "12x8", "--lambdas", "5", "--ep", "0.1",
                "--trials", "2", "--seed", "1", "--threads", "1", "--out", str(out))
    assert r.returncode == 0, r.stderr
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ",".join(RATIO_COLUMNS)
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == pytest.approx(1.0, abs=1e-3)


def test_bench_ratio_vary_initial(tmp_path):
    out = tmp_path / "spread.csv"
    r = run_cli("bench-ratio", "--sizes", "12x8", "--lambdas", "5", "--ep", "0.1",
                "--trials", "2", "--vary-initial", "3", "--seed", "1",
                "--threads", "1", "--out", str(out))
    assert r.returncode == 0, r.stderr
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ",".join(BENCH_COLUMNS)
    assert len(lines) == 1 + 2 * 3
    assert all(line.split(",")[5] == "power" for line in lines[1:])


def test_bench_value_columns_match_library(tmp_path):
    # the CLI derives per-trial estimator seeds from --seed as the library
    # does, so the value columns agree for the same root seed
    cell = ["--sizes", "12x8", "--lambdas", "1", "--ep", "0.1", "--trials", "2",
            "--seed", "4", "--threads", "1"]
    out = tmp_path / "time.csv"
    r = run_cli("bench-time", *cell, "--methods", "power,pce,sce", "--out", str(out))
    assert r.returncode == 0, r.stderr
    cli_values = [float(line.split(",")[6])
                  for line in out.read_text().strip().splitlines()[1:]]
    records, _ = run_timing_bench(
        [(12, 8)], [1.0], [0.1], trials=2, methods=["power", "pce", "sce"],
        seed=4, threads=1,
    )
    assert cli_values == pytest.approx([rec.value for rec in records], rel=1e-12)

    out = tmp_path / "ratio.csv"
    r = run_cli("bench-ratio", *cell, "--out", str(out))
    assert r.returncode == 0, r.stderr
    cli_ratios = [[float(v) for v in line.split(",")[1:]]
                  for line in out.read_text().strip().splitlines()[1:]]
    groups, _ = run_ratio_bench([(12, 8)], [1.0], [0.1], trials=2, seed=4, threads=1)
    lib_ratios = [[rec.ratio1, rec.ratio2, rec.ratio3] for rec in groups[0][1]]
    assert np.allclose(cli_ratios, lib_ratios, rtol=1e-12, atol=0.0)
