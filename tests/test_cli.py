"""End-to-end CLI tests through subprocess: exit codes, formats, determinism."""

import contextlib
import copy
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import stlscond
from stlscond import (
    GeneratorSpec,
    PceConfig,
    PowerConfig,
    ProblemFormatError,
    SceConfig,
    StlsProblem,
    cli,
    generate,
    numerics,
    problem,
    load_problem,
    save_problem,
    solve_stls,
)
from stlscond.bench import (
    BENCH_COLUMNS,
    RATIO_COLUMNS,
    read_bench_csv,
    run_power_spread,
    run_ratio_bench,
    run_timing_bench,
    write_bench_csv,
    write_ratio_csv,
)
from stlscond.estimate import CONFIGS, METHODS

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
# and prints the exit code and the loaded modules of the package named first.
MODULE_PROBE = """
import json, sys
from stlscond import cli
root, argv = sys.argv[1], sys.argv[2:]
code = cli.main(argv) if argv else 0
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == root)]))
"""


def probe_modules(root, args, problem_file, out):
    """The exit code of ``stlscond *args`` in a fresh interpreter and the
    modules of package ``root`` it loaded; ``{in}`` names the problem file."""
    argv = [a.replace("{in}", str(problem_file)) for a in args]
    if argv:
        argv += ["--out", str(out)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    r = subprocess.run([sys.executable, "-c", MODULE_PROBE, root, *argv],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    code, loaded = json.loads(r.stdout)
    assert code == 0, r.stderr
    return loaded


@pytest.mark.parametrize("args", [
    pytest.param((), id="import"),
    pytest.param(("gen", "--m", "6", "--n", "4", "--lambda", "1", "--ep", "0.1"), id="gen"),
    pytest.param(("solve", "--in", "{in}"), id="solve"),
    *[pytest.param(("cond", "--in", "{in}", "--method", m), id=f"cond-{m}")
      for m in ("f2", "f1", "kron", "power", "sce", "pce", "all")],
])
def test_commands_load_no_scipy(problem_file, tmp_path, args):
    # scipy's import costs more than a small problem's whole command, so
    # it is loaded only where a fallback or pce(solver="cg") calls it.
    # Where numpy ships no scipy_openblas, every solve's dlasd4 is scipy's
    loaded = probe_modules("scipy", args, problem_file, tmp_path / "out")
    solves = args[:1] in (("solve",), ("cond",))
    assert bool(loaded) == (solves and numerics._openblas() is None), loaded


@pytest.mark.parametrize("args, touches_file", [
    pytest.param((), False, id="import"),
    pytest.param(("gen", "--m", "6", "--n", "4", "--lambda", "1", "--ep", "0.1"), True,
                 id="gen"),
    pytest.param(("bench-time", "--sizes", "6x4", "--lambdas", "1", "--ep", "0.1",
                  "--methods", "f2"), False, id="bench-time"),
    pytest.param(("solve", "--in", "{in}"), True, id="solve"),
    pytest.param(("cond", "--in", "{in}"), True, id="cond"),
])
def test_json_parser_loads_only_for_files(problem_file, tmp_path, args, touches_file):
    # pydantic_core's import adds about 10 MB RSS, so only the commands
    # that read or write a problem file, or read a config file, load it
    loaded = probe_modules("pydantic_core", args, problem_file, tmp_path / "out")
    assert bool(loaded) == touches_file, loaded


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


def test_gen_refuses_a_file_over_the_load_budget(tmp_path, monkeypatch, capsys):
    # cond --in would refuse the file, so gen writes none; one exactly at
    # the budget is written and loads
    out = tmp_path / "p.json"
    argv = ["gen", "--m", "6", "--n", "4", "--lambda", "1", "--ep", "0.1", "--out", str(out)]
    assert cli.main(argv) == 0
    size = out.stat().st_size
    out.unlink()
    monkeypatch.setattr(problem, "LOAD_BUDGET_BYTES", size - 1)
    assert cli.main(argv) == 2
    _, err = capsys.readouterr()
    assert err.startswith("stlscond: over memory budget:") and err.count("\n") == 1
    assert not out.exists()
    monkeypatch.setattr(problem, "LOAD_BUDGET_BYTES", size)
    assert cli.main(argv) == 0
    assert out.stat().st_size == size
    assert load_problem(out).m == 6


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


@settings(max_examples=25, deadline=None)
@given(m=st.integers(2, 9), data=st.data(), lam=st.floats(1e-3, 1e3),
       e_p=st.floats(1e-6, 0.9), seed=st.integers(0, 2**32 - 1))
def test_gen_file_loads_as_the_generated_problem(m, data, lam, e_p, seed):
    n = data.draw(st.integers(1, m - 1))
    spec = GeneratorSpec(m=m, n=n, lam=lam, e_p=e_p, seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.json")
        assert cli.main(["gen", "--m", str(m), "--n", str(n), "--lambda", repr(lam),
                         "--ep", repr(e_p), "--seed", str(seed), "--out", path]) == 0
        p = load_problem(path)
        with open(path, encoding="utf-8") as fh:
            keys = list(json.load(fh))
    q = generate(spec).problem
    assert keys == ["m", "n", "lambda", "A", "b", "provenance"]
    assert p.A.tobytes() == q.A.tobytes() and p.b.tobytes() == q.b.tobytes()
    assert np.float64(p.lam).tobytes() == np.float64(q.lam).tobytes()


def test_solve_reports_solution(problem_file):
    r = run_cli("solve", "--in", str(problem_file))
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert len(doc["x"]) == 13
    assert doc["genericity_gap"] > 0.0
    assert doc["sigma_hat_n"] > doc["sigma_np1"]
    r_norm = np.linalg.norm(solve_stls(load_problem(problem_file)).r)
    assert doc["residual_norm"] == pytest.approx(r_norm, rel=1e-14)


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
    # an infinite tolerance would stop power after two sweeps and pce after
    # one step, far from kappa, and call the result converged
    ("cond", "--method", "power", "--power-tol", "inf"),
    ("cond", "--method", "pce", "--pce-theta", "inf"),
    ("bench-ratio", "--sizes", "8x3", "--lambdas", "1", "--ep", "0.1",
     "--vary-initial", "-3"),
])
def test_unknown_method_or_option_is_usage_error(problem_file, args):
    if args[0] in ("cond", "solve"):
        args = (args[0], "--in", str(problem_file), *args[1:])
    r = run_cli(*args)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.strip()
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("config", [
    {"power": {"tol": "x"}},
    [1, 2],
    {"sce": {"k": 1.5}},
    {"powr": {"tol": 1e-6}},
    {"power": {"bogus": 3}},
    pytest.param(b"[" * 200_000, id="deep-nesting"),
    pytest.param(b"\xff\xfe{", id="not-utf8"),
    pytest.param(b'{"power": {"tol": 1e-6}', id="truncated"),
    pytest.param(b'{"power": {"tol": 1e400}}', id="tol-beyond-the-double-range"),
])
def test_malformed_config_is_usage_error(problem_file, tmp_path, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(config if isinstance(config, bytes) else json.dumps(config).encode())
    r = run_cli("cond", "--in", str(problem_file), "--method", "power",
                "--config", str(cfg))
    assert r.returncode == 2
    assert r.stderr.startswith("stlscond: invalid arguments:")
    assert len(r.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize("readable", [True, False])
def test_malformed_config_is_refused_before_the_problem_load(problem_file, tmp_path,
                                                              monkeypatch, capsys, readable):
    # the config file is validated first, so a bad one exits 2 without the
    # problem's load, even when --in is unreadable (which would exit 3)
    def load_problem(path):
        raise AssertionError("the problem file was loaded")

    monkeypatch.setattr(cli, "load_problem", load_problem)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"power": {"bogus": 1}}))
    path = str(problem_file) if readable else str(tmp_path / "missing.json")
    assert cli.main(["cond", "--in", path, "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("stlscond: invalid arguments: config file: power.bogus: not a setting; "
                   "expected one of tol, max_iter\n")


def test_config_file_holds_no_seed(problem_file, tmp_path, capsys):
    # --seed is the one seed: a config file naming one is refused, and
    # every estimator takes --seed whatever the file holds
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 5}))
    assert cli.main(["cond", "--in", str(problem_file), "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("stlscond: invalid arguments: config file: seed: not a section; "
                   "expected one of power, pce, sce\n")
    cfg.write_text(json.dumps({"sce": {"k": 2}}))
    args = cli.build_parser().parse_args(
        ["cond", "--in", str(problem_file), "--seed", "7", "--config", str(cfg)])
    assert {c.seed for c in cli._estimator_configs(args).values()} == {7}


def test_cond_clamps_the_default_sample_size_only(tmp_path):
    # sce's default k takes min(3, n) = 2 probes; a k of 3 given by flag or
    # config file is over n = 2 and is refused
    path = tmp_path / "p.json"
    save_problem(StlsProblem(np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]]),
                 np.array([1.0, 0.0, 2.0]), 1.0), path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sce": {"k": 3}}))
    argv = ["cond", "--in", str(path), "--method", "sce"]
    assert cli.main(argv) == 0
    assert cli.main([*argv, "--sce-k", "3"]) == 2
    assert cli.main([*argv, "--config", str(cfg)]) == 2


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


@pytest.mark.parametrize("cmd", ["solve", "cond"])
def test_convergence_failure_exit_code(problem_file, monkeypatch, capsys, dlasd4_failing, cmd):
    # dlasd4 failing on the secular equation raises ConvergenceError,
    # which ends in exit 4 and one stderr line, not a traceback
    monkeypatch.setattr(numerics, "dlasd4", dlasd4_failing)
    assert cli.main([cmd, "--in", str(problem_file)]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("stlscond: did not converge:") and err.count("\n") == 1


@pytest.mark.parametrize("cmd", ["solve", "cond"])
def test_out_of_range_exit_code(tmp_path, capsys, cmd):
    path = tmp_path / "range.json"
    A = np.array([[1.0, 0.5], [0.0, 2.0], [1.0, 1.0], [0.3, -1.0]])
    save_problem(StlsProblem(A, np.array([1e300, 0.0, 2.0, -1.0]), 1.5), path)
    assert cli.main([cmd, "--in", str(path)]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("stlscond: out of floating-point range:") and err.count("\n") == 1


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def _scaled_cli_run(tmp_path, capsys, seed, scale, argv):
    """Exit code and stdout, parsed as strict JSON, of ``stlscond *argv``
    on a 30x8 Gaussian problem times ``scale``, and the same at scale 1."""
    docs = []
    for c in (1.0, scale):
        rng = np.random.default_rng(seed)
        path = tmp_path / f"scaled-{c}.json"
        save_problem(StlsProblem(c * rng.standard_normal((30, 8)),
                                 c * rng.standard_normal(30), 1.0), path)
        code = cli.main([*argv, "--in", str(path)])
        out, err = capsys.readouterr()
        assert code == 0, err
        docs.append(json.loads(out, parse_constant=_refuse_constant))
    return docs


def test_kron_beyond_the_double_range_exit_code(tmp_path, capsys):
    # kron's products of data-sized vectors overflowed at 1e150, and the
    # NaN reached dormbr; K is now built on the unit-scale core, so kron
    # gives kappa there like at any scale
    ref, doc = _scaled_cli_run(tmp_path, capsys, 0, 1e150, ["cond", "--method", "kron"])
    assert doc["absolute"] * 1e150 == pytest.approx(ref["absolute"], rel=1e-12)


@pytest.mark.parametrize("scale, method", [(1e100, "f1"), (1e100, "all"), (1e-100, "power"),
                                           (1e200, "all"), (1e-200, "all")])
def test_non_finite_condition_number_exit_code(tmp_path, capsys, scale, method):
    # f1 and power divided by the data's d**2, which overflowed at 1e100 and
    # underflowed at 1e-100, and beyond 1e+-154 every method read a zero
    # residual; on the unit-scale core each method gives kappa, and the
    # JSON has no NaN or Infinity
    ref, doc = _scaled_cli_run(tmp_path, capsys, 3, scale, ["cond", "--method", method])
    reports = (doc["reports"], ref["reports"]) if method == "all" else ([doc], [ref])
    assert len(reports[0]) == (6 if method == "all" else 1)
    for rep, rep_ref in zip(*reports):
        assert rep["method"] == rep_ref["method"]
        assert rep["absolute"] * scale == pytest.approx(rep_ref["absolute"], rel=1e-12)
        assert rep["relative"] == pytest.approx(rep_ref["relative"], rel=1e-12)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_solve_in_any_units_prints_json(tmp_path, capsys, scale):
    # the residual norm was the data's 2**e times the core's too late:
    # Infinity, which is not JSON, at 1e200 and 0.0 at 1e-200
    ref, doc = _scaled_cli_run(tmp_path, capsys, 3, scale, ["solve"])
    assert ref["residual_norm"] == pytest.approx(9.788, rel=1e-3)
    for key in ("residual_norm", "sigma_np1", "sigma_hat_n", "genericity_gap"):
        assert doc[key] / scale == pytest.approx(ref[key], rel=1e-12), key
    assert np.allclose(doc["x"], ref["x"], rtol=1e-12, atol=0.0)


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
    cfg.write_text(json.dumps({"power": {"max_iter": 1, "tol": 1e-30}}))
    r = run_cli("cond", "--in", str(problem_file), "--method", "power",
                "--config", str(cfg), "--seed", "1")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["diagnostics"]["iterations"] == 1
    assert doc["diagnostics"]["converged"] is False
    # CLI flag overrides the config block
    r2 = run_cli("cond", "--in", str(problem_file), "--method", "power",
                 "--config", str(cfg), "--seed", "1", "--power-max-iter", "500",
                 "--power-tol", "1e-8")
    doc2 = json.loads(r2.stdout)
    assert doc2["diagnostics"]["converged"] is True


@pytest.mark.parametrize("name, field", [
    pytest.param(name, f, id=f"{name}-{f.name}")
    for name, cls in CONFIGS.items() for f in fields(cls) if f.name != "seed"
])
def test_each_estimator_setting_reaches_its_config(tmp_path, name, field):
    # every setting of every config class has a flag and a config-file key;
    # the flag wins over the file, and the file over the default
    flag_value, file_value = (0.25, 0.5) if field.type == "float" else (2, 4)
    flag = [f"--{name}-{field.name.replace('_', '-')}", str(flag_value)]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({name: {field.name: file_value}}))

    def value(*extra):
        args = cli.build_parser().parse_args(
            ["bench-time", "--sizes", "6x4", "--lambdas", "1", "--ep", "0.1", *extra])
        return getattr(cli._estimator_configs(args)[name], field.name)

    assert value() == field.default
    assert value(*flag) == flag_value
    assert value("--config", str(cfg)) == file_value
    assert value("--config", str(cfg), *flag) == flag_value


@pytest.mark.parametrize("command", ["cond", "bench-time", "bench-ratio"])
def test_help_lists_the_estimator_flags(command, capsys):
    assert cli.main([command, "--help"]) == 0
    flags = set(re.findall(r"--(?:power|pce|sce)-[a-z-]+|--config", capsys.readouterr().out))
    assert flags == {"--power-tol", "--power-max-iter", "--pce-eps", "--pce-theta",
                     "--sce-k", "--config"}


@pytest.mark.parametrize("over", ["problem", "config"])
def test_file_over_the_load_budget_is_refused(problem_file, tmp_path, monkeypatch, capsys, over):
    # the size is checked before the file is opened, since a load peaks at
    # several times it.  The config file is padded past the problem file's size
    from stlscond import problem

    size = os.path.getsize(problem_file)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"power": {}}' + " " * (size if over == "config" else 0))
    budget = size - 1 if over == "problem" else size
    monkeypatch.setattr(problem, "LOAD_BUDGET_BYTES", budget)
    assert cli.main(["cond", "--in", str(problem_file), "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("stlscond: over memory budget:") and err.count("\n") == 1
    monkeypatch.setattr(problem, "LOAD_BUDGET_BYTES", max(size, os.path.getsize(cfg)))
    assert cli.main(["cond", "--in", str(problem_file), "--config", str(cfg)]) == 0


def test_missing_input_is_io_error():
    r = run_cli("cond", "--in", "/nonexistent/problem.json")
    assert r.returncode == 3


def test_malformed_problem_is_io_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"m": 3, "n": 1, "lambda": 1.0,
                                "A": [[1.0], [2.0]], "b": [0.0, 0.0, 0.0]}))
    r = run_cli("cond", "--in", str(path))
    assert r.returncode == 3


@pytest.mark.parametrize("cmd", ["solve", "cond"])
@pytest.mark.parametrize("text", [
    pytest.param(json.dumps({"m": 3, "n": 1, "lambda": 1.0, "A": [1.0, 2.0, 3.0],
                             "b": [0.0, 0.0, 1.0]}), id="flat-A"),
    pytest.param(json.dumps({"m": 3, "n": 1, "lambda": 1.0, "A": [[1.0], [2.0], [3.0]],
                             "b": 5}), id="scalar-b"),
    pytest.param("[" * 200_000, id="deep-nesting"),
    pytest.param(json.dumps({"m": 3.9, "n": 1, "lambda": 1.0, "A": [[1.0], [2.0], [3.0]],
                             "b": [0.0, 0.0, 1.0]}), id="float-m"),
    pytest.param(json.dumps({"m": 3, "n": True, "lambda": 1.0, "A": [[1.0], [2.0], [3.0]],
                             "b": [0.0, 0.0, 1.0]}), id="bool-n"),
    pytest.param(json.dumps({"m": 3, "n": 1, "lambda": True, "A": [[1.0], [2.0], [3.0]],
                             "b": [0.0, 0.0, 1.0]}), id="bool-lambda"),
    pytest.param('{"m": 3, "n": 1, "lambda": 1.0, "A": [[1' + "0" * 400 + '], [2.0], [3.0]], '
                 '"b": [0.0, 0.0, 1.0]}', id="integer-beyond-float"),
    pytest.param(b"\xff\xfe{", id="not-utf8"),
    pytest.param(json.dumps({"m": 3, "n": 1, "lambda": 1.0, "A": [["1.5"], [2.0], [3.0]],
                             "b": [0.0, 0.0, 1.0]}), id="string-in-A"),
    pytest.param(json.dumps({"m": 3, "n": 1, "lambda": 1.0, "A": [[1.0], [True], [3.0]],
                             "b": [0.0, 0.0, 1.0]}), id="bool-in-A"),
    pytest.param(json.dumps({"m": 3, "n": 1, "lambda": 1.0, "A": [[1.0], [2.0], [3.0]],
                             "b": [0.0, " 2e0 ", 1.0]}), id="string-in-b"),
    pytest.param(json.dumps({"m": 3, "n": 1, "lambda": 1.0, "A": [[1.0], [2.0], [3.0]],
                             "b": [0.0, False, 1.0]}), id="bool-in-b"),
    pytest.param(json.dumps({"m": 3, "n": 1, "lambda": 1.0, "A": [[1.0], [2.0, 0.0], [3.0]],
                             "b": [0.0, 0.0, 1.0]}), id="ragged-row"),
    pytest.param(json.dumps({"m": 3, "n": 1, "lambda": 1.0, "A": [[1.0], 2.0, [3.0]],
                             "b": [0.0, 0.0, 1.0]}), id="row-not-a-list"),
    pytest.param(json.dumps([3, 1, 1.0, [[1.0], [2.0], [3.0]], [0.0, 0.0, 1.0]]),
                 id="top-level-array"),
    pytest.param(json.dumps({"m": 3, "n": 1, "lambda": 1.0, "A": [[1.0], [2.0], [3.0]],
                             "b": [0.0, 0.0, 1.0]}) + " {}", id="text-after-document"),
    pytest.param(json.dumps({"m": 3, "n": 1, "lambda": 1.0, "A": [[1.0], [2.0], [3.0]]}),
                 id="missing-b"),
    pytest.param(json.dumps({"m": "3", "n": 1, "lambda": 1.0, "A": [[1.0], [2.0], [3.0]],
                             "b": [0.0, 0.0, 1.0]}), id="string-m"),
])
def test_malformed_problem_structure_is_io_error(tmp_path, cmd, text):
    path = tmp_path / "bad.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    r = run_cli(cmd, "--in", str(path))
    assert r.returncode == 3
    assert "Traceback" not in r.stderr
    assert r.stderr.startswith("stlscond: problem file error:")
    assert r.stderr.count("\n") == 1, r.stderr


VALID_DOC = {"m": 4, "n": 2, "lambda": 1.5,
             "A": [[1.0, 0.5], [0.0, 2.0], [1.0, 1.0], [0.3, -1.0]],
             "b": [1.0, 0.0, 2.0, -1.0]}
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70), st.just(10**400),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=3), inner,
                                                               max_size=3),
    max_leaves=12,
)
# sizes that int() or float() would turn into a count
SIZE_VALUES = st.sampled_from([True, False, 4.0, 2.0, 3.9, "4", None, 0, -4, 10**400])
DEEP = "__deep__"


@st.composite
def malformed_problem_texts(draw):
    """The JSON text of VALID_DOC after one mutation."""
    doc = copy.deepcopy(VALID_DOC)
    key = draw(st.sampled_from(sorted(doc)))
    kind = draw(st.sampled_from(
        ["field", "size", "delete", "entry", "row", "flat", "deep", "top"]))
    if kind == "field":
        doc[key] = draw(JSON_VALUES)
    elif kind == "size":
        doc[draw(st.sampled_from(["m", "n"]))] = draw(SIZE_VALUES | JSON_VALUES)
    elif kind == "delete":
        del doc[key]
    elif kind == "entry":
        value = draw(JSON_VALUES)
        if draw(st.booleans()):
            doc["A"][draw(st.integers(0, 3))][draw(st.integers(0, 1))] = value
        else:
            doc["b"][draw(st.integers(0, 3))] = value
    elif kind == "row":
        doc["A"][draw(st.integers(0, 3))] = draw(st.lists(st.floats(-2.0, 2.0), max_size=4))
    elif kind == "flat":
        doc["A"] = [v for row in doc["A"] for v in row]
    elif kind == "deep":
        doc[key] = DEEP
    else:
        doc = draw(JSON_VALUES)
    text = json.dumps(doc)
    depth = draw(st.integers(1, 5000))
    return text.replace(json.dumps(DEEP), "[" * depth + "1" + "]" * depth)


@settings(max_examples=150, deadline=None)
@given(text=malformed_problem_texts())
def test_malformed_problem_files_exit_with_a_documented_code(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for cmd in ("solve", "cond"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([cmd, "--in", path])
            assert code in (0, 2, 3, 4, 5), (cmd, code, err.getvalue())


# what the float range refuses, as a problem file may spell it
NON_FINITE_LITERALS = ["1" + "0" * 400, "-1" + "0" * 400, "NaN", "Infinity", "-Infinity"]


@settings(max_examples=60, deadline=None)
@given(literal=st.sampled_from(NON_FINITE_LITERALS),
       where=st.sampled_from(["A", "b", "lambda"]), i=st.integers(0, 3), j=st.integers(0, 1))
def test_the_reader_refuses_entries_beyond_the_float_range(literal, where, i, j):
    # load_problem refuses the file, and the CLI maps that to exit 3
    doc = copy.deepcopy(VALID_DOC)
    if where == "A":
        doc["A"][i][j] = "__entry__"
    elif where == "b":
        doc["b"][i] = "__entry__"
    else:
        doc["lambda"] = "__entry__"
    text = json.dumps(doc).replace('"__entry__"', literal)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with pytest.raises(ProblemFormatError):
            load_problem(path)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["solve", "--in", path])
    assert code == 3
    assert err.getvalue().startswith("stlscond: problem file error:")


VALID_CONFIG = {"power": {"tol": 1e-6, "max_iter": 200},
                "pce": {"eps": 1e-3, "theta": 1e-2}, "sce": {"k": 2}}


@st.composite
def malformed_config_texts(draw):
    """The JSON text of VALID_CONFIG after one mutation."""
    doc = copy.deepcopy(VALID_CONFIG)
    section = draw(st.sampled_from(sorted(doc)))
    kind = draw(st.sampled_from(["section", "key", "delete", "extra", "deep", "top"]))
    if kind == "section":
        doc[section] = draw(SIZE_VALUES | JSON_VALUES)
    elif kind == "key" and isinstance(doc[section], dict):
        doc[section][draw(st.sampled_from(sorted(doc[section])))] = draw(
            SIZE_VALUES | JSON_VALUES)
    elif kind == "delete":
        del doc[section]
    elif kind == "extra":
        target = doc[section] if isinstance(doc[section], dict) else doc
        target[draw(st.text(max_size=4))] = draw(JSON_VALUES)
    elif kind == "deep":
        doc[section] = DEEP
    elif kind == "top":
        doc = draw(JSON_VALUES)
    text = json.dumps(doc)
    depth = draw(st.integers(1, 5000))
    return text.replace(json.dumps(DEEP), "[" * depth + "1" + "]" * depth)


@settings(max_examples=150, deadline=None)
@given(text=malformed_config_texts())
# an integer beyond the double range in a float field
@example(text=json.dumps({**VALID_CONFIG, "pce": {"eps": 1e-3, "theta": 10**400}}))
# keys holding a line separator, which the message spells escaped
@example(text=json.dumps({"po\fwer": {}}))
@example(text=json.dumps({"power": {"t\u2028ol": 1}}))
def test_malformed_config_files_exit_with_a_documented_code(text):
    with tempfile.TemporaryDirectory() as tmp:
        path, cfg = os.path.join(tmp, "p.json"), os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(VALID_DOC, fh)
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["cond", "--in", path, "--method", "all", "--config", cfg])
    assert code in (0, 2, 3, 4, 5), (code, err.getvalue())
    # a refusal is one stderr line, whatever the keys hold
    assert len(err.getvalue().splitlines()) == (code != 0), err.getvalue()


def test_unknown_subcommand_is_usage_error():
    r = run_cli("frobnicate")
    assert r.returncode == 2


def test_bench_time_emits_csv(tmp_path):
    out = tmp_path / "bench.csv"
    r = run_cli("bench-time", "--sizes", "12x8", "--lambdas", "1", "--ep", "0.1",
                "--trials", "2", "--methods", "kron,f2", "--seed", "1", "--out", str(out))
    assert r.returncode == 0, r.stderr
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ",".join(BENCH_COLUMNS)
    assert len(lines) == 1 + 2 * 2
    assert "mean=" in r.stderr
    # on a 5x2 cell sce's default k is min(3, n) = 2, so its row is the
    # library's value with k = 2; k = 3 is over n, a flagged NaN row, and a
    # cell whose every trial failed prints its mean as nan
    small = ["bench-time", "--sizes", "5x2", "--lambdas", "1", "--ep", "0.1",
             "--methods", "sce", "--out", str(out)]
    r = run_cli(*small)
    assert r.returncode == 0, r.stderr
    (rec,) = read_bench_csv(io.StringIO(out.read_text()))
    (want,), _ = run_timing_bench([(5, 2)], [1.0], [0.1], trials=1, methods=["sce"],
                                  configs={"sce": SceConfig(k=2)})
    assert np.isfinite(rec.value) and rec.value == want.value
    assert "failures=0/1" in r.stderr
    r = run_cli(*small, "--sce-k", "3")
    assert r.returncode == 0, r.stderr
    (rec,) = read_bench_csv(io.StringIO(out.read_text()))
    assert np.isnan(rec.value)
    assert r.stderr.rstrip().endswith("method=sce: mean=nan var=0.000e+00 failures=1/1")


def test_bench_ratio_emits_csv(tmp_path):
    out = tmp_path / "ratios.csv"
    r = run_cli("bench-ratio", "--sizes", "12x8", "--lambdas", "5", "--ep", "0.1",
                "--trials", "2", "--seed", "1", "--out", str(out))
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
                "--trials", "2", "--vary-initial", "3", "--seed", "1", "--out", str(out))
    assert r.returncode == 0, r.stderr
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ",".join(BENCH_COLUMNS)
    assert len(lines) == 1 + 2 * 3
    assert all(line.split(",")[5] == "power" for line in lines[1:])


def test_bench_ratio_vary_initial_needs_a_group():
    r = run_cli("bench-ratio", "--sizes", "12x8", "--lambdas", "5", "--ep", "0.1",
                "--trials", "0", "--vary-initial", "2")
    assert r.returncode == 2
    assert r.stderr.startswith("stlscond: invalid arguments:")
    assert r.stdout == ""


@pytest.mark.parametrize("args", [
    ["gen", "--m", "1000000", "--n", "999999", "--lambda", "1", "--ep", "0.5"],
    ["bench-time", "--sizes", "8x3,1000000x999999", "--lambdas", "1", "--ep", "0.5"],
    ["bench-ratio", "--sizes", "1000000x999999", "--lambdas", "1", "--ep", "0.5"],
    ["bench-ratio", "--sizes", "1000000x999999", "--lambdas", "1", "--ep", "0.5",
     "--vary-initial", "2"],
])
def test_oversized_problem_is_refused_before_allocating(capsys, args):
    # the m x (n+1) matrix would take 7.3 TiB: the generator refuses it
    # from the shape, and no trial turns the refusal into NaN rows
    assert cli.main(args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("stlscond: over memory budget:") and err.count("\n") == 1


def test_host_memory_error_is_usage_error(problem_file, monkeypatch, capsys):
    # an allocation the host refuses, as kron's K does under a small
    # address-space limit, exits 2 like a budget refusal, without a traceback
    from stlscond import exact

    def refuse(sol, A):
        raise MemoryError("Unable to allocate 957. MiB for an array")

    monkeypatch.setattr(exact, "kappa_kron", refuse)
    assert cli.main(["cond", "--in", str(problem_file), "--method", "kron"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("stlscond: over memory budget: Unable to allocate")


# malformed --sizes cells; a valid one is at most 8 x 7, and an oversized
# one is refused from its shape before anything is allocated
BAD_SIZES = ["", "x", "8", "8x", "x3", "8x3x2", "3x8", "3x3", "0x0", "-8x3", "8x0", "8.5x3",
             "eightx3", "8 x 3"]
BAD_FLOATS = ["", "abc", "nan", "inf", "-inf", "-1", "0", "1e400", "1", "5e-324", "1e300"]


@st.composite
def size_texts(draw):
    cells = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["valid", "valid", "valid", "bad", "oversized"]))
        if kind == "bad":
            cells.append(draw(st.sampled_from(BAD_SIZES)))
            continue
        m = draw(st.integers(2, 8) if kind == "valid" else st.integers(2**27, 10**20))
        cells.append(f"{m}x{draw(st.integers(1, m - 1))}")
    return ",".join(cells)


def float_texts(valid):
    # mostly valid, so that most draws get as far as the trials
    return st.lists(st.one_of(*[valid.map(repr)] * 3, st.sampled_from(BAD_FLOATS)), min_size=1,
                    max_size=2).map(",".join)


@settings(max_examples=80, deadline=None)
@given(cmd=st.sampled_from(["bench-time", "bench-ratio"]), sizes=size_texts(),
       lambdas=float_texts(st.floats(1e-3, 1e3)), ep=float_texts(st.floats(1e-3, 0.99)),
       trials=st.sampled_from(["1", "2", "1", "2", "-1", "0", "", "1.5", "two"]),
       methods=st.lists(st.sampled_from([*METHODS, *METHODS, "", "qr", "all", "F2"]),
                        min_size=1, max_size=3).map(",".join),
       vary=st.sampled_from([None, None, "1", "3", "-1", "0", "", "two"]))
def test_bench_argument_errors_exit_with_a_documented_code(cmd, sizes, lambdas, ep, trials,
                                                           methods, vary):
    argv = [cmd, f"--sizes={sizes}", f"--lambdas={lambdas}", f"--ep={ep}", f"--trials={trials}"]
    if cmd == "bench-time":
        argv.append(f"--methods={methods}")
    elif vary is not None:
        argv.append(f"--vary-initial={vary}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2, 3, 4, 5), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    event(f"exit {code}")
    if code:
        assert out.getvalue() == "", argv


def check_bench_matches_library(tmp_path, flags, configs):
    """``bench-time``, ``bench-ratio`` and ``bench-ratio --vary-initial``
    with the estimator ``flags`` write the value columns of the library's
    runners with ``configs``: the CLI derives per-trial estimator seeds
    from --seed as the library does."""
    cell = ["--sizes", "12x8", "--lambdas", "1", "--ep", "0.1", "--trials", "2",
            "--seed", "4"]
    wall = BENCH_COLUMNS.index("wall_time_seconds")

    def cli_csv(*args):
        out = tmp_path / "out.csv"
        assert cli.main([*args, *cell, *flags, "--out", str(out)]) == 0
        return out.read_text()

    def library_csv(write, result):
        buf = io.StringIO()
        write(result, buf)
        return buf.getvalue()

    def values(text):
        return [row[:wall] + row[wall + 1:] for row in csv.reader(io.StringIO(text))]

    records, _ = run_timing_bench([(12, 8)], [1.0], [0.1], trials=2,
                                  methods=["power", "pce", "sce"], seed=4, configs=configs)
    assert values(cli_csv("bench-time", "--methods", "power,pce,sce")) == values(
        library_csv(write_bench_csv, records))
    groups, _ = run_ratio_bench([(12, 8)], [1.0], [0.1], trials=2, seed=4, configs=configs)
    assert cli_csv("bench-ratio") == library_csv(write_ratio_csv, groups)
    records = run_power_spread(12, 8, 1.0, 0.1, groups=2, inits=3, seed=4, configs=configs)
    assert values(cli_csv("bench-ratio", "--vary-initial", "3")) == values(
        library_csv(write_bench_csv, records))


def test_bench_value_columns_match_library(tmp_path):
    check_bench_matches_library(tmp_path, [], None)


def test_bench_value_columns_match_library_with_estimator_settings(tmp_path):
    # power stops after 4 sweeps on some trials, so its flagged NaN rows
    # are compared too
    check_bench_matches_library(
        tmp_path,
        ["--power-tol", "1e-6", "--power-max-iter", "4", "--pce-eps", "0.01",
         "--pce-theta", "0.05", "--sce-k", "2"],
        {"power": PowerConfig(tol=1e-6, max_iter=4), "pce": PceConfig(eps=0.01, theta=0.05),
         "sce": SceConfig(k=2)},
    )


# the documented exit code and stderr label of each kind of error, in the
# order cli.main matches them
EXIT_CASES = [
    (stlscond.ProblemFormatError, 3, "problem file error"),
    (OSError, 3, "I/O error"),
    (stlscond.NongenericProblemError, 4, "nongeneric problem"),
    (stlscond.NotPositiveDefiniteError, 4, "nongeneric problem"),
    (stlscond.DegenerateSingularVectorError, 4, "nongeneric problem"),
    (stlscond.ConvergenceError, 4, "did not converge"),
    (stlscond.NonFiniteError, 4, "out of floating-point range"),
    (stlscond.ZeroResidualError, 5, "degenerate problem"),
    (stlscond.ZeroSolutionError, 5, "degenerate problem"),
    (stlscond.MemoryBudgetError, 2, "over memory budget"),
    (MemoryError, 2, "over memory budget"),
    (ValueError, 2, "invalid arguments"),
    (stlscond.SampleTooLargeError, 2, "invalid arguments"),
]


def _raising(kind):
    def command(args):
        raise kind("the message")
    return command


@pytest.mark.parametrize("kind, code, label", EXIT_CASES,
                         ids=[kind.__name__ for kind, _, _ in EXIT_CASES])
def test_each_error_kind_exits_with_its_code(monkeypatch, capsys, kind, code, label):
    monkeypatch.setattr(cli, "cmd_solve", _raising(kind))
    assert cli.main(["solve", "--in", "unused.json"]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"stlscond: {label}: the message\n"


def test_an_unlisted_error_propagates(monkeypatch, capsys):
    monkeypatch.setattr(cli, "cmd_solve", _raising(RuntimeError))
    with pytest.raises(RuntimeError, match="the message"):
        cli.main(["solve", "--in", "unused.json"])
    assert capsys.readouterr() == ("", "")


def test_degenerate_singular_vector_in_the_solve_exit_code(tmp_path, capsys):
    # the trailing right singular vector's last component is 4.7e-15: the
    # solve itself refuses the problem
    path = tmp_path / "degenerate.json"
    save_problem(StlsProblem(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
                             np.array([1.0, 1.0, 1.0]), 1e14), path)
    assert cli.main(["cond", "--in", str(path)]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("stlscond: nongeneric problem:") and err.count("\n") == 1
