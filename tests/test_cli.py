"""End-to-end CLI tests through subprocess: exit codes, formats, determinism."""

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stlscond import (
    ProblemFormatError,
    StlsProblem,
    cli,
    load_problem,
    problem_from_dict,
    save_problem,
    solve_stls,
)
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
    # it is loaded only where a fallback or pce(solver="cg") calls it
    loaded = probe_modules("scipy", args, problem_file, tmp_path / "out")
    assert loaded == [], loaded


@pytest.mark.parametrize("args, reads_file", [
    pytest.param((), False, id="import"),
    pytest.param(("gen", "--m", "6", "--n", "4", "--lambda", "1", "--ep", "0.1"), False,
                 id="gen"),
    pytest.param(("bench-time", "--sizes", "6x4", "--lambdas", "1", "--ep", "0.1",
                  "--methods", "f2"), False, id="bench-time"),
    pytest.param(("solve", "--in", "{in}"), True, id="solve"),
    pytest.param(("cond", "--in", "{in}"), True, id="cond"),
])
def test_json_parser_loads_only_for_files(problem_file, tmp_path, args, reads_file):
    # pydantic_core's import adds about 10 MB RSS, so only the commands
    # that read a problem or config file load it
    loaded = probe_modules("pydantic_core", args, problem_file, tmp_path / "out")
    assert bool(loaded) == reads_file, loaded


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
    pytest.param(b"[" * 200_000, id="deep-nesting"),
    pytest.param(b"\xff\xfe{", id="not-utf8"),
    pytest.param(b'{"power": {"tol": 1e-6}', id="truncated"),
])
def test_malformed_config_is_usage_error(problem_file, tmp_path, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(config if isinstance(config, bytes) else json.dumps(config).encode())
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


@pytest.mark.parametrize("cmd", ["solve", "cond"])
def test_convergence_failure_exit_code(problem_file, monkeypatch, capsys, dlasd4_failing, cmd):
    # dlasd4 failing on the secular equation raises ConvergenceError,
    # which ends in exit 4 and one stderr line, not a traceback
    from stlscond import cli, numerics

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


@pytest.mark.parametrize("over", ["problem", "config"])
def test_file_over_the_load_budget_is_refused(problem_file, tmp_path, monkeypatch, capsys, over):
    # the size is checked before the file is opened: a load peaks at 3-4
    # times it.  The config file is padded past the problem file's size
    from stlscond import problem

    size = os.path.getsize(problem_file)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"seed": 1}' + " " * (size if over == "config" else 0))
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
])
def test_malformed_problem_structure_is_io_error(tmp_path, cmd, text):
    path = tmp_path / "bad.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    r = run_cli(cmd, "--in", str(path))
    assert r.returncode == 3
    assert "Traceback" not in r.stderr
    assert r.stderr.startswith("stlscond: problem file error:")


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
def test_both_parsers_refuse_entries_beyond_the_float_range(literal, where, i, j):
    doc = copy.deepcopy(VALID_DOC)
    if where == "A":
        doc["A"][i][j] = "__entry__"
    elif where == "b":
        doc["b"][i] = "__entry__"
    else:
        doc["lambda"] = "__entry__"
    text = json.dumps(doc).replace('"__entry__"', literal)
    with pytest.raises(ProblemFormatError):
        problem_from_dict(json.loads(text))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["solve", "--in", path])
    assert code == 3
    assert err.getvalue().startswith("stlscond: problem file error:")


VALID_CONFIG = {"seed": 3, "power": {"tol": 1e-6, "max_iter": 200},
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


def test_bench_value_columns_match_library(tmp_path):
    # the CLI derives per-trial estimator seeds from --seed as the library
    # does, so the value columns agree for the same root seed
    cell = ["--sizes", "12x8", "--lambdas", "1", "--ep", "0.1", "--trials", "2",
            "--seed", "4"]
    out = tmp_path / "time.csv"
    r = run_cli("bench-time", *cell, "--methods", "power,pce,sce", "--out", str(out))
    assert r.returncode == 0, r.stderr
    cli_values = [float(line.split(",")[6])
                  for line in out.read_text().strip().splitlines()[1:]]
    records, _ = run_timing_bench(
        [(12, 8)], [1.0], [0.1], trials=2, methods=["power", "pce", "sce"],
        seed=4,
    )
    assert cli_values == pytest.approx([rec.value for rec in records], rel=1e-12)

    out = tmp_path / "ratio.csv"
    r = run_cli("bench-ratio", *cell, "--out", str(out))
    assert r.returncode == 0, r.stderr
    cli_ratios = [[float(v) for v in line.split(",")[1:]]
                  for line in out.read_text().strip().splitlines()[1:]]
    groups, _ = run_ratio_bench([(12, 8)], [1.0], [0.1], trials=2, seed=4)
    lib_ratios = [[rec.ratio1, rec.ratio2, rec.ratio3] for rec in groups[0][1]]
    assert np.allclose(cli_ratios, lib_ratios, rtol=1e-12, atol=0.0)
