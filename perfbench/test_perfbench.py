"""The benchmark's own test: seeded inputs, metric names and a smoke run.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import workloads  # noqa: E402
from stlscond import StlsProblem  # noqa: E402


def _same(a, b) -> bool:
    """Bit-for-bit equality of nested inputs."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, StlsProblem):
        return _same(a.A, b.A) and _same(a.b, b.b) and a.lam == b.lam
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


def _inputs(name, seed, workdir):
    """Setup output with the problem file replaced by its bytes and the
    first op's arguments, which hold the Gaussian problem."""
    os.makedirs(workdir, exist_ok=True)
    w = workloads.WORKLOADS[name]
    inp = w.setup(workloads.SMOKE_SIZES, seed, str(workdir))
    if "path" in inp:
        with open(inp.pop("path"), "rb") as fh:
            inp["file"] = fh.read()
        return inp
    return inp, w.prepare(inp, 0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(tmp_path, name):
    first = _inputs(name, 7, tmp_path / "a")
    assert _same(first, _inputs(name, 7, tmp_path / "b"))
    assert not _same(first, _inputs(name, 8, tmp_path / "c"))


def _results(args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    return proc, results


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_benchmark_metrics(trace, key):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {m["name"]: m["unit"] for m in spec[key]}
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    proc, results = _results(["--workload", "all", "--seed", "3", "--seconds", "0.1",
                              "--trace", str(trace), "--smoke"])
    assert proc.returncode == 0, proc.stderr
    assert len(results) == len(workloads.WORKLOADS)
    assert proc.stdout.splitlines()[-1].startswith("{")
    for res in results:
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
        assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())


def test_refuses_to_run_without_the_library_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, results = _results(["--workload", "cli-tall", "--seed", "1", "--seconds", "1",
                              "--trace", "0"], cwd=str(tmp_path))
    assert proc.returncode != 0
    assert results == []
