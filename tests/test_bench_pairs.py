"""The pair runner: its seed ranges, its per-metric summary and its --out file."""

import importlib.util
import json
import os

import pytest

PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_pairs.py")
spec = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_parse_seeds():
    assert bench_pairs.parse_seeds("21-24") == [21, 22, 23, 24]
    assert bench_pairs.parse_seeds("7") == [7]
    with pytest.raises(ValueError):
        bench_pairs.parse_seeds("5-4")


def _pair(parent, change):
    return {side: {"result": {"metrics": {"op_p50_s": {"value": v}, "ops_per_s": {"value": 1 / v}}}}
            for side, v in (("parent", parent), ("change", change))}


def test_summary_counts_wins_by_direction_and_not_ties():
    pairs = [_pair(2.0, 1.0), _pair(3.0, 1.5), _pair(1.0, 1.0), _pair(1.0, 4.0), _pair(4.0, 2.0)]
    s = bench_pairs.summarize(pairs, {"op_p50_s": "lower", "ops_per_s": "higher"})
    for metric in ("op_p50_s", "ops_per_s"):
        assert s[metric]["change_wins"] == 3 and s[metric]["pairs"] == 5
    assert s["op_p50_s"]["parent"]["median"] == 2.0
    assert s["op_p50_s"]["change"]["median"] == 1.5
    q = s["op_p50_s"]["parent"]
    assert q["q1"] <= q["median"] <= q["q3"]


def _fake_checkouts(tmp_path, monkeypatch, shas):
    """Two checkout directories whose HEADs read ``shas`` and whose runs
    return a fixed result line, so ``main`` runs without perfbench."""
    roots = {}
    for side in ("parent", "change"):
        roots[side] = tmp_path / side
        roots[side].mkdir()
    (roots["change"] / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 20, "end_to_end": [{"name": "op_p50_s", "better": "lower"}]}))
    monkeypatch.setattr(bench_pairs, "head_sha", lambda root: shas[os.path.basename(root)])
    runs = []

    def run_once(root, workload, seed, seconds):
        runs.append(seconds)
        return {"comments": ["# host"],
                "result": {"metrics": {"op_p50_s": {"value": 1.0}}, "failed": 0, "correct": True}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    return [f"--parent={roots['parent']}", f"--change={roots['change']}"], runs


def test_out_file_is_created_and_extended(tmp_path, monkeypatch):
    dirs, runs = _fake_checkouts(tmp_path, monkeypatch, {"parent": "p1", "change": "c1"})
    out = str(tmp_path / "pairs.json")
    for workload in ("w1", "w2"):
        assert bench_pairs.main(dirs + ["--workload", workload, "--seeds", "1-2",
                                        f"--out={out}"]) == 0
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["sha"] == {"parent": "p1", "change": "c1"}
    assert sorted(doc["workloads"]) == ["w1", "w2"]
    assert doc["workloads"]["w1"]["seconds"] == 20
    assert runs == [20] * 8  # run_seconds of the change's BENCHMARK.json


def test_out_file_of_other_commits_is_refused(tmp_path, monkeypatch, capsys):
    out = tmp_path / "pairs.json"
    recorded = json.dumps({"sha": {"parent": "p0", "change": "c0"},
                           "workloads": {"w1": {"pairs": []}}})
    out.write_text(recorded)
    dirs, runs = _fake_checkouts(tmp_path, monkeypatch, {"parent": "p1", "change": "c1"})
    assert bench_pairs.main(dirs + ["--workload", "w1", "--seeds", "1", f"--out={out}"]) == 2
    assert out.read_text() == recorded and runs == []
    err = capsys.readouterr().err
    assert "p0" in err and "c0" in err and "p1" in err and "c1" in err
