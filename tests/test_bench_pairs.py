"""The pair runner: its seed ranges, its per-metric summary and its --out file."""

import importlib.util
import json
import os
from types import SimpleNamespace

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


def _fake_checkouts(tmp_path, monkeypatch, shas, failed=None):
    """Two checkout directories whose HEADs read ``shas`` and whose runs
    return a fixed result line of 10 attempted ops, ``failed[side]`` of
    them failed (none by default), so ``main`` runs without perfbench."""
    roots = {}
    for side in ("parent", "change"):
        roots[side] = tmp_path / side
        roots[side].mkdir()
    (roots["change"] / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 20, "end_to_end": [{"name": "op_p50_s", "better": "lower"}]}))
    monkeypatch.setattr(bench_pairs, "head_sha", lambda root: shas[os.path.basename(root)])
    runs = []

    def run_once(root, workload, seed, seconds, trace=0):
        runs.append(seconds)
        return {"comments": ["# host"],
                "result": {"metrics": {"op_p50_s": {"value": 1.0}}, "attempted": 10,
                           "failed": (failed or {}).get(os.path.basename(root), 0),
                           "correct": True}}

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


def test_failed_run_keeps_the_completed_pairs(tmp_path, monkeypatch, capsys):
    # the third run fails: the first pair is summarized and kept in --out,
    # and the tool exits 1 with the run's stderr tail, not a traceback
    dirs, runs = _fake_checkouts(tmp_path, monkeypatch, {"parent": "p1", "change": "c1"})
    completed = bench_pairs.run_once

    def run_once(*args, **kwargs):
        if len(runs) == 2:
            raise RuntimeError("run.py exited 1: MemoryError in the worker")
        return completed(*args, **kwargs)

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(dirs + ["--workload", "w1", "--seeds", "1-3", f"--out={out}"]) == 1
    entry = json.loads(out.read_text())["workloads"]["w1"]
    assert [p["seed"] for p in entry["pairs"]] == [1]
    assert entry["summary"]["op_p50_s"]["pairs"] == 1
    captured = capsys.readouterr()
    assert "MemoryError in the worker" in captured.err and "Traceback" not in captured.err
    assert "1 pairs" in captured.out


def test_trace_runs_are_summarized_by_their_layers(tmp_path, monkeypatch):
    # --trace 1 is handed to run.py, the summary takes the per-layer
    # metrics and their directions, and the entry sits beside the untraced one
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 20, "end_to_end": [{"name": "op_p50_s", "better": "lower"}],
         "per_layer": [{"name": "estimate.pce_s", "better": "lower"},
                       {"name": "bench.pool_busy_frac", "better": "higher"}]}))
    monkeypatch.setattr(bench_pairs, "head_sha", lambda root: os.path.basename(root))
    argvs = []

    def fake_run(argv, **kwargs):
        argvs.append(argv)
        pce_s = 2.0 if os.path.join("parent", "perfbench") in argv[1] else 1.0
        line = json.dumps({"correct": True, "attempted": 10, "failed": 0, "metrics": {
            "estimate.pce_s": {"value": pce_s}, "bench.pool_busy_frac": {"value": 0.5}}})
        return SimpleNamespace(returncode=0, stdout="# host\n" + line + "\n", stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    out = str(tmp_path / "pairs.json")
    dirs = [f"--parent={tmp_path / 'parent'}", f"--change={tmp_path / 'change'}"]
    assert bench_pairs.main(dirs + ["--workload", "w1", "--seeds", "1-3", "--trace", "1",
                                    f"--out={out}"]) == 0
    assert len(argvs) == 6 and all(a[a.index("--trace") + 1] == "1" for a in argvs)
    with open(out, encoding="utf-8") as fh:
        entry = json.load(fh)["workloads"]["w1 --trace 1"]
    assert entry["trace"] == 1
    assert entry["summary"]["estimate.pce_s"]["change_wins"] == 3
    assert entry["summary"]["bench.pool_busy_frac"]["better"] == "higher"
    assert entry["summary"]["bench.pool_busy_frac"]["change_wins"] == 0


def _pairs(parent, change):
    return [_pair(p, c) for p, c in zip(parent, change)]


def test_verdicts_gain_worse_and_flat():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    lower = {"op_p50_s": "lower"}
    # 10/10 wins, and the medians 0.2 apart against a parent q3 - q1 of 0.04
    gain = bench_pairs.summarize(_pairs(parent, [0.8] * 10), lower, {"op_p50_s": 0.24})
    assert gain["op_p50_s"]["verdict"] == "gain"
    # 9/10 wins still gains; 8/10 does not
    nine = [0.8] * 9 + [1.5]
    assert bench_pairs.summarize(_pairs(parent, nine), lower)["op_p50_s"]["verdict"] == "gain"
    eight = [0.8] * 8 + [1.5, 1.5]
    assert bench_pairs.summarize(_pairs(parent, eight), lower)["op_p50_s"]["verdict"] == "flat"
    # every pair won, but by less than the parent's interquartile range
    small = [p - 0.005 for p in parent]
    assert bench_pairs.summarize(_pairs(parent, small), lower)["op_p50_s"]["verdict"] == "flat"
    # 30% slower: worse past a 0.24 bound, flat past none or a 0.5 bound
    slow = [1.3 * p for p in parent]
    for bounds, expected in (({"op_p50_s": 0.24}, "worse"), (None, "flat"),
                             ({"op_p50_s": 0.5}, "flat")):
        assert bench_pairs.summarize(_pairs(parent, slow), lower, bounds)["op_p50_s"][
            "verdict"] == expected
    # the parent's runs spread wider than the bound (q3 - q1 = 0.45 at a
    # median of 1): 10% slower is unresolved, not flat, and so is 10%
    # faster; a change whose every run beats every parent run is resolved
    wide = [1.0, 1.3, 0.7, 1.2, 0.8, 1.35, 0.65, 1.1, 0.9, 1.0]
    for factor, expected in ((1.1, "unresolved"), (0.9, "unresolved"), (0.6, "flat")):
        change = [0.6] * 10 if factor == 0.6 else [factor * p for p in wide]
        assert bench_pairs.summarize(_pairs(wide, change), lower, {"op_p50_s": 0.24})[
            "op_p50_s"]["verdict"] == expected
    assert bench_pairs.summarize(_pairs(wide, [1.1 * p for p in wide]), lower)[
        "op_p50_s"]["verdict"] == "flat"
    # "higher" is better: the reciprocal metric gives the same verdicts
    higher = {"ops_per_s": "higher"}
    assert bench_pairs.summarize(_pairs(parent, [0.8] * 10), higher,
                                 {"ops_per_s": 0.24})["ops_per_s"]["verdict"] == "gain"
    assert bench_pairs.summarize(_pairs(parent, slow), higher,
                                 {"ops_per_s": 0.2})["ops_per_s"]["verdict"] == "worse"


def test_verdict_is_printed_and_recorded(tmp_path, monkeypatch, capsys):
    dirs, _ = _fake_checkouts(tmp_path, monkeypatch, {"parent": "p1", "change": "c1"})
    out = str(tmp_path / "pairs.json")
    assert bench_pairs.main(dirs + ["--workload", "w1", "--seeds", "1-2", f"--out={out}"]) == 0
    with open(out, encoding="utf-8") as fh:
        summary = json.load(fh)["workloads"]["w1"]["summary"]
    assert summary["op_p50_s"]["verdict"] == "flat"
    assert "flat" in capsys.readouterr().out


@pytest.mark.parametrize("failed, worse", [({"parent": 1, "change": 2}, True),
                                           ({"parent": 2, "change": 2}, False),
                                           ({"parent": 2, "change": 1}, False)])
def test_failed_op_share_is_judged(tmp_path, monkeypatch, capsys, failed, worse):
    # the share is failed over attempted across the pairs, 10 ops a run;
    # a larger share on the change's side is a worse line
    dirs, _ = _fake_checkouts(tmp_path, monkeypatch, {"parent": "p1", "change": "c1"}, failed)
    assert bench_pairs.main(dirs + ["--workload", "w1", "--seeds", "1-2"]) == 0
    out = capsys.readouterr().out
    for side in ("parent", "change"):
        assert f"{side}: correct=True failed ops={2 * failed[side]} of 20" in out
    assert ("failed-op share: worse" in out) == worse
