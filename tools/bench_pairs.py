#!/usr/bin/env python3
"""Alternating parent/change pairs of perfbench runs, with their summary.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload estimate-gauss --seeds 21-30 --out BENCH_9.json

For each seed, runs ``DIR/perfbench/run.py --workload W --seed S
--seconds T --trace X`` in both checkouts, one after the other, with T the
``run_seconds`` of the change's BENCHMARK.json and X the ``--trace`` given
here (default 0).  The side that runs first
alternates from pair to pair: on a small host the first run of a
back-to-back pair can read slower, whichever commit it is.

Prints, per end-to-end metric (per-layer metric with ``--trace 1``), each
side's median and quartiles over the pairs, the number of pairs the
change won (ties count for neither), with the direction of "better" taken
from the same file, and a verdict:

* ``gain``: the change won at least 9 of 10 pairs, and its median is
  better than the parent's by more than the parent's q3 - q1;
* ``worse``: the change's median is worse than the parent's by more than
  the metric's relative ``bound`` in the same file (metrics without one
  are never worse);
* ``unresolved``: neither, but the parent's own q3 - q1 is wider than
  the bound times its median, so a change as large as the bound could
  hide in the spread, and not every change run is better than every
  parent run;
* ``flat``: none of these.

Then it prints each side's failed-op share, the sum of ``failed`` over the
sum of ``attempted`` across the pairs, and a ``worse`` line when the
change's share is larger than the parent's.

``--out`` keeps every result line, each run's ``#`` lines (the host line
among them) and both checkouts' ``git rev-parse HEAD`` in one JSON file.
A file that already holds runs of the same two commits gains or replaces
the entry of this workload (``W --trace 1`` for traced runs), so one file
can hold every workload, traced and not; a file
that holds runs of another pair of commits is left as it is, and the tool
exits 2 before running anything.  A run that fails (exits non-zero,
prints no result line or times out) ends the tool with exit 1 and the
run's stderr tail; the pairs completed before it are summarized and kept
in ``--out`` as above.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN_TIMEOUT_S = 600.0


def parse_seeds(text: str) -> list[int]:
    lo, sep, hi = text.partition("-")
    first, last = int(lo), int(hi) if sep else int(lo)
    if last < first:
        raise ValueError(f"empty seed range {text!r}")
    return list(range(first, last + 1))


def head_sha(root: str) -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip()


def run_once(root: str, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One perfbench run: its ``#`` lines and its parsed result line."""
    argv = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or lines[-1].startswith("#"):
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return {"comments": [ln for ln in lines if ln.startswith("#")],
            "result": json.loads(lines[-1])}


def open_out(path: str, shas: dict) -> dict:
    """The document ``--out`` extends: the file's, if it records the same
    two commits, or a new one if there is no file.  Raises ValueError when
    the file records another pair, so earlier runs are never dropped."""
    if not os.path.exists(path):
        return {"sha": shas, "workloads": {}}
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("sha") != shas:
        raise ValueError(f"{path} records {doc.get('sha')}, not {shas}; "
                         f"name another --out file")
    return doc


def verdict(s: dict, bound: float | None) -> str:
    """``gain``, ``worse``, ``unresolved`` or ``flat`` for one metric's
    summary ``s``."""
    sign = 1.0 if s["better"] == "lower" else -1.0
    parent, change = s["parent"], s["change"]
    gain = sign * (parent["median"] - change["median"])  # > 0: the change is better
    spread = parent["q3"] - parent["q1"]
    if 10 * s["change_wins"] >= 9 * s["pairs"] and gain > spread:
        return "gain"
    if bound is None:
        return "flat"
    if -gain > bound * abs(parent["median"]):
        return "worse"
    # the change's worst run against the parent's best
    worst, best = (change["max"], parent["min"]) if sign > 0 else (-change["min"], -parent["max"])
    if spread > bound * abs(parent["median"]) and not worst < best:
        return "unresolved"
    return "flat"


def summarize(pairs: list[dict], better: dict, bounds: dict | None = None) -> dict:
    """Per metric: each side's median, quartiles and extremes, the
    change's wins and the verdict, with ``bounds`` the relative bound of
    each metric that has one."""
    out = {}
    for metric, direction in better.items():
        values = {side: [p[side]["result"]["metrics"][metric]["value"] for p in pairs]
                  for side in ("parent", "change")}
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
        out[metric] = {"better": direction, "change_wins": wins, "pairs": len(pairs)}
        for side, xs in values.items():
            q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
            out[metric][side] = {"median": med, "q1": q1, "q3": q3, "min": min(xs),
                                 "max": max(xs)}
        out[metric]["verdict"] = verdict(out[metric], (bounds or {}).get(metric))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="inclusive range A-B, or one seed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: traced runs, summarized by their per-layer metrics")
    ap.add_argument("--out", default=None, help="JSON file to write or extend")
    args = ap.parse_args(argv)
    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    shas = {side: head_sha(root) for side, root in roots.items()}
    with open(os.path.join(roots["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    metrics = bench["per_layer" if args.trace else "end_to_end"]
    better = {m["name"]: m["better"] for m in metrics}
    bounds = {m["name"]: m["bound"] for m in metrics if "bound" in m}
    entry = f"{args.workload} --trace 1" if args.trace else args.workload
    seconds = bench["run_seconds"]
    doc = None
    if args.out:
        try:
            doc = open_out(args.out, shas)
        except ValueError as err:
            print(f"bench_pairs: {err}", file=sys.stderr)
            return 2

    pairs, failure = [], None
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        try:
            for side in order:
                print(f"# seed {seed}: {side}", file=sys.stderr, flush=True)
                pair[side] = run_once(roots[side], args.workload, seed, seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired) as err:
            failure = err
            break
        pairs.append(pair)

    if pairs:
        summary = report(pairs, better, bounds, entry, shas, seconds)
        if doc is not None:
            doc["workloads"][entry] = {"seconds": seconds, "trace": args.trace,
                                       "summary": summary, "pairs": pairs}
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1, sort_keys=True)
                fh.write("\n")
    if failure is not None:
        print(f"bench_pairs: {failure}", file=sys.stderr)
        if pairs and doc is not None:
            print(f"bench_pairs: {len(pairs)} completed pairs kept in {args.out}",
                  file=sys.stderr)
        return 1
    return 0


def report(pairs, better, bounds, entry, shas, seconds) -> dict:
    """Print the summary of ``pairs`` and each side's failed-op share, and
    return the summary."""
    summary = summarize(pairs, better, bounds)
    print(f"{entry}: parent {shas['parent'][:12]}  change {shas['change'][:12]}  "
          f"{len(pairs)} pairs, {seconds:g} s runs")
    width = max(len(metric) for metric in summary)
    print(f"{'metric':<{width}} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} "
          f"wins  verdict")
    for metric, s in summary.items():
        cells = [f"{s[side]['median']:.4g} [{s[side]['q1']:.4g}, {s[side]['q3']:.4g}]"
                 for side in ("parent", "change")]
        wins = f"{s['change_wins']}/{s['pairs']}"
        print(f"{metric:<{width}} {cells[0]:>34} {cells[1]:>34} {wins:>5} {s['verdict']}")
    share = {}
    for side in ("parent", "change"):
        failed = sum(p[side]["result"]["failed"] for p in pairs)
        attempted = sum(p[side]["result"]["attempted"] for p in pairs)
        correct = all(p[side]["result"]["correct"] for p in pairs)
        share[side] = failed / attempted if attempted else 0.0
        print(f"{side}: correct={correct} failed ops={failed} of {attempted} "
              f"(share {share[side]:.4g})")
    if share["change"] > share["parent"]:
        print(f"failed-op share: worse ({share['parent']:.4g} -> {share['change']:.4g})")
    return summary


if __name__ == "__main__":
    sys.exit(main())
