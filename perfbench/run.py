#!/usr/bin/env python3
"""Layered benchmark of stlscond.

Run from the repository root:

    python3 perfbench/run.py --workload exact-square --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --workload all --seed 1 --seconds 0.2 --trace 1 --smoke

``--trace 0`` prints the end-to-end metrics of the workload, ``--trace 1``
the per-layer metrics of the traced run and the tracing overhead.  The
last line of the output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The benchmark imports
``stlscond`` from ``src/`` of the checkout it sits in and exits with code 2
when that source is missing.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import pickle
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("cli-tall", "exact-square", "estimate-gauss", "grid-small")
RUN_BUDGET_S = 170.0
STOP_GRACE_S = 5.0

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "cpu_s_per_op": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.interp_s": "s",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "problem.json_mb": "MB",
    "problem.load_problem_s": "s",
    "problem.check_genericity_s": "s",
    "problem.solve_stls_s": "s",
    "numerics.spd_factor_s": "s",
    "exact.kappa_f1_s": "s",
    "exact.kappa_f2_s": "s",
    "exact.kappa_kron_s": "s",
    "exact.kron_mb": "MB-computed",
    "estimate.apply_KT_s": "s",
    "estimate.apply_K_s": "s",
    "estimate.power_method_s": "s",
    "estimate.power_sweeps": "count",
    "estimate.power_sweep_s": "s",
    "estimate.pce_s": "s",
    "estimate.pce_cg_s": "s",
    "estimate.sce_s": "s",
    "estimate.sce_ratio_p50": "ratio",
    "generate.generate_s": "s",
    "bench.pool_busy_frac": "fraction",
    "bench.kron_s": "s",
    "bench.f1_s": "s",
    "bench.f2_s": "s",
    "bench.power_s": "s",
    "bench.pce_s": "s",
    "bench.sce_s": "s",
    "trace.overhead_s": "s",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measured wall time of the op loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes and one set-up, for the benchmark's own test")
    return ap.parse_args(argv)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_facts() -> dict:
    import numpy
    import scipy

    from workloads import nproc

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 prints instead of returning
        blas_name = "unknown"
    return {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def in_worker(fn, kwargs, timeout, workdir):
    """Run ``measure.<fn>(**kwargs)`` in a fresh interpreter and return its
    result.  When this returns, the worker and every process it started
    have ended."""
    job = os.path.join(workdir, "job.pkl")
    result = os.path.join(workdir, "result.pkl")
    with open(job, "wb") as fh:
        pickle.dump((fn, kwargs), fh)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # the worker's stdout goes to stderr, so the result line stays last
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "measure.py"), job, result],
                            env=env, stdout=sys.stderr, start_new_session=True)
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"worker gave no result within {timeout:.0f} s") from None
    finally:
        if proc.returncode is None:
            # SIGTERM lets the worker kill and wait for its own children;
            # SIGKILL to the whole group is the last resort
            proc.terminate()
            try:
                proc.wait(timeout=STOP_GRACE_S)
            except subprocess.TimeoutExpired:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    try:
        with open(result, "rb") as fh:
            status, payload = pickle.load(fh)
    except (OSError, EOFError):
        raise RuntimeError(f"worker ended with code {proc.returncode} and no result") from None
    if status != "ok":
        raise RuntimeError(payload)
    return payload


def tail(latencies):
    """Highest percentile with at least 10 ops beyond it, by nearest rank:
    (value, percentile, ops beyond).  With fewer than 20 ops no percentile
    from the median up qualifies, and the median is returned."""
    xs = sorted(latencies)
    n = len(xs)
    p = 100 * (n - 10) // n if n > 10 else 0
    if p <= 50:
        return statistics.median(xs), 50, n // 2
    k = math.ceil(p * n / 100)
    return xs[k - 1], p, n - k


def end_to_end(setup_times, res):
    calls = res["calls"]
    lat = [t for _, _, ops in calls for t, _ in ops]
    tail_value, tail_p, beyond = tail(lat)
    # Ops per second of call wall time, as the median over calls: the mean
    # over a run moves by 20% between seeds on estimate-gauss, whose power
    # sweeps are heavy-tailed.  On the one-op-per-call workloads this is
    # 1/op_p50_s; on grid-small a call is a round of problems on the pool.
    rates = [len(ops) / wall for wall, _, ops in calls]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail_value,
        "ops_per_s": statistics.median(rates),
        "cpu_s_per_op": statistics.median(cpu / len(ops) for _, cpu, ops in calls),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "op_tail_s": f"p{tail_p} of {len(lat)} ops, {beyond} beyond",
        "ops_per_s": f"median of {len(rates)} calls",
    }
    return metrics, notes


def run_one(name, args, host):
    """Set up, measure in a worker, and return (result, notes)."""
    import workloads

    started = time.monotonic()
    sizes = workloads.SMOKE_SIZES if args.smoke else workloads.FULL_SIZES
    reps = 1 if args.smoke else 3
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        if args.trace:
            inputs = {n: workloads.WORKLOADS[n].setup(sizes, args.seed, workdir)
                      for n in WORKLOAD_NAMES}
            trace_path = os.path.join(OUT, f"trace-{name}-seed{args.seed}.json")
            res = in_worker("measure_traced", {
                "name": name, "all_inputs": inputs, "seconds": args.seconds,
                "reps": reps, "trace_path": trace_path, "host": host,
            }, RUN_BUDGET_S - (time.monotonic() - started), workdir)
            metrics, units = res["metrics"], PER_LAYER
            notes = {"spans": os.path.relpath(trace_path, ROOT)}
        else:
            w = workloads.WORKLOADS[name]
            setup_times = []
            for _ in range(reps):
                t0 = time.perf_counter()
                inputs = w.setup(sizes, args.seed, workdir)
                setup_times.append(time.perf_counter() - t0)
            res = in_worker("measure", {
                "name": name, "inputs": inputs, "seconds": args.seconds,
            }, RUN_BUDGET_S - (time.monotonic() - started), workdir)
            metrics, notes = end_to_end(setup_times, res)
            res["verdicts"] = [v for _, _, ops in res["calls"] for _, v in ops]
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    verdicts = res["verdicts"]
    attempted = len(verdicts)
    wrong = verdicts.count(workloads.WRONG)
    failed = attempted - verdicts.count(workloads.OK)
    notes["failed_ops_frac"] = (f"{failed / attempted:.6g} ({failed} of {attempted}: "
                                f"{failed - wrong} without a result, {wrong} wrong)")
    for err in res["errors"][:3]:
        print(f"# {name} failed call: {err}", file=sys.stderr)
    result = {
        # a failed op that returned no result is counted in "failed"; a
        # result that disagrees with its reference makes the run incorrect
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return result, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so a running worker is stopped and waited for
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    if not os.path.isfile(os.path.join(SRC, "stlscond", "__init__.py")):
        print(f"perfbench: no stlscond source under {SRC}", file=sys.stderr)
        return 2
    # the benchmark's modules import stlscond, so they are imported only
    # after this point
    sys.path.insert(0, SRC)
    host = host_facts()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        result, notes = run_one(name, args, host)
        print(f"# {name}  seed={args.seed}  seconds={args.seconds}  trace={args.trace}"
              f"{'  smoke' if args.smoke else ''}")
        print("# host " + json.dumps(host, sort_keys=True))
        for key, m in result["metrics"].items():
            note = f"  ({notes[key]})" if key in notes else ""
            print(f"#   {key:<28} {m['value']:>14.6g} {m['unit']}{note}")
        for key in ("failed_ops_frac", "spans"):
            if key in notes:
                print(f"#   {key:<28} {notes[key]}")
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
