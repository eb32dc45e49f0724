"""Worker side of the benchmark: the tracer, the closed measurement loop and
the entry point of the worker process.

The parent builds the inputs and starts one worker per workload, so the
worker's peak resident memory is the workload's own.  Run as a script:

    python3 perfbench/measure.py JOB.pkl RESULT.pkl

with ``src/`` on ``PYTHONPATH``; ``run.py`` does this.
"""

from __future__ import annotations

import contextlib
import json
import pickle
import resource
import signal
import statistics
import sys
import time
import traceback

from layers import measure_layers
from workloads import FAILED, WORKLOADS


class Tracer:
    """Spans kept in memory: name, start, end, parent span and op id."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None

    @contextlib.contextmanager
    def span(self, name):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def summary(self):
        """Per span name: count, median duration and median self time (the
        duration minus the part covered by child spans)."""
        child = {}
        for rec in self.spans:
            if rec["parent"] is not None:
                child[rec["parent"]] = child.get(rec["parent"], 0.0) + duration(rec)
        by_name = {}
        for rec in self.spans:
            d = duration(rec)
            by_name.setdefault(rec["name"], []).append((d, d - child.get(rec["id"], 0.0)))
        return {
            name: {
                "count": len(rows),
                "p50_s": statistics.median(r[0] for r in rows),
                "self_p50_s": statistics.median(r[1] for r in rows),
            }
            for name, rows in by_name.items()
        }


class NullTracer:
    """Records nothing; used by the untraced runs."""

    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null


NULL_TRACER = NullTracer()


def duration(rec) -> float:
    return rec["end"] - rec["start"]


def cpu_seconds() -> float:
    """User + system CPU of this process and of its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def run_loop(w, inputs, seconds, tracer=None):
    """Closed loop with one caller: calls back to back until ``seconds``
    have passed.  With a tracer, calls alternate between untraced and
    traced so that both see the same conditions.

    Returns the calls per traced flag, each as (wall, cpu, ops) with ops a
    list of (latency, verdict), plus the tracebacks of failed calls.
    """
    calls = {False: [], True: []}
    errors = []
    min_calls = 1 if tracer is None else 2
    deadline = time.perf_counter() + seconds
    k = 0
    while k < min_calls or time.perf_counter() < deadline:
        args = w.prepare(inputs, k)
        traced = tracer is not None and k % 2 == 1
        tr = tracer if traced else NULL_TRACER
        if traced:
            tracer.op = k
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            with tr.span("op"):
                out = w.call(args, tr)
            wall = time.perf_counter() - t0
            cpu = cpu_seconds() - c0
            judged = w.judge(args, out)
        except Exception:  # a failed op is counted, not fatal to the run
            wall = time.perf_counter() - t0
            cpu = cpu_seconds() - c0
            errors.append(f"call {k}: " + traceback.format_exc(limit=3))
            judged = [(None, FAILED)] * w.ops_per_call(inputs)
        ops = [(wall if lat is None else lat, v) for lat, v in judged]
        calls[traced].append((wall, cpu, ops))
        k += 1
    return calls, errors


def peak_rss_mb(w) -> float:
    who = resource.RUSAGE_CHILDREN if w.rss_of_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def measure(name, inputs, seconds):
    """Untraced run: the raw samples behind the end-to-end metrics."""
    w = WORKLOADS[name]
    calls, errors = run_loop(w, inputs, seconds)
    return {"calls": calls[False], "peak_rss_mb": peak_rss_mb(w), "errors": errors}


def measure_traced(name, all_inputs, seconds, reps, trace_path, host):
    """Traced run: the workload's own loop, alternating traced and untraced
    calls for the tracing overhead, then the layer suite.  Writes every
    span to ``trace_path``."""
    tracer = Tracer()
    calls, errors = run_loop(WORKLOADS[name], all_inputs[name], seconds, tracer)
    metrics = measure_layers(all_inputs, reps, tracer)
    p50 = {
        flag: statistics.median(lat for _, _, ops in rows for lat, _ in ops)
        for flag, rows in calls.items()
    }
    metrics["trace.overhead_s"] = p50[True] - p50[False]
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({
            "workload": name,
            "host": host,
            "metrics": metrics,
            "span_summary": tracer.summary(),
            "spans": tracer.spans,
        }, fh)
    verdicts = [v for _, _, ops in calls[False] + calls[True] for _, v in ops]
    return {"metrics": metrics, "verdicts": verdicts, "errors": errors}


def worker_main(job_path, result_path):
    """Run the measurement pickled in ``job_path`` as ``(function name,
    kwargs)`` and pickle ("ok", result) or ("error", text) to
    ``result_path``."""
    try:
        with open(job_path, "rb") as fh:
            fn, kwargs = pickle.load(fh)
        out = ("ok", {"measure": measure, "measure_traced": measure_traced}[fn](**kwargs))
    except Exception:
        out = ("error", traceback.format_exc())
    with open(result_path, "wb") as fh:
        pickle.dump(out, fh)


def _stop(signum, frame):
    # raised inside the loop, so a running CLI child is killed and waited
    # for by subprocess.run before the worker exits
    raise SystemExit(f"worker stopped by signal {signum}")


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _stop)
    worker_main(sys.argv[1], sys.argv[2])
