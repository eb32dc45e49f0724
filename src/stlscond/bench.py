"""Benchmark harness: timing records, accuracy ratios, CSV round-trip.

Two record types with fixed, versioned CSV schemas (schema version 1):

* timing rows:  m,n,lambda,e_p,seed,method,value,wall_time_seconds,iterations,trial_index
* ratio rows:   trial_index,ratio1,ratio2,ratio3

Timing measures the condition evaluation only; problem generation and the
solve are excluded.  Value columns are reproducible for a fixed root seed:
per-trial seeds are derived through ``numpy.random.SeedSequence`` with the
(cell index, trial index) spawn key.  Wall-time columns are exempt from
reproducibility.  Trials inside a cell may run on a thread pool capped by
the ``STLSCOND_THREADS`` environment variable (default: available cores);
output order is by (cell, trial) regardless of completion order.
"""

from __future__ import annotations

import csv
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import StlsError
from .estimate import METHODS, PceConfig, PowerConfig, SceConfig, power_method
from .generate import GeneratorSpec, generate
from .problem import solve_stls

CSV_SCHEMA_VERSION = 1
BENCH_COLUMNS = [
    "m", "n", "lambda", "e_p", "seed", "method",
    "value", "wall_time_seconds", "iterations", "trial_index",
]
RATIO_COLUMNS = ["trial_index", "ratio1", "ratio2", "ratio3"]


@dataclass
class BenchRecord:
    """One timing/accuracy measurement row."""

    m: int
    n: int
    lam: float
    e_p: float
    seed: int
    method: str
    value: float  # NaN flags a failed evaluation
    wall_time_seconds: float
    iterations: int | None
    trial_index: int

    def to_row(self) -> list[str]:
        return [
            str(self.m), str(self.n), repr(self.lam), repr(self.e_p),
            str(self.seed), self.method, repr(self.value),
            repr(self.wall_time_seconds),
            "" if self.iterations is None else str(self.iterations),
            str(self.trial_index),
        ]

    @classmethod
    def from_row(cls, row: list[str]) -> "BenchRecord":
        return cls(
            m=int(row[0]), n=int(row[1]), lam=float(row[2]), e_p=float(row[3]),
            seed=int(row[4]), method=row[5], value=float(row[6]),
            wall_time_seconds=float(row[7]),
            iterations=None if row[8] == "" else int(row[8]),
            trial_index=int(row[9]),
        )


@dataclass
class RatioRecord:
    """Per-trial estimator/exact ratios: ratio1 = power/exact,
    ratio2 = probabilistic/exact, ratio3 = small-sample/exact."""

    trial_index: int
    ratio1: float
    ratio2: float
    ratio3: float

    def to_row(self) -> list[str]:
        return [
            str(self.trial_index),
            repr(self.ratio1), repr(self.ratio2), repr(self.ratio3),
        ]

    @classmethod
    def from_row(cls, row: list[str]) -> "RatioRecord":
        return cls(
            trial_index=int(row[0]), ratio1=float(row[1]),
            ratio2=float(row[2]), ratio3=float(row[3]),
        )


def derive_seed(root: int, *key: int) -> int:
    """Deterministic 64-bit seed from a root seed and an index path."""
    ss = np.random.SeedSequence(entropy=int(root), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


def worker_count(threads: int | None = None) -> int:
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get("STLSCOND_THREADS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def _trial(seed, key, cell, power_cfg=None, pce_cfg=None, sce_cfg=None):
    """Inputs of one trial, all seeded from the root seed and the trial key.

    Returns (problem seed, configs, solved): a config left as None gets a
    derived seed, and ``solved`` is the generated problem with its
    solution, or None when generation or the solve fails.
    """
    pseed = derive_seed(seed, *key)
    configs = {
        "power": power_cfg or PowerConfig(seed=derive_seed(seed, *key, 1)),
        "pce": pce_cfg or PceConfig(seed=derive_seed(seed, *key, 2)),
        "sce": sce_cfg or SceConfig(seed=derive_seed(seed, *key, 3)),
    }
    m, n, lam, e_p = cell
    try:
        problem = generate(GeneratorSpec(m=m, n=n, lam=lam, e_p=e_p, seed=pseed)).problem
        solved = problem, solve_stls(problem)
    except StlsError:
        solved = None
    return pseed, configs, solved


def _measure(method, solved, configs):
    """(value, iterations) of one method; the value is NaN for a failed or
    unconverged run."""
    problem, sol = solved
    try:
        rep = METHODS[method](sol, problem.A, configs)
    except StlsError:
        return float("nan"), None
    diag = rep.diagnostics or {}
    value = rep.absolute if diag.get("converged", True) else float("nan")
    return value, diag.get("iterations")


def _run_cells(cells, trials, threads, task):
    """Run task(cell_idx, cell, trial) over all (cell, trial) pairs on a
    bounded thread pool; results ordered by (cell, trial)."""
    jobs = [(ci, cell, t) for ci, cell in enumerate(cells) for t in range(trials)]
    results = {}
    workers = worker_count(threads)
    if workers == 1:
        for ci, cell, t in jobs:
            results[(ci, t)] = task(ci, cell, t)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(task, ci, cell, t): (ci, t) for ci, cell, t in jobs}
            for fut, key in futures.items():
                results[key] = fut.result()
    return [results[(ci, t)] for ci in range(len(cells)) for t in range(trials)]


def _cells(sizes, lambdas, e_ps):
    return [
        (m, n, lam, e_p)
        for (m, n) in sizes
        for lam in lambdas
        for e_p in e_ps
    ]


def run_timing_bench(
    sizes,
    lambdas,
    e_ps,
    trials,
    methods,
    seed=0,
    threads=None,
    power_cfg=None,
    pce_cfg=None,
    sce_cfg=None,
):
    """Time the requested methods over a grid of generated problems.

    Returns (records, summaries); summaries hold per-(cell, method) mean
    and variance of wall time plus the failure count.  Individual-trial
    failures become NaN-valued flagged rows and the run continues.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    methods = list(methods)
    for mth in methods:
        if mth not in METHODS:
            raise ValueError(f"unknown method {mth!r}; expected one of {tuple(METHODS)}")
    cells = _cells(sizes, lambdas, e_ps)

    def task(ci, cell, trial):
        pseed, configs, solved = _trial(
            seed, (ci, trial), cell, power_cfg, pce_cfg, sce_cfg
        )
        rows = []
        for mth in methods:
            value, iterations, wall = float("nan"), None, 0.0
            if solved is not None:
                t0 = time.perf_counter()
                value, iterations = _measure(mth, solved, configs)
                wall = time.perf_counter() - t0
            rows.append(BenchRecord(*cell, pseed, mth, value, wall, iterations, trial))
        return rows

    per_trial = _run_cells(cells, trials, threads, task)
    records = [rec for rows in per_trial for rec in rows]
    summaries = summarize_timing(records)
    return records, summaries


def summarize_timing(records):
    """Per-(cell, method) mean and variance of wall time."""
    groups: dict[tuple, list[BenchRecord]] = {}
    order = []
    for rec in records:
        key = (rec.m, rec.n, rec.lam, rec.e_p, rec.method)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(rec)
    summaries = []
    for key in order:
        rows = groups[key]
        ok_rows = [r for r in rows if not math.isnan(r.value)]
        times = np.array([r.wall_time_seconds for r in ok_rows])
        summaries.append(
            {
                "m": key[0], "n": key[1], "lambda": key[2], "e_p": key[3],
                "method": key[4],
                "trials": len(rows),
                "failures": len(rows) - len(ok_rows),
                "mean_wall_time": float(times.mean()) if times.size else float("nan"),
                "var_wall_time": float(times.var(ddof=1)) if times.size > 1 else 0.0,
            }
        )
    return summaries


def run_ratio_bench(
    sizes,
    lambdas,
    e_ps,
    trials,
    seed=0,
    threads=None,
    power_cfg=None,
    pce_cfg=None,
    sce_cfg=None,
):
    """Estimator-to-exact accuracy ratios over a grid of generated problems.

    The exact reference is the rectangular-factor value.  A failed or
    unconverged estimator leaves a NaN in its ratio (a flagged row); the
    run continues.  Returns (groups, summaries) where groups is a list of
    (cell_info, [RatioRecord]) in cell order and trial_index counts within
    each cell.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    cells = _cells(sizes, lambdas, e_ps)

    def task(ci, cell, trial):
        _, configs, solved = _trial(
            seed, (ci, trial), cell, power_cfg, pce_cfg, sce_cfg
        )
        ratios = [float("nan")] * 3
        if solved is not None:
            exa, _ = _measure("f2", solved, configs)
            for slot, mth in enumerate(("power", "pce", "sce")):
                ratios[slot] = _measure(mth, solved, configs)[0] / exa
        return RatioRecord(trial, *ratios)

    per_trial = _run_cells(cells, trials, threads, task)
    groups = []
    for ci, cell in enumerate(cells):
        recs = per_trial[ci * trials : (ci + 1) * trials]
        info = {"m": cell[0], "n": cell[1], "lambda": cell[2], "e_p": cell[3]}
        groups.append((info, recs))
    return groups, summarize_ratios(groups)


def summarize_ratios(groups):
    """Per-cell min/max and fraction inside (0.1, 10) for each ratio."""
    summaries = []
    for info, recs in groups:
        entry = dict(info)
        for name in ("ratio1", "ratio2", "ratio3"):
            vals = np.array([getattr(r, name) for r in recs])
            finite = vals[np.isfinite(vals)]
            entry[name] = {
                "min": float(finite.min()) if finite.size else float("nan"),
                "max": float(finite.max()) if finite.size else float("nan"),
                "inside_fraction": float(
                    np.mean((finite > 0.1) & (finite < 10.0))
                ) if finite.size else float("nan"),
                "flagged": int(len(recs) - finite.size),
            }
        summaries.append(entry)
    return summaries


def run_power_spread(
    m, n, lam, e_p, groups, inits, seed=0, threads=None, power_cfg=None
):
    """Distribution of power-method cost across initial vectors.

    Generates ``groups`` problems; for each, runs the power method from
    ``inits`` different random initial vectors.  Rows use the timing
    schema: seed identifies the problem group, trial_index the initial
    vector; value is the estimate, iterations the sweep count.  A failed
    or unconverged run is a NaN-valued flagged row and the run continues.
    """
    cells = [(m, n, lam, e_p)] * groups

    def task(gi, cell, trial):
        pseed, configs, solved = _trial(seed, (gi,), cell, power_cfg)
        value, iters, wall = float("nan"), None, 0.0
        if solved is not None:
            problem, sol = solved
            rng = np.random.default_rng(derive_seed(seed, gi, trial, 1))
            y0 = rng.standard_normal(n)
            t0 = time.perf_counter()
            try:
                rep = power_method(sol, problem.A, configs["power"], y0=y0)
                value = rep.absolute if rep.diagnostics["converged"] else float("nan")
                iters = rep.diagnostics["iterations"]
            except StlsError:
                pass
            wall = time.perf_counter() - t0
        return BenchRecord(*cell, pseed, "power", value, wall, iters, trial)

    return _run_cells(cells, inits, threads, task)


# ---------------------------------------------------------------------------
# CSV round-trip
# ---------------------------------------------------------------------------

def write_bench_csv(records, fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(BENCH_COLUMNS)
    for rec in records:
        writer.writerow(rec.to_row())


def read_bench_csv(fh):
    reader = csv.reader(fh)
    header = next(reader)
    if header != BENCH_COLUMNS:
        raise ValueError(f"unexpected timing CSV header: {header}")
    return [BenchRecord.from_row(row) for row in reader if row]


def write_ratio_csv(groups, fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(RATIO_COLUMNS)
    for _, recs in groups:
        for rec in recs:
            writer.writerow(rec.to_row())


def read_ratio_csv(fh):
    reader = csv.reader(fh)
    header = next(reader)
    if header != RATIO_COLUMNS:
        raise ValueError(f"unexpected ratio CSV header: {header}")
    return [RatioRecord.from_row(row) for row in reader if row]
