"""Benchmark harness: timing records, accuracy ratios, CSV round-trip.

Two record types with fixed, versioned CSV schemas (schema version 1):

* timing rows:  m,n,lambda,e_p,seed,method,value,wall_time_seconds,iterations,trial_index
* ratio rows:   trial_index,ratio1,ratio2,ratio3

One codec writes and reads both, a cell per field of the record: None is
an empty cell and any other value its ``str`` (a float's repr), read back
by the field's type.  A reader refuses a wrong header and a row of the
wrong length.

Timing measures the condition evaluation only; problem generation and the
solve are excluded.  Value columns are reproducible for a fixed root seed:
per-trial problem and estimator seeds are derived through
``numpy.random.SeedSequence`` with the (cell index, trial index) spawn key,
and the power-method spread's start vectors from the seed of its
``PowerConfig`` with the (group, vector) key.  Wall-time columns are exempt
from reproducibility.  Trials run one at a time, so each wall time is one
method's alone, as the timing comparison needs; output order is by (cell,
trial).
"""

from __future__ import annotations

import csv
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import StlsError
from .estimate import CONFIGS, METHODS
from .generate import GeneratorSpec, generate
from .problem import solve_stls

BENCH_COLUMNS = [
    "m", "n", "lambda", "e_p", "seed", "method",
    "value", "wall_time_seconds", "iterations", "trial_index",
]
RATIO_COLUMNS = ["trial_index", "ratio1", "ratio2", "ratio3"]
# the exact reference and the estimators of ratio1..ratio3, in that order
RATIO_METHODS = ("f2", "power", "pce", "sce")


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


@dataclass
class RatioRecord:
    """Per-trial estimator/exact ratios: ratio1 = power/exact,
    ratio2 = probabilistic/exact, ratio3 = small-sample/exact."""

    trial_index: int
    ratio1: float
    ratio2: float
    ratio3: float


def derive_seed(root: int, *key: int) -> int:
    """Deterministic 64-bit seed from a root seed and an index path."""
    ss = np.random.SeedSequence(entropy=int(root), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


def estimator_ratios(values) -> dict:
    """``{"ratio1": power/f2, "ratio2": pce/f2, "ratio3": sce/f2}`` from a
    mapping of method name to absolute condition number."""
    exact = values[RATIO_METHODS[0]]
    return {f"ratio{i}": values[mth] / exact for i, mth in enumerate(RATIO_METHODS[1:], 1)}


def _trial(seed, key, cell, configs=None):
    """Inputs of one trial, all seeded from the root seed and the trial key.

    Returns (problem seed, configs, sol): ``configs`` maps keys of
    ``CONFIGS`` to configs that supply all but their seed, which is derived
    from the key's slot in that table (1, 2, 3), and a missing key takes
    the defaults; ``sol`` is the solution of the generated problem, or None
    when generation or the solve fails.  An unknown key, and a cell that
    ``GeneratorSpec`` refuses, raise.
    """
    configs = configs or {}
    if not configs.keys() <= CONFIGS.keys():
        raise ValueError(f"configs keys must be among {tuple(CONFIGS)}, got {tuple(configs)}")
    pseed = derive_seed(seed, *key)
    seeded = {name: replace(configs.get(name, cls()), seed=derive_seed(seed, *key, slot))
              for slot, (name, cls) in enumerate(CONFIGS.items(), 1)}
    m, n, lam, e_p = cell
    spec = GeneratorSpec(m=m, n=n, lam=lam, e_p=e_p, seed=pseed)
    try:
        sol = solve_stls(generate(spec).problem)
    except StlsError:
        sol = None
    return pseed, seeded, sol


def _measure(method, sol, configs):
    """(value, iterations) of one method; the value is NaN for a failed or
    unconverged run."""
    try:
        rep = METHODS[method](sol, sol.problem.A, configs)
    except StlsError:
        return float("nan"), None
    diag = rep.diagnostics or {}
    value = rep.absolute if diag.get("converged", True) else float("nan")
    return value, diag.get("iterations")


def _run_cells(cells, trials, task, threads=1):
    """task(cell_idx, cell, trial) over all (cell, trial) pairs, results
    ordered by (cell, trial)."""
    jobs = [(ci, cell, t) for ci, cell in enumerate(cells) for t in range(trials)]
    if threads <= 1:
        return [task(*job) for job in jobs]
    # Only perfbench's grid-small, which measures the pool itself, asks for
    # more than one worker; concurrent trials on shared cores distort the
    # per-method wall times the timing table compares.
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda job: task(*job), jobs))


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
    threads=1,
    configs=None,
):
    """Time the requested methods over a grid of generated problems.

    ``configs`` maps keys of ``CONFIGS`` to estimator configs, each of
    which supplies all but its seed (see ``_trial``).  Returns (records,
    summaries); summaries hold per-(cell, method) mean and variance of
    wall time plus the failure count.  Individual-trial failures become
    NaN-valued flagged rows and the run continues.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    methods = list(methods)
    for mth in methods:
        if mth not in METHODS:
            raise ValueError(f"unknown method {mth!r}; expected one of {tuple(METHODS)}")
    cells = _cells(sizes, lambdas, e_ps)

    def task(ci, cell, trial):
        pseed, seeded, sol = _trial(seed, (ci, trial), cell, configs)
        rows = []
        for mth in methods:
            value, iterations, wall = float("nan"), None, 0.0
            if sol is not None:
                t0 = time.perf_counter()
                value, iterations = _measure(mth, sol, seeded)
                wall = time.perf_counter() - t0
            rows.append(BenchRecord(*cell, pseed, mth, value, wall, iterations, trial))
        return rows

    per_trial = _run_cells(cells, trials, task, threads)
    records = [rec for rows in per_trial for rec in rows]
    summaries = summarize_timing(records)
    return records, summaries


def summarize_timing(records):
    """Per-(cell, method) mean and variance of wall time."""
    groups: dict[tuple, list[BenchRecord]] = {}
    for rec in records:
        groups.setdefault((rec.m, rec.n, rec.lam, rec.e_p, rec.method), []).append(rec)
    summaries = []
    for key, rows in groups.items():
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
    configs=None,
):
    """Estimator-to-exact accuracy ratios over a grid of generated problems.

    The values are those of :func:`run_timing_bench` over
    ``RATIO_METHODS``, the exact reference being the rectangular-factor
    value, with the same ``configs``.  A failed or unconverged estimator
    leaves a NaN in its ratio (a flagged row); the run continues.  Returns
    (groups, summaries) where groups is a list of (cell_info,
    [RatioRecord]) in cell order and trial_index counts within each cell.
    """
    records, _ = run_timing_bench(
        sizes, lambdas, e_ps, trials, RATIO_METHODS, seed, configs=configs
    )
    k = len(RATIO_METHODS)
    per_trial = [
        RatioRecord(rows[0].trial_index, **estimator_ratios({r.method: r.value for r in rows}))
        for rows in (records[i : i + k] for i in range(0, len(records), k))
    ]
    groups = []
    for ci, cell in enumerate(_cells(sizes, lambdas, e_ps)):
        info = {"m": cell[0], "n": cell[1], "lambda": cell[2], "e_p": cell[3]}
        groups.append((info, per_trial[ci * trials : (ci + 1) * trials]))
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


def run_power_spread(m, n, lam, e_p, groups, inits, seed=0, configs=None):
    """Distribution of power-method cost across initial vectors.

    Generates and solves ``groups`` problems; for each, runs the power
    method from ``inits`` different random initial vectors, the power
    config of ``configs`` with its seed derived from the root seed, the
    group and the vector's index.  Rows use the timing schema: seed
    identifies the problem group, trial_index the initial vector; value is
    the estimate, iterations the sweep count.  A failed or unconverged run
    is a NaN-valued flagged row and the run continues.
    """
    if groups < 1 or inits < 1:
        raise ValueError(f"groups and inits must be >= 1, got {groups} and {inits}")
    cells = [(m, n, lam, e_p)] * groups
    group_inputs = [_trial(seed, (gi,), cell, configs) for gi, cell in enumerate(cells)]

    def task(gi, cell, trial):
        pseed, seeded, sol = group_inputs[gi]
        value, iters, wall = float("nan"), None, 0.0
        if sol is not None:
            start = {"power": replace(seeded["power"], seed=derive_seed(seed, gi, trial, 1))}
            t0 = time.perf_counter()
            value, iters = _measure("power", sol, start)
            wall = time.perf_counter() - t0
        return BenchRecord(*cell, pseed, "power", value, wall, iters, trial)

    return _run_cells(cells, inits, task)


# ---------------------------------------------------------------------------
# CSV round-trip
# ---------------------------------------------------------------------------

_CELL_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "int | None": lambda cell: None if cell == "" else int(cell),
}


def _write_csv(columns, records, fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(columns)
    for rec in records:
        writer.writerow(
            ["" if value is None else str(value)
             for value in (getattr(rec, f.name) for f in fields(rec))]
        )


def _read_csv(cls, columns, fh):
    reader = csv.reader(fh)
    header = next(reader)
    if header != columns:
        raise ValueError(f"unexpected {cls.__name__} CSV header: {header}")
    parsers = [_CELL_PARSERS[f.type] for f in fields(cls)]
    return [cls(*(parse(cell) for parse, cell in zip(parsers, row, strict=True)))
            for row in reader if row]


def write_bench_csv(records, fh) -> None:
    _write_csv(BENCH_COLUMNS, records, fh)


def read_bench_csv(fh):
    return _read_csv(BenchRecord, BENCH_COLUMNS, fh)


def write_ratio_csv(groups, fh) -> None:
    _write_csv(RATIO_COLUMNS, (rec for _, recs in groups for rec in recs), fh)


def read_ratio_csv(fh):
    return _read_csv(RatioRecord, RATIO_COLUMNS, fh)
