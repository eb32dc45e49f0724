"""Benchmark harness tests: record shapes, reproducibility, CSV round-trip."""

import io
import math
from dataclasses import replace

import numpy as np
import pytest

from stlscond import (
    MemoryBudgetError,
    bench,
    kappa_f2,
    pce,
    run_power_spread,
    run_ratio_bench,
    run_timing_bench,
    sce,
    solve_stls,
)
from stlscond.bench import (
    BENCH_COLUMNS,
    RATIO_COLUMNS,
    BenchRecord,
    RatioRecord,
    derive_seed,
    read_bench_csv,
    read_ratio_csv,
    write_bench_csv,
    write_ratio_csv,
)
from stlscond.estimate import PowerConfig, SceConfig


def test_timing_bench_record_counts():
    records, summaries = run_timing_bench(
        [(12, 8)], [1.0], [0.1], trials=2, methods=["f2", "sce"], seed=0
    )
    assert len(records) == 4
    assert all(rec.wall_time_seconds >= 0.0 for rec in records)
    assert all(math.isfinite(rec.value) for rec in records)
    assert {s["method"] for s in summaries} == {"f2", "sce"}


def test_runners_take_the_default_sample_size_from_n():
    # on a 5x2 cell sce's default k is min(3, n) = 2 in both runners; an
    # explicit k of 3 is over n, a flagged NaN row
    _, configs, sol = bench._trial(0, (0, 0), (5, 2, 1.0, 0.1))
    rep = sce(sol, sol.problem.A, configs["sce"])
    assert rep.diagnostics == {"k": 2} and math.isfinite(rep.absolute)
    assert rep.absolute == sce(sol, sol.problem.A, replace(configs["sce"], k=2)).absolute
    (rec,), (summary,) = run_timing_bench([(5, 2)], [1.0], [0.1], trials=1, methods=["sce"])
    assert rec.value == rep.absolute and summary["failures"] == 0
    ((_, (ratios,)),), _ = run_ratio_bench([(5, 2)], [1.0], [0.1], trials=1)
    assert ratios.ratio3 == rep.absolute / kappa_f2(sol, sol.problem.A).absolute
    (rec,), (summary,) = run_timing_bench([(5, 2)], [1.0], [0.1], trials=1, methods=["sce"],
                                          configs={"sce": SceConfig(k=3)})
    assert math.isnan(rec.value) and summary["failures"] == 1


def test_timing_bench_single_record():
    records, _ = run_timing_bench(
        [(10, 6)], [5.0], [0.1], trials=1, methods=["f2"], seed=3
    )
    assert len(records) == 1
    rec = records[0]
    assert rec.method == "f2" and rec.trial_index == 0 and rec.iterations is None


def test_timing_bench_value_reproducibility():
    kwargs = dict(
        sizes=[(14, 9)], lambdas=[0.05, 5.0], e_ps=[0.1], trials=2,
        methods=["f2", "power", "pce", "sce"], seed=11,
    )
    first, _ = run_timing_bench(threads=1, **kwargs)
    second, _ = run_timing_bench(threads=2, **kwargs)
    assert len(first) == len(second) == 16
    for a, b in zip(first, second):
        assert (a.method, a.trial_index, a.seed) == (b.method, b.trial_index, b.seed)
        assert a.value == b.value  # wall time is exempt, values are not


def test_pce_records_carry_lanczos_depth():
    # the iterations column holds pce's Lanczos depth, as the library
    # reports it for the same trial
    records, _ = run_timing_bench(
        [(14, 9)], [5.0], [0.1], trials=2, methods=["pce"], seed=11
    )
    buf = io.StringIO()
    write_bench_csv(records, buf)
    buf.seek(0)
    for trial, rec in enumerate(read_bench_csv(buf)):
        _, configs, sol = bench._trial(11, (0, trial), (14, 9, 5.0, 0.1))
        expected = pce(sol, sol.problem.A, configs["pce"]).diagnostics["iterations"]
        assert rec.iterations == expected >= 1


def test_timing_bench_rejects_unknown_method():
    with pytest.raises(ValueError):
        run_timing_bench([(10, 6)], [1.0], [0.1], trials=1, methods=["qr"])


def test_runners_refuse_an_unknown_config_key():
    # a key outside estimate.CONFIGS would otherwise leave its config unused
    cfg = {"powr": PowerConfig(max_iter=1)}
    with pytest.raises(ValueError, match="powr"):
        run_timing_bench([(10, 6)], [1.0], [0.1], trials=1, methods=["power"], configs=cfg)
    with pytest.raises(ValueError, match="powr"):
        run_power_spread(10, 6, 1.0, 0.1, groups=1, inits=1, configs=cfg)


def test_oversized_cell_is_refused_not_flagged():
    # the generator refuses it before allocating, and the refusal is the
    # caller's error, not a failed trial to record as a NaN row
    with pytest.raises(MemoryBudgetError):
        run_timing_bench([(10, 6), (10**6, 10**6 - 1)], [1.0], [0.1], trials=1,
                         methods=["f2"])
    with pytest.raises(MemoryBudgetError):
        run_power_spread(10**6, 10**6 - 1, 1.0, 0.1, groups=1, inits=1)


def test_bench_csv_roundtrip():
    records, _ = run_timing_bench(
        [(10, 6)], [1.0], [0.1], trials=2, methods=["f2", "power"], seed=5
    )
    records.append(
        BenchRecord(10, 6, 1.0, 0.1, 99, "power", float("nan"), 0.01, None, 2)
    )
    buf = io.StringIO()
    write_bench_csv(records, buf)
    buf.seek(0)
    header = buf.readline().strip().split(",")
    assert header == BENCH_COLUMNS
    buf.seek(0)
    parsed = read_bench_csv(buf)
    assert len(parsed) == len(records)
    for a, b in zip(records, parsed):
        assert (a.m, a.n, a.lam, a.e_p, a.seed, a.method) == (
            b.m, b.n, b.lam, b.e_p, b.seed, b.method,
        )
        assert a.value == b.value or (math.isnan(a.value) and math.isnan(b.value))
        assert a.wall_time_seconds == b.wall_time_seconds
        assert a.iterations == b.iterations
        assert a.trial_index == b.trial_index


def test_ratio_bench_groups_and_summaries():
    groups, summaries = run_ratio_bench(
        [(16, 10)], [5.0], [0.1], trials=3, seed=1
    )
    assert len(groups) == 1
    info, recs = groups[0]
    assert info == {"m": 16, "n": 10, "lambda": 5.0, "e_p": 0.1}
    assert [r.trial_index for r in recs] == [0, 1, 2]
    for rec in recs:
        # certified estimators track the exact value tightly
        assert rec.ratio1 == pytest.approx(1.0, abs=1e-4)
        assert rec.ratio2 == pytest.approx(1.0, abs=0.01)
        assert 0.1 < rec.ratio3 < 10.0
    assert summaries[0]["ratio1"]["flagged"] == 0


def test_ratio_bench_accuracy_at_reference_size():
    # reference cell of the experimental protocol, reduced trial count;
    # power tracks the exact value to machine precision, the bracket
    # midpoint is certified to theta/2 = 0.005
    groups, _ = run_ratio_bench(
        [(200, 150)], [5.0], [0.1], trials=3, seed=0
    )
    for rec in groups[0][1]:
        assert abs(rec.ratio1 - 1.0) <= 1e-4
        assert abs(rec.ratio2 - 1.0) <= 0.005 + 1e-6
        assert 0.1 < rec.ratio3 < 10.0


def test_ratio_bench_flags_unconverged_power():
    groups, _ = run_ratio_bench(
        [(16, 10)], [1.0], [0.1], trials=1, seed=2,
        configs={"power": PowerConfig(tol=1e-30, max_iter=1, seed=0)},
    )
    rec = groups[0][1][0]
    assert math.isnan(rec.ratio1)
    assert math.isfinite(rec.ratio2)


def test_ratio_csv_roundtrip():
    groups, _ = run_ratio_bench(
        [(12, 8)], [1.0], [0.1], trials=2, seed=4
    )
    buf = io.StringIO()
    write_ratio_csv(groups, buf)
    buf.seek(0)
    assert buf.readline().strip().split(",") == RATIO_COLUMNS
    buf.seek(0)
    parsed = read_ratio_csv(buf)
    flat = [rec for _, recs in groups for rec in recs]
    assert len(parsed) == len(flat)
    for a, b in zip(flat, parsed):
        assert isinstance(b, RatioRecord)
        assert (a.trial_index, a.ratio1, a.ratio2, a.ratio3) == (
            b.trial_index, b.ratio1, b.ratio2, b.ratio3,
        )


def test_power_spread_rows():
    records = run_power_spread(
        14, 9, 5.0, 0.1, groups=2, inits=3, seed=0
    )
    assert len(records) == 6
    seeds = {rec.seed for rec in records}
    assert len(seeds) == 2  # one derived seed per problem group
    for rec in records:
        assert rec.method == "power"
        assert rec.trial_index in (0, 1, 2)
        assert rec.iterations >= 1


def test_power_spread_solves_once_per_group(monkeypatch):
    calls = []

    def counting_solve(problem):
        calls.append(problem)
        return solve_stls(problem)

    monkeypatch.setattr(bench, "solve_stls", counting_solve)
    records = run_power_spread(
        14, 9, 5.0, 0.1, groups=2, inits=3, seed=0
    )
    assert len(records) == 6
    assert len(calls) == 2


@pytest.mark.parametrize("groups, inits", [(0, 3), (-1, 3), (2, 0)])
def test_power_spread_rejects_empty_tables(groups, inits):
    # an empty table would read as a run that measured nothing
    with pytest.raises(ValueError, match="must be >= 1"):
        run_power_spread(14, 9, 5.0, 0.1, groups=groups, inits=inits, seed=0)


def test_derive_seed_is_deterministic_and_spread():
    assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
    seen = {derive_seed(7, i, j) for i in range(10) for j in range(10)}
    assert len(seen) == 100


def test_timing_summary_statistics():
    records, summaries = run_timing_bench(
        [(12, 8)], [1.0], [0.1], trials=4, methods=["f2"], seed=9
    )
    s = summaries[0]
    times = np.array([rec.wall_time_seconds for rec in records])
    assert s["mean_wall_time"] == pytest.approx(float(times.mean()))
    assert s["var_wall_time"] == pytest.approx(float(times.var(ddof=1)))
    assert s["failures"] == 0


# ---------------------------------------------------------------------------
# the CSV formats, pinned as text
# ---------------------------------------------------------------------------

def test_bench_csv_text():
    # None is an empty cell, a float its repr (nan included)
    buf = io.StringIO()
    write_bench_csv([BenchRecord(10, 6, 1.0, 0.1, 99, "power", float("nan"), 0.01, None, 2),
                     BenchRecord(30, 12, 0.5, 0.01, 2**64 - 1, "pce", 11.868503556837423,
                                 1e-05, 7, 0)], buf)
    assert buf.getvalue() == (
        "m,n,lambda,e_p,seed,method,value,wall_time_seconds,iterations,trial_index\n"
        "10,6,1.0,0.1,99,power,nan,0.01,,2\n"
        "30,12,0.5,0.01,18446744073709551615,pce,11.868503556837423,1e-05,7,0\n"
    )
    buf.seek(0)
    back = read_bench_csv(buf)
    assert back[1] == BenchRecord(30, 12, 0.5, 0.01, 2**64 - 1, "pce", 11.868503556837423,
                                  1e-05, 7, 0)
    assert back[0].iterations is None and math.isnan(back[0].value)


def test_ratio_csv_text():
    rec = RatioRecord(3, 0.9999999999999999, 1.0020075375012782, float("nan"))
    buf = io.StringIO()
    write_ratio_csv([({"m": 12}, [rec])], buf)
    assert buf.getvalue() == (
        "trial_index,ratio1,ratio2,ratio3\n3,0.9999999999999999,1.0020075375012782,nan\n"
    )
    buf.seek(0)
    (back,) = read_ratio_csv(buf)
    assert (back.trial_index, back.ratio1, back.ratio2) == (3, rec.ratio1, rec.ratio2)
    assert math.isnan(back.ratio3)


@pytest.mark.parametrize("read, text", [
    (read_bench_csv, "trial_index,ratio1,ratio2,ratio3\n0,1.0,1.0,1.0\n"),
    (read_bench_csv, "m,n,lambda,e_p,seed,method,value,wall_time_seconds,iterations\n"),
    (read_ratio_csv, ",".join(BENCH_COLUMNS) + "\n"),
    (read_ratio_csv, "trial_index,ratio1,ratio3,ratio2\n"),
])
def test_csv_readers_refuse_a_wrong_header(read, text):
    with pytest.raises(ValueError, match="header"):
        read(io.StringIO(text))


@pytest.mark.parametrize("read, row", [
    (read_bench_csv, "10,6,1.0,0.1,99,power,nan,0.01,,2,7"),
    (read_bench_csv, "10,6,1.0,0.1,99,power,nan,0.01,"),
    (read_bench_csv, "10,6,1.0,0.1,99,power,nan,0.01,two,2"),
    (read_ratio_csv, "0,1.0,1.0,1.0,5.0"),
    (read_ratio_csv, "0,1.0"),
])
def test_csv_readers_refuse_a_malformed_row(read, row):
    columns = BENCH_COLUMNS if read is read_bench_csv else RATIO_COLUMNS
    with pytest.raises(ValueError):
        read(io.StringIO(",".join(columns) + "\n" + row + "\n"))


def test_timing_bench_rejects_no_trials():
    with pytest.raises(ValueError, match="trials"):
        run_timing_bench([(10, 6)], [1.0], [0.1], trials=0, methods=["f2"])
