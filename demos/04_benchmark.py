#!/usr/bin/env python3
"""Run the benchmark harness and inspect its CSV output.

Reproduces the experimental protocol at demo scale: a timing comparison of
the materialized-operator route against the rectangular factor, and the
per-trial estimator/exact accuracy ratios.  Records can also be produced
from the command line:

    stlscond bench-time  --sizes 200x150 --lambdas 0.05,5 --ep 0.1,0.001 \
        --trials 200 --methods kron,f2 --out timing.csv
    stlscond bench-ratio --sizes 200x150 --lambdas 5 --ep 0.1 --trials 200 \
        --out ratios.csv

Everything except the wall-time columns is reproducible for a fixed seed.
"""

import io

from stlscond import run_ratio_bench, run_timing_bench
from stlscond.bench import read_bench_csv, write_bench_csv, write_ratio_csv

# timing: the materialized operator versus the rectangular factor
records, summaries = run_timing_bench(
    sizes=[(100, 70)], lambdas=[0.05, 5.0], e_ps=[0.1],
    trials=5, methods=["kron", "f2"], seed=0,
)
print("timing summary (seconds):")
for s in summaries:
    print(f"  lam={s['lambda']:<5} method={s['method']:<5} "
          f"mean={s['mean_wall_time']:.5f}  var={s['var_wall_time']:.2e}  "
          f"failures={s['failures']}/{s['trials']}")

kron_mean = sum(s["mean_wall_time"] for s in summaries if s["method"] == "kron")
f2_mean = sum(s["mean_wall_time"] for s in summaries if s["method"] == "f2")
print(f"\nmaterialized/factor mean wall-time ratio: {kron_mean / f2_mean:.1f}x")

# the CSV round trip is lossless
buf = io.StringIO()
write_bench_csv(records, buf)
buf.seek(0)
parsed = read_bench_csv(buf)
print(f"CSV round trip: wrote and re-read {len(parsed)} records")
print("first row:", records[0])

# estimator accuracy ratios against the exact value
groups, ratio_summaries = run_ratio_bench(
    sizes=[(60, 40)], lambdas=[5.0], e_ps=[0.1], trials=10, seed=0,
)
print("\naccuracy ratios over 10 trials (estimator / exact):")
for s in ratio_summaries:
    for name, label in (("ratio1", "power"), ("ratio2", "bracket"), ("ratio3", "sample")):
        r = s[name]
        print(f"  {label:<8} min={r['min']:.4f}  max={r['max']:.4f}  "
              f"inside (0.1,10): {r['inside_fraction']:.0%}")

buf = io.StringIO()
write_ratio_csv(groups, buf)
print("\nratio CSV head:")
print("\n".join(buf.getvalue().splitlines()[:4]))
