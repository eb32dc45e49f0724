"""Command-line front end.

Subcommands: gen, solve, cond, bench-time, bench-ratio.  Exit codes are
stable: 0 success, 2 usage error (including a dense K over the memory
budget of ``kron`` and a problem or config file over the load budget of
``problem.LOAD_BUDGET_BYTES``), 3 I/O failure, 4 non-unique problem, degenerate
singular vector, a numerical iteration that did not converge or a
quantity out of the double range, 5 degenerate quantity (zero residual
or zero solution).
``cond --method all`` skips ``kron`` over its memory budget instead of
failing, and names it with the reason under "skipped" (JSON) and on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import fields

import numpy as np

from . import exact
from .bench import (
    estimator_ratios,
    run_power_spread,
    run_ratio_bench,
    run_timing_bench,
    write_bench_csv,
    write_ratio_csv,
)
from .errors import (
    ConvergenceError,
    DegenerateSingularVectorError,
    MemoryBudgetError,
    NongenericProblemError,
    NonFiniteError,
    NotPositiveDefiniteError,
    ProblemFormatError,
    SampleTooLargeError,
    ZeroResidualError,
    ZeroSolutionError,
)
from .estimate import METHODS, PceConfig, PowerConfig, SceConfig
from .generate import GeneratorSpec, generate
from .problem import load_problem, problem_to_dict, read_json, solve_stls, to_data_units

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NONGENERIC = 4
EXIT_DEGENERATE = 5

_CONFIG_SECTIONS = {"power": PowerConfig, "pce": PceConfig, "sce": SceConfig}


def _common_options(sub, seed=True, fmt=False):
    if seed:
        sub.add_argument("--seed", type=int, default=0, help="root random seed")
    if fmt:
        sub.add_argument("--format", choices=("json", "csv"), default="json",
                         help="output format")
    sub.add_argument("--out", default=None, help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stlscond",
        description="Scaled total least squares: solve, condition numbers, benchmarks.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_gen = subs.add_parser("gen", help="generate a synthetic problem file")
    p_gen.add_argument("--m", type=int, required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--lambda", dest="lam", type=float, required=True)
    p_gen.add_argument("--ep", type=float, required=True,
                       help="spectral gap parameter in (0, 1)")
    _common_options(p_gen)
    p_gen.set_defaults(func=cmd_gen)

    p_solve = subs.add_parser("solve", help="solve a problem file")
    p_solve.add_argument("--in", dest="input", required=True, help="problem JSON path")
    _common_options(p_solve, seed=False, fmt=True)
    p_solve.set_defaults(func=cmd_solve)

    p_cond = subs.add_parser("cond", help="condition number of a problem file")
    p_cond.add_argument("--in", dest="input", required=True, help="problem JSON path")
    p_cond.add_argument("--method", choices=(*METHODS, "all"), default="f2")
    _estimator_options(p_cond)
    _common_options(p_cond, fmt=True)
    p_cond.set_defaults(func=cmd_cond)

    p_bt = subs.add_parser("bench-time", help="wall-time benchmark over a grid "
                           "(large cells such as 1000x700 are supported but slow)")
    p_bt.add_argument("--sizes", required=True,
                      help="comma-separated m x n cells, e.g. 200x150,100x70")
    p_bt.add_argument("--lambdas", required=True, help="comma-separated scales")
    p_bt.add_argument("--ep", required=True, help="comma-separated gap parameters")
    p_bt.add_argument("--trials", type=int, default=1)
    p_bt.add_argument("--methods", default="kron,f2",
                      help="comma-separated subset of " + ",".join(METHODS))
    _estimator_options(p_bt)
    _common_options(p_bt)
    p_bt.set_defaults(func=cmd_bench_time)

    p_br = subs.add_parser("bench-ratio", help="estimator/exact accuracy ratios")
    p_br.add_argument("--sizes", required=True)
    p_br.add_argument("--lambdas", required=True)
    p_br.add_argument("--ep", required=True)
    p_br.add_argument("--trials", type=int, default=1)
    p_br.add_argument("--vary-initial", type=int, default=0, metavar="N",
                      help="instead of ratios, run the power method from N initial "
                           "vectors on each of --trials problem groups (single cell); "
                           "emits timing-schema rows")
    _estimator_options(p_br)
    _common_options(p_br)
    p_br.set_defaults(func=cmd_bench_ratio)

    return parser


def _estimator_options(sub):
    sub.add_argument("--power-tol", type=float, default=None)
    sub.add_argument("--power-max-iter", type=int, default=None)
    sub.add_argument("--pce-eps", type=float, default=None)
    sub.add_argument("--pce-theta", type=float, default=None)
    sub.add_argument("--sce-k", type=int, default=None)
    sub.add_argument("--config", default=None,
                     help="JSON file with {power: {tol, max_iter}, pce: {eps, theta}, "
                          "sce: {k}, seed}; CLI flags override it")


def _estimator_configs(args, n: int | None = None) -> dict:
    """Defaults, overridden by --config file values, overridden by flags.

    The flag for field ``f`` of section ``s`` is ``--s-f``.  The default
    sample size is clamped to the problem dimension when known; an explicit
    user value is passed through (and may be rejected later).
    """
    doc = {}
    if args.config:
        try:
            doc = read_json(args.config)
        except ValueError as exc:
            raise ValueError(f"config file: not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ValueError("config file: top level must be a JSON object")
        unknown = sorted(set(doc) - {"seed", *_CONFIG_SECTIONS})
        if unknown:
            raise ValueError(f"config file: unknown sections {unknown}")
    seed = doc.get("seed", args.seed)
    configs = {}
    for name, cls in _CONFIG_SECTIONS.items():
        section = doc.get(name, {})
        if not isinstance(section, dict):
            raise ValueError(f"config file: section {name!r} must be a JSON object")
        keys = [f.name for f in fields(cls) if f.name != "seed"]
        unknown = sorted(set(section) - set(keys))
        if unknown:
            raise ValueError(f"config file: unknown keys {unknown} in section {name!r}")
        values = dict(section)
        for key in keys:
            flag = getattr(args, f"{name}_{key}")
            if flag is not None:
                values[key] = flag
        if name == "sce" and "k" not in values and n is not None:
            values["k"] = min(SceConfig.k, n)
        configs[name] = cls(**values, seed=seed)
    return configs


@contextlib.contextmanager
def _output(args):
    """The --out file, or stdout when none is given."""
    if args.out is None:
        yield sys.stdout
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            yield fh


def _emit(args, text: str) -> None:
    with _output(args) as fh:
        fh.write(text)
        if not text.endswith("\n"):
            fh.write("\n")


def cmd_gen(args) -> int:
    spec = GeneratorSpec(m=args.m, n=args.n, lam=args.lam, e_p=args.ep, seed=args.seed)
    gp = generate(spec)
    doc = problem_to_dict(gp.problem, provenance=gp.provenance(spec))
    _emit(args, json.dumps(doc, sort_keys=True))
    return EXIT_OK


def cmd_solve(args) -> int:
    p = load_problem(args.input)
    sol = solve_stls(p)
    doc = {
        "x": [float(v) for v in sol.x],
        # ||r|| = ||Q'r|| = 2**e ||r_c||, with r_c = A_c x - b_c the core's
        "residual_norm": to_data_units(float(np.linalg.norm(exact._core(sol)[1])), sol.e),
        "sigma_np1": sol.sigma_np1,
        "sigma_hat_n": sol.sigma_hat_n,
        "genericity_gap": sol.genericity_gap,
        "ill_posed": sol.ill_posed,
    }
    if args.format == "csv":
        lines = ["field,value"]
        for key, val in doc.items():
            if key == "x":
                lines.extend(f"x[{i}],{v!r}" for i, v in enumerate(val))
            else:
                lines.append(f"{key},{val!r}")
        _emit(args, "\n".join(lines))
    else:
        _emit(args, json.dumps(doc, sort_keys=True))
    return EXIT_OK


def cmd_cond(args) -> int:
    p = load_problem(args.input)
    configs = _estimator_configs(args, n=p.n)
    sol = solve_stls(p)
    methods = list(METHODS) if args.method == "all" else [args.method]
    reports = []
    values = {}
    skipped = {}
    zero_solution = False
    for method in methods:
        try:
            rep = METHODS[method](sol, p.A, configs)
        except MemoryBudgetError as exc:
            if args.method != "all":
                raise
            skipped[method] = str(exc)
            print(f"stlscond: skipped {method}: {exc}", file=sys.stderr)
            continue
        try:
            rep.relative = exact.relative_from_absolute(sol, rep.absolute)
        except ZeroSolutionError:
            zero_solution = True
            diag = dict(rep.diagnostics or {})
            diag["relative_error"] = "ZeroSolution"
            rep.diagnostics = diag
        reports.append(rep)
        values[method] = rep.absolute
    ratios = estimator_ratios(values) if args.method == "all" else {}
    if args.format == "csv":
        lines = ["method,absolute,relative"]
        for rep in reports:
            rel = "" if rep.relative is None else repr(rep.relative)
            lines.append(f"{rep.method},{rep.absolute!r},{rel}")
        lines.extend(f"{name},{value!r}," for name, value in ratios.items())
        _emit(args, "\n".join(lines))
    elif ratios:
        doc = {"reports": [rep.to_dict() for rep in reports], "ratios": ratios}
        if skipped:
            doc["skipped"] = skipped
        _emit(args, json.dumps(doc, sort_keys=True))
    else:
        _emit(args, reports[0].to_json())
    return EXIT_DEGENERATE if zero_solution else EXIT_OK


def _parse_sizes(text):
    sizes = []
    for chunk in text.split(","):
        chunk = chunk.strip().lower()
        try:
            m_str, n_str = chunk.split("x")
            sizes.append((int(m_str), int(n_str)))
        except ValueError as exc:
            raise ValueError(f"bad size cell {chunk!r}; expected MxN") from exc
    return sizes


def _parse_floats(text):
    return [float(chunk) for chunk in text.split(",")]


def cmd_bench_time(args) -> int:
    sizes = _parse_sizes(args.sizes)
    methods = [mth.strip() for mth in args.methods.split(",")]
    configs = _estimator_configs(args)
    records, summaries = run_timing_bench(
        sizes, _parse_floats(args.lambdas), _parse_floats(args.ep),
        trials=args.trials, methods=methods, seed=args.seed,
        power_cfg=configs["power"], pce_cfg=configs["pce"], sce_cfg=configs["sce"],
    )
    with _output(args) as fh:
        write_bench_csv(records, fh)
    for s in summaries:
        print(
            f"# cell m={s['m']} n={s['n']} lambda={s['lambda']} e_p={s['e_p']} "
            f"method={s['method']}: mean={s['mean_wall_time']:.6f}s "
            f"var={s['var_wall_time']:.3e} failures={s['failures']}/{s['trials']}",
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_bench_ratio(args) -> int:
    sizes = _parse_sizes(args.sizes)
    lambdas = _parse_floats(args.lambdas)
    e_ps = _parse_floats(args.ep)
    configs = _estimator_configs(args)
    if args.vary_initial > 0:
        if len(sizes) != 1 or len(lambdas) != 1 or len(e_ps) != 1:
            raise ValueError("--vary-initial needs a single cell")
        m, n = sizes[0]
        records = run_power_spread(
            m, n, lambdas[0], e_ps[0], groups=args.trials,
            inits=args.vary_initial, seed=args.seed,
            power_cfg=configs["power"],
        )
        with _output(args) as fh:
            write_bench_csv(records, fh)
        return EXIT_OK
    groups, summaries = run_ratio_bench(
        sizes, lambdas, e_ps, trials=args.trials, seed=args.seed,
        power_cfg=configs["power"], pce_cfg=configs["pce"], sce_cfg=configs["sce"],
    )
    with _output(args) as fh:
        write_ratio_csv(groups, fh)
    for s in summaries:
        for name in ("ratio1", "ratio2", "ratio3"):
            r = s[name]
            print(
                f"# cell m={s['m']} n={s['n']} lambda={s['lambda']} e_p={s['e_p']} "
                f"{name}: min={r['min']:.4g} max={r['max']:.4g} "
                f"inside(0.1,10)={r['inside_fraction']:.3f} flagged={r['flagged']}",
                file=sys.stderr,
            )
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ProblemFormatError as exc:
        print(f"stlscond: problem file error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"stlscond: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NongenericProblemError, NotPositiveDefiniteError, DegenerateSingularVectorError) as exc:
        print(f"stlscond: nongeneric problem: {exc}", file=sys.stderr)
        return EXIT_NONGENERIC
    except ConvergenceError as exc:
        print(f"stlscond: did not converge: {exc}", file=sys.stderr)
        return EXIT_NONGENERIC
    except NonFiniteError as exc:
        print(f"stlscond: out of floating-point range: {exc}", file=sys.stderr)
        return EXIT_NONGENERIC
    except (ZeroResidualError, ZeroSolutionError) as exc:
        print(f"stlscond: degenerate problem: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except MemoryBudgetError as exc:
        print(f"stlscond: over memory budget: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, SampleTooLargeError) as exc:
        print(f"stlscond: invalid arguments: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
