"""Command-line front end.

Subcommands: gen, solve, cond, bench-time, bench-ratio.  Exit codes are
stable: 0 success, 2 usage error (including a dense K over the memory
budget of ``kron``, a generated problem over the same budget, a file read
or written over the load budget of ``problem.LOAD_BUDGET_BYTES``, and
an allocation the host refuses), 3 I/O failure, 4 non-unique problem,
degenerate singular vector, a numerical iteration that did not converge
or a quantity out of the double range, 5 degenerate quantity (zero
residual or zero solution).
``cond --method all`` skips ``kron`` over its memory budget instead of
failing, and names it with the reason under "skipped" (JSON) and on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import fields
from functools import cache

import numpy as np

from . import exact, problem
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
from .estimate import CONFIGS, METHODS
from .generate import GeneratorSpec, generate
from .problem import load_problem, problem_to_json, solve_stls, to_data_units

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NONGENERIC = 4
EXIT_DEGENERATE = 5

# (section, key, type) of each estimator setting: every field of a class of
# CONFIGS but its seed
_SETTINGS = [(name, f.name, f.type) for name, cls in CONFIGS.items()
             for f in fields(cls) if f.name != "seed"]


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
    _grid_options(p_bt)
    p_bt.add_argument("--methods", default="kron,f2",
                      help="comma-separated subset of " + ",".join(METHODS))
    _estimator_options(p_bt)
    _common_options(p_bt)
    p_bt.set_defaults(func=cmd_bench_time)

    p_br = subs.add_parser("bench-ratio", help="estimator/exact accuracy ratios")
    _grid_options(p_br)
    p_br.add_argument("--vary-initial", type=int, default=0, metavar="N",
                      help="instead of ratios, run the power method from N initial "
                           "vectors on each of --trials problem groups (single cell); "
                           "emits timing-schema rows")
    _estimator_options(p_br)
    _common_options(p_br)
    p_br.set_defaults(func=cmd_bench_ratio)

    return parser


def _grid_options(sub):
    sub.add_argument("--sizes", required=True,
                     help="comma-separated m x n cells, e.g. 200x150,100x70")
    sub.add_argument("--lambdas", required=True, help="comma-separated scales")
    sub.add_argument("--ep", required=True, help="comma-separated gap parameters")
    sub.add_argument("--trials", type=int, default=1)


def _estimator_options(sub):
    """A flag ``--s-f`` for each setting ``f`` of each section ``s``, and
    ``--config``."""
    for name, key, kind in _SETTINGS:
        sub.add_argument(f"--{name}-{key.replace('_', '-')}",
                         type=int if kind == "int" else float, default=None)
    sections = ", ".join(f"{name}: {{{', '.join(k for s, k, _ in _SETTINGS if s == name)}}}"
                         for name in CONFIGS)
    sub.add_argument("--config", default=None,
                     help=f"JSON file with {{{sections}}}; CLI flags override it")


@cache
def _config_schema():
    """The --config file format: a section per estimator of its settings,
    every key optional and no other allowed; integers strict, floats finite
    (an integer literal included)."""
    from pydantic_core import SchemaValidator, core_schema as cs

    kinds = {"int": cs.int_schema(strict=True),
             "float": cs.float_schema(strict=True, allow_inf_nan=False)}

    def obj(schemas):
        return cs.typed_dict_schema({key: cs.typed_dict_field(s) for key, s in schemas.items()},
                                    total=False, extra_behavior="forbid")

    return SchemaValidator(obj({
        name: obj({k: kinds[kind] for s, k, kind in _SETTINGS if s == name})
        for name in CONFIGS}))


def _estimator_settings(args) -> dict:
    """The --config file's values, overridden by flags.  A config file that
    does not fit ``_config_schema`` raises ValueError."""
    doc = {}
    if args.config:
        doc = problem._validate(_config_schema().validate_json,
                                problem._read_bytes(args.config),
                                lambda msg: ValueError(f"config file: {msg}"))
    for name, key, _ in _SETTINGS:
        flag = getattr(args, f"{name}_{key}")
        if flag is not None:
            doc.setdefault(name, {})[key] = flag
    return doc


def _estimator_configs(args, settings: dict | None = None) -> dict:
    """One config per estimator: its defaults, overridden by ``settings``
    (``_estimator_settings(args)`` when not given), with ``--seed``."""
    if settings is None:
        settings = _estimator_settings(args)
    return {name: cls(**settings.get(name, {}), seed=args.seed) for name, cls in CONFIGS.items()}


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
    _emit(args, problem_to_json(gp.problem, gp.provenance(spec)).decode())
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
    settings = _estimator_settings(args)  # a bad --config is refused before the load
    p = load_problem(args.input)
    # the default sample size is clamped to the problem dimension; a value
    # the user gave passes through, for sce to refuse when it is over n
    settings.setdefault("sce", {}).setdefault("k", min(CONFIGS["sce"].k, p.n))
    configs = _estimator_configs(args, settings)
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


def _grid(args):
    """(sizes, lambdas, e_ps) from --sizes, --lambdas and --ep."""
    sizes = []
    for chunk in args.sizes.split(","):
        chunk = chunk.strip().lower()
        try:
            m_str, n_str = chunk.split("x")
            sizes.append((int(m_str), int(n_str)))
        except ValueError as exc:
            raise ValueError(f"bad size cell {chunk!r}; expected MxN") from exc
    return sizes, _parse_floats(args.lambdas), _parse_floats(args.ep)


def _parse_floats(text):
    return [float(chunk) for chunk in text.split(",")]


def cmd_bench_time(args) -> int:
    grid = _grid(args)
    methods = [mth.strip() for mth in args.methods.split(",")]
    configs = _estimator_configs(args)
    records, summaries = run_timing_bench(
        *grid, trials=args.trials, methods=methods, seed=args.seed, configs=configs,
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
    sizes, lambdas, e_ps = _grid(args)
    if args.vary_initial < 0:
        raise ValueError(f"--vary-initial must be >= 0, got {args.vary_initial}")
    configs = _estimator_configs(args)
    if args.vary_initial > 0:
        if len(sizes) != 1 or len(lambdas) != 1 or len(e_ps) != 1:
            raise ValueError("--vary-initial needs a single cell")
        m, n = sizes[0]
        records = run_power_spread(
            m, n, lambdas[0], e_ps[0], groups=args.trials,
            inits=args.vary_initial, seed=args.seed, configs=configs,
        )
        with _output(args) as fh:
            write_bench_csv(records, fh)
        return EXIT_OK
    groups, summaries = run_ratio_bench(
        sizes, lambdas, e_ps, trials=args.trials, seed=args.seed, configs=configs,
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


# (error kinds, exit code, stderr label) of the errors a command may end
# in; the first match wins, and an error not listed propagates
_EXITS = (
    (ProblemFormatError, EXIT_IO, "problem file error"),
    (OSError, EXIT_IO, "I/O error"),
    ((NongenericProblemError, NotPositiveDefiniteError, DegenerateSingularVectorError),
     EXIT_NONGENERIC, "nongeneric problem"),
    (ConvergenceError, EXIT_NONGENERIC, "did not converge"),
    (NonFiniteError, EXIT_NONGENERIC, "out of floating-point range"),
    ((ZeroResidualError, ZeroSolutionError), EXIT_DEGENERATE, "degenerate problem"),
    ((MemoryBudgetError, MemoryError), EXIT_USAGE, "over memory budget"),
    ((ValueError, SampleTooLargeError), EXIT_USAGE, "invalid arguments"),
)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except Exception as exc:
        for kinds, code, label in _EXITS:
            if isinstance(exc, kinds):
                print(f"stlscond: {label}: {exc}", file=sys.stderr)
                return code
        raise
