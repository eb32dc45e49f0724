"""Scaled total least squares: solver, exact condition numbers, estimators.

The package solves the scaled total least squares problem, evaluates the
normwise condition number of its solution map exactly through three
equivalent formulas, estimates it matrix-free (power iteration, a
certified probabilistic bracket, and small-sample probing), and ships a
benchmark harness with reproducible seeding and CSV output.
"""

from .bench import (
    BenchRecord,
    RatioRecord,
    run_power_spread,
    run_ratio_bench,
    run_timing_bench,
)
from .errors import (
    ConvergenceError,
    DegenerateSingularVectorError,
    MemoryBudgetError,
    NonFiniteError,
    NongenericProblemError,
    NotPositiveDefiniteError,
    ProblemFormatError,
    RankDeficientError,
    SampleTooLargeError,
    StlsError,
    ZeroResidualError,
    ZeroSolutionError,
)
from .exact import (
    ConditionReport,
    build_K_dense,
    kappa_f1,
    kappa_f2,
    kappa_kron,
    kappa_ols,
    kappa_tls_bg,
    relative_from_absolute,
)
from .estimate import (
    PceConfig,
    PowerConfig,
    SceConfig,
    apply_K,
    apply_KT,
    pce,
    power_method,
    sce,
)
from .generate import GeneratedProblem, GeneratorSpec, generate
from .numerics import (
    FactoredSvd,
    SpdFactorization,
    spectral_norm_dense,
    svd,
    unit_sphere_sample,
)
from .problem import (
    StlsProblem,
    StlsSolution,
    check_genericity,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    save_problem,
    solve_stls,
    solve_stls_svd,
)

__version__ = "0.1.0"
