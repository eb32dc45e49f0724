"""Exception types shared across the package."""


class StlsError(Exception):
    """Base class for all library-specific errors."""


class NonFiniteError(StlsError):
    """Input contains NaN or infinite entries."""


class ConvergenceError(StlsError):
    """A numerical backend failed to converge."""


class NotPositiveDefiniteError(StlsError):
    """A matrix expected to be SPD has an eigenvalue that is not positive."""


class NongenericProblemError(StlsError):
    """Uniqueness condition violated: the smallest singular value of the data
    matrix does not strictly exceed that of the augmented matrix."""


class DegenerateSingularVectorError(StlsError):
    """The last component of the decisive right singular vector vanishes."""


class ZeroResidualError(StlsError):
    """Residual is numerically zero; the sensitivity operator is undefined."""


class ZeroSolutionError(StlsError):
    """Solution vector is zero; the relative condition number is undefined."""


class RankDeficientError(StlsError):
    """Matrix does not have full column rank."""


class SampleTooLargeError(StlsError):
    """Requested sample count exceeds the problem dimension."""


class ProblemFormatError(StlsError):
    """Problem file is malformed or dimensionally inconsistent."""


class MemoryBudgetError(StlsError):
    """Materializing an operator would exceed its memory budget."""
