"""Exception hierarchy shared across the package.

Two branches matter to callers: DataError covers every validation,
alignment, and domain failure (CLI exit code 1), ConvergenceError covers
numerical non-convergence, with partial outputs left on disk (exit code 2).
"""


class MonephaseError(Exception):
    """Base class for all errors raised by this package."""


class DataError(MonephaseError):
    """Invalid input: malformed files, misaligned series, out-of-domain values."""


class CollinearityError(DataError):
    """Design matrix is rank deficient beyond the accepted tolerance."""


class ConvergenceError(MonephaseError):
    """An iterative routine failed to converge."""
