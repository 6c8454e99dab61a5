"""Exception hierarchy shared across the package.

Each class carries the exit code the CLI returns for it, and a subclass
inherits its parent's: ConfigError 2, DataError 3, DegeneracyError 4.
"""


class SpecBoundsError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class ConfigError(SpecBoundsError):
    """Invalid configuration: bad kernel spec, preset, epsilon grid, flags."""


class DataError(SpecBoundsError):
    """Invalid input data: unreadable files, parse failures, bad labels."""

    exit_code = 3


class ParseError(DataError):
    """A file failed to parse; message names the offending line."""


class DegeneracyError(SpecBoundsError):
    """A numerical precondition of a bound failed (degenerate spectrum etc.)."""

    exit_code = 4


class DegenerateGapError(DegeneracyError):
    """A spectral gap required by a bound is below tolerance."""


class SingularCovarianceError(DegeneracyError):
    """Sample covariance is singular to tolerance; whitening undefined."""


class ValidityConditionError(DegeneracyError):
    """Perturbation too large for the first-order eigenvector expansion."""
