"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, DataFormatError (and
OSError) -> 3, NumericalError -> 4.
"""


class KrrLabError(Exception):
    """Base class for package-specific errors."""


class ConfigError(KrrLabError, ValueError):
    """Invalid experiment configuration (bad flag, unknown key, bad range)."""


class DataFormatError(KrrLabError, ValueError):
    """Malformed input data (libsvm parse errors, missing CSV columns)."""


class NumericalError(KrrLabError, RuntimeError):
    """Numerical failure during a computation."""


class SingularKernelError(NumericalError):
    """Regularized kernel system is not positive definite.

    Carries the smallest eigenvalue of the system matrix: the exact one of a
    spectral cell, or that of K + ridge*I when its one Cholesky
    factorization failed.
    """

    def __init__(self, message: str, smallest_eigenvalue: float):
        super().__init__(message)
        self.smallest_eigenvalue = smallest_eigenvalue


class KernelEvaluationError(NumericalError):
    """A kernel evaluation produced a non-finite value."""

    def __init__(self, message: str, i: int, j: int):
        super().__init__(message)
        self.i = i
        self.j = j
