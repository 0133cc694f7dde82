"""Exception hierarchy shared across the package.

Two families matter operationally: :class:`InputError` covers bad arguments,
domains, and malformed files (CLI exit code 1), while :class:`NumericalError`
covers failures discovered during computation (CLI exit code 2).
"""


class ElcovError(Exception):
    """Base class for all package-specific errors."""


class InputError(ElcovError, ValueError):
    """Invalid argument, precondition violation, or unparseable input."""


class FormatError(InputError):
    """Malformed data file; carries the offending location."""

    def __init__(self, message, path=None, line=None, column=None):
        loc = []
        if path is not None:
            loc.append(str(path))
        if line is not None:
            loc.append(f"line {line}")
        if column is not None:
            loc.append(f"column {column}")
        prefix = ", ".join(loc)
        super().__init__(f"{prefix}: {message}" if prefix else message)
        self.path = path
        self.line = line
        self.column = column


class NumericalError(ElcovError, RuntimeError):
    """Numerical failure while evaluating an otherwise valid request."""


class NotPositiveSemidefiniteError(NumericalError):
    """A matrix required to be PSD has a significantly negative eigenvalue."""


class SingularMatrixError(NumericalError):
    """A linear solve against a singular (or non-PD) matrix was requested."""


class NoRootError(NumericalError):
    """A bracketing root search found no sign change."""
