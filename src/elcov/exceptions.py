"""Exception hierarchy shared across the package, and its data-file and number readers.

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


def _read_records(path, header: str) -> tuple[list[str], list[tuple[int, str]], int]:
    """Read a line-oriented UTF-8 data file (CMAT, LR0TABLE): the words of line 1,
    which must match ``header`` word for word (a ``<placeholder>`` matches any
    word), each later non-blank line with its file line number (the caller
    splits it, so a large file's fields are never all held at once), and the
    file's line count."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"not UTF-8 text ({exc.reason})", path=path) from exc
    words, first = header.split(), lines[0].split() if lines else []
    if len(first) != len(words) or any(w != f for w, f in zip(words, first) if w[0] != "<"):
        raise FormatError(f"expected header {header!r}", path=path, line=1)
    records = [(lineno, text) for lineno, text in enumerate(lines[1:], start=2) if text.strip()]
    return first, records, len(lines)


def _number(text: str, convert=float):
    """``convert(text)`` for a number spelled as the package writes one: ASCII,
    without ``_`` (Python's ``int`` and ``float`` also take digit separators and
    non-ASCII digits); raises :class:`ValueError` otherwise."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"{text!r} is not an ASCII number without '_'")
    return convert(text)


def _numeral(value: float) -> str:
    """``value`` spelled as :func:`_number` reads it back: ``:g`` when that
    keeps every digit, else in full."""
    short = f"{value:g}"
    return short if float(short) == value else str(value)


class NumericalError(ElcovError, RuntimeError):
    """Numerical failure while evaluating an otherwise valid request."""


class NotPositiveSemidefiniteError(NumericalError):
    """A matrix required to be PSD has a significantly negative eigenvalue."""


class SingularMatrixError(NumericalError):
    """A linear solve against a singular (or non-PD) matrix was requested."""


class NoRootError(NumericalError):
    """A bracketing root search found no sign change."""
