"""Exception types shared across the package.

A class earns its place here only if it picks a CLI exit code, carries data
for its handler, or is caught by name somewhere. Any other check raises one of
these with a message that says what went wrong: a caller-supplied value
outside its domain raises ``InvalidValueError``, unreadable file content
raises ``ParseError``.
"""

from __future__ import annotations


class TwsegError(Exception):
    """Base class for all package-specific errors."""


class InputError(TwsegError):
    """Invalid or unreadable input data (CLI exit code 2)."""


class OutputError(TwsegError):
    """Failure while writing results (CLI exit code 3)."""


class InternalError(TwsegError):
    """An internal invariant was violated (CLI exit code 4)."""


class InvalidValueError(InputError, ValueError):
    """A caller-supplied value outside its documented domain, such as a
    K below 1 or past the frames, an empty input, mismatched lengths or an
    infeasible synth spec (CLI exit code 2)."""


class InvariantError(InternalError, ValueError):
    """A value the package computed breaks a type's invariant (CLI exit
    code 4)."""


class NonFiniteError(InvalidValueError):
    """A NaN or infinity where finite values are required."""

    def __init__(self, row: int, col: int, where: str | None = None):
        message = f"non-finite value at row {row}, col {col}"
        super().__init__(f"{where}: {message}" if where else message)
        self.row = row
        self.col = col


class KUnreachableError(TwsegError):
    """No hierarchy level has at least K clusters."""

    def __init__(self, max_available: int):
        super().__init__(f"no partition with >= requested clusters; finest has {max_available}")
        self.max_available = max_available


class ParseError(InputError):
    """Input file content that could not be read: a bad header, a truncated
    payload, an empty file or a text line that does not parse."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
