"""Exception types shared across the package."""

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
    K below 1 or an unknown option name (CLI exit code 2)."""


class InvariantError(InternalError, ValueError):
    """A value the package computed breaks a type's invariant (CLI exit
    code 4)."""


class EmptySequenceError(InputError):
    """A feature sequence with zero frames or zero dimensions."""


class NonFiniteError(InputError):
    """A NaN or infinity where finite values are required."""

    def __init__(self, row: int, col: int, where: str | None = None):
        message = f"non-finite value at row {row}, col {col}"
        super().__init__(f"{where}: {message}" if where else message)
        self.row = row
        self.col = col


class EmptyInputError(InputError):
    """An operation received an empty collection."""


class ZeroLengthError(InputError):
    """A temporal normalizer of zero length."""


class TooFewNodesError(InputError):
    """A 1-NN graph needs at least two nodes."""


class TooFewFramesError(InputError):
    """Hierarchy construction needs at least two frames."""


class KUnreachableError(TwsegError):
    """No hierarchy level has at least K clusters."""

    def __init__(self, max_available: int):
        super().__init__(f"no partition with >= requested clusters; finest has {max_available}")
        self.max_available = max_available


class KTooLargeError(InputError):
    """Requested more clusters than there are items to cluster."""


class LengthMismatchError(InputError, ValueError):
    """Two inputs that must cover the same frames or nodes differ in length,
    such as a prediction and its ground truth."""


class BadMagicError(InputError):
    """A binary feature file did not start with the expected magic."""


class TruncatedFileError(InputError):
    """A binary feature file ended before the declared payload."""


class ParseError(InputError):
    """A text input line could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InfeasibleSpecError(InputError):
    """A synthetic generation spec that cannot be realized."""
