"""Exception types shared across the package."""

from __future__ import annotations


class PonziRadarError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PonziRadarError):
    """Malformed transaction log input.

    Carries the 1-based line number and, when known, the column.
    """

    def __init__(self, message: str, line: int, column: int | None = None):
        loc = f"line {line}" if column is None else f"line {line}, column {column}"
        super().__init__(f"{loc}: {message}")
        self.line = line
        self.column = column


class DataError(PonziRadarError):
    """Input data violates a documented contract (bad schema, unknown id, ...)."""


class SchemaMismatchError(DataError):
    """A model or file declares a feature schema different from the one in use."""

