"""Exception types shared across the package.

A bad input raises an ``InvalidInputError``, or a ``FormatError`` that names
its source and line; a bare ``RuaGuardError`` is a fault in code.
"""


class RuaGuardError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(RuaGuardError, ValueError):
    """A setting, config line or file from outside the program is invalid,
    cannot be read, or holds too little for what was asked of it."""


class FormatError(RuaGuardError):
    """An error in the text of one input, at ``line`` (and ``col``) when known.

    A loader that read the text from a file sets ``source`` to its path, and
    the message then leads with it, ``g.cfg line 1, col 11: empty
    alternative``, where the text alone gives ``empty alternative (line 1,
    col 11)``.
    """

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col
        self.source: str | None = None

    def __str__(self) -> str:
        if self.line is None:
            return self.message if self.source is None else f"{self.source}: {self.message}"
        at = f"line {self.line}" if self.col is None else f"line {self.line}, col {self.col}"
        if self.source is None:
            return f"{self.message} ({at})"
        return f"{self.source} {at}: {self.message}"


class GrammarError(FormatError):
    """A grammar that does not parse, breaks a structural rule, or nests too
    deeply for the matcher."""


class DatasetFormatError(FormatError):
    """A TSV input (a dataset or a partition manifest) is malformed."""


class TargetNotFoundWarning(UserWarning):
    """A modifier's target token matched no terminal; the grammar is unchanged."""
