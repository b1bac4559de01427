"""Exception types shared across the package."""


class RuaGuardError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(RuaGuardError, ValueError):
    """A setting, config line or file from outside the program is invalid."""


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
    """Base class for grammar definition and validation errors."""


class GrammarSyntaxError(GrammarError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(message, line, col)


class UndefinedNonTerminalError(GrammarError):
    def __init__(self, name: str):
        super().__init__(f"non-terminal {name!r} is referenced but never defined")
        self.name = name


class DuplicateRuleError(GrammarError):
    def __init__(self, name: str):
        super().__init__(f"rule {name!r} is defined more than once")
        self.name = name


class CycleDetectedError(GrammarError):
    def __init__(self, path: list[str]):
        super().__init__("grammar contains a cycle: " + " -> ".join(path))
        self.path = list(path)


class ExhaustedLanguageError(RuaGuardError):
    """Deduplicated sampling could not reach the requested count."""

    def __init__(self, found: int, requested: int):
        super().__init__(
            f"found only {found} distinct strings while {requested} were requested"
        )
        self.found = found
        self.requested = requested


class TargetNotFoundWarning(UserWarning):
    """A modifier's target token matched no terminal; the grammar is unchanged."""


class EmptySplitGrammarError(RuaGuardError):
    def __init__(self, split: str):
        super().__init__(f"the {split!r} sub-grammar lost its start symbol")
        self.split = split


class EmptyAfterNormalizeError(RuaGuardError):
    """Text normalization produced an empty string."""


class EmptyCorpusError(RuaGuardError):
    """A fit or mine operation received no documents."""


class MissingClassError(RuaGuardError):
    def __init__(self, label):
        super().__init__(f"training data contains no example with label {label!r}")
        self.label = label


class LengthMismatchError(RuaGuardError):
    """Predictions and gold labels have different lengths."""


class NoPositivesInGoldError(RuaGuardError):
    """Recall is undefined: no gold-positive example in the evaluation data."""


class NotEnoughCandidatesError(RuaGuardError):
    def __init__(self, available: int, requested: int):
        super().__init__(
            f"only {available} candidates available for {requested} requested"
        )
        self.available = available
        self.requested = requested


class MissingClearConfirmError(RuaGuardError):
    """A disclosure config must always carry a non-empty confirmation string."""


class DatasetFormatError(FormatError):
    """A TSV input (a dataset or a partition manifest) is malformed."""
