"""Text normalisation shared by the recognizer and the feature extractors,
and the key=value settings format read by ``--config`` and ``--guard-config``."""

from __future__ import annotations

import re

from .errors import EmptyAfterNormalizeError, InvalidInputError

_WS_RE = re.compile(r"\s+")


def normalize(text: str) -> str:
    """Lowercase, collapse whitespace runs to single spaces, and trim."""
    out = _WS_RE.sub(" ", text).strip().lower()
    if not out:
        raise EmptyAfterNormalizeError("text is empty after normalization")
    return out


def parse_key_values(text: str, keys: tuple[str, ...], what: str) -> dict[str, str]:
    """Read ``key = value`` lines into a dict, the last line for a key winning.

    Blank lines and lines whose first non-blank character is # are skipped;
    anywhere else # is part of the value, so a value may hold a URL fragment.
    A line without = or with a key not in ``keys`` raises InvalidInputError,
    naming the file as ``what``.
    """
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise InvalidInputError(f"expected key=value on line {lineno}")
        key = key.strip()
        if key not in keys:
            raise InvalidInputError(f"unknown {what} key {key!r} on line {lineno}")
        values[key] = value.strip()
    return values
