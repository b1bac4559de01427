"""Text normalisation shared by the recognizer and the feature extractors."""

from __future__ import annotations

import re

from .errors import EmptyAfterNormalizeError

_WS_RE = re.compile(r"\s+")


def normalize(text: str) -> str:
    """Lowercase, collapse whitespace runs to single spaces, and trim."""
    out = _WS_RE.sub(" ", text).strip().lower()
    if not out:
        raise EmptyAfterNormalizeError("text is empty after normalization")
    return out
