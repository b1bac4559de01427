"""One text's TF-IDF vector, built term by term: the oracle that
``vectorize_many`` rows are compared against, bit for bit."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ruaguard.features import Vocabulary, tokenize


@dataclass(frozen=True)
class TfIdfVector:
    indices: tuple[int, ...]  # sorted ascending
    values: tuple[float, ...]

    def norm(self) -> float:
        return math.sqrt(sum(v * v for v in self.values))


def vectorize(vocab: Vocabulary, text: str) -> TfIdfVector:
    """Sparse L2-normalized TF-IDF vector; zero vector if nothing is known."""
    counts: dict[int, int] = {}
    for token in tokenize(text):
        idx = vocab.token_index.get(token)
        if idx is not None:
            counts[idx] = counts.get(idx, 0) + 1
    if not counts:
        return TfIdfVector(indices=(), values=())
    indices = sorted(counts)
    raw = [counts[i] * vocab.idf[i] for i in indices]
    norm = math.sqrt(sum(v * v for v in raw))
    return TfIdfVector(indices=tuple(indices), values=tuple(v / norm for v in raw))
