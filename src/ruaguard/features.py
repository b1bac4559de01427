"""Tokenization and L2-normalized TF-IDF features.

Tokens are the lowercased text's runs of non-whitespace, with the
punctuation marks ? . ! , detached as standalone tokens.
idf(t) = ln((1+N)/(1+df(t))) + 1, raw term weight = count * idf, and every
non-empty vector is L2-normalized; an input with only unknown tokens maps to
the zero vector.

numpy is imported only where a vocabulary or a vector is built, so that
importing this module (and ``evaluation``, which mines with it) loads none.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import EmptyCorpusError

if TYPE_CHECKING:
    import numpy as np

_TOKEN_RE = re.compile(r"[?.!,]|[^\s?.!,]+")

# Most entries in one block of a rows-by-rows product of TF-IDF vectors:
# 2**20 float64s (8 MB), so its temporaries stay a few blocks in size however
# many rows are scored.
BLOCK_ENTRIES = 2**20


def tokenize(text: str) -> list[str]:
    """The tokens of ``ruaguard.text.normalize(text)``, taken in one pass:
    ``str.lower`` never makes or removes whitespace or one of ? . ! , and
    tokens never hold the whitespace that normalizing collapses and strips."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(eq=False)
class Vocabulary:
    token_index: dict[str, int]
    df: np.ndarray  # document frequency per token index
    document_count: int

    def __post_init__(self):
        import numpy as np

        n = self.document_count
        self.idf = np.log((1.0 + n) / (1.0 + self.df)) + 1.0

    def __len__(self) -> int:
        return len(self.token_index)


def fit_tfidf(texts: list[str]) -> Vocabulary:
    """Build a vocabulary (with document frequencies) from texts."""
    import numpy as np

    if not texts:
        raise EmptyCorpusError("cannot fit a vocabulary on an empty corpus")
    token_index: dict[str, int] = {}
    df_counts: list[int] = []
    for text in texts:
        # first-occurrence order, so token ids do not depend on the hash seed
        for token in dict.fromkeys(tokenize(text)):
            idx = token_index.get(token)
            if idx is None:
                token_index[token] = len(df_counts)
                df_counts.append(1)
            else:
                df_counts[idx] += 1
    return Vocabulary(
        token_index=token_index,
        df=np.asarray(df_counts, dtype=np.float64),
        document_count=len(texts),
    )


def vectorize_many(vocab: Vocabulary, texts: list[str]) -> np.ndarray:
    """Stack TF-IDF vectors for ``texts`` into a dense (n, V) array of unit/zero rows.

    The array takes n * V * 8 bytes.
    """
    import numpy as np

    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    for i, text in enumerate(texts):
        counts: dict[int, int] = {}
        for token in tokenize(text):
            idx = vocab.token_index.get(token)
            if idx is not None:
                counts[idx] = counts.get(idx, 0) + 1
        if not counts:
            continue  # nothing known: a zero row
        indices = sorted(counts)
        raw = [counts[j] * vocab.idf[j] for j in indices]
        norm = math.sqrt(sum(v * v for v in raw))
        rows.extend([i] * len(indices))
        cols.extend(indices)
        data.extend(v / norm for v in raw)
    out = np.zeros((len(texts), len(vocab)), dtype=np.float64)
    out[rows, cols] = data
    return out
