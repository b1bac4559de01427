"""Tokenization and L2-normalized TF-IDF features.

Tokenizing lowercases a text, detaches each of the marks ? . ! , as a token
of its own, and splits the rest on whitespace as ``str.isspace`` defines it.
idf(t) = ln((1+N)/(1+df(t))) + 1, raw term weight = count * idf, and every
non-empty vector is L2-normalized; an input with only unknown tokens maps to
the zero vector.

numpy is imported only where a vocabulary, a vector or a product is built
(``best_rows``, the one product of IR labelling and mining), so that
importing this module (and ``evaluation``, which mines with it) loads none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import InvalidInputError

if TYPE_CHECKING:
    import numpy as np

# Most products in one block of ``best_rows``, which alone blocks IR scoring and
# mining: 2**19 float64s (4 MB), 116 texts against the standard dataset's 4,505
# distinct training rows or 275 corpus lines against its 1,904 positives.
BLOCK_ENTRIES = 2**19

# Most bytes one dense TF-IDF array may take (2 GB); the standard dataset's
# training rows take about 10 MB.
MAX_DENSE_BYTES = 2**31


def tokenize(text: str) -> list[str]:
    """The tokens of ``ruaguard.text.normalize(text)``: lowercase, pad each of
    ? . ! , with spaces, and split on ``str.isspace`` whitespace, which is
    what normalizing collapses. ``str.lower`` never makes or removes
    whitespace or a mark, so the order of the steps changes no token."""
    return (
        text.lower().replace("?", " ? ").replace(".", " . ").replace("!", " ! ")
        .replace(",", " , ").split()
    )


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
        raise InvalidInputError("cannot fit a vocabulary on an empty corpus")
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


def dense_zeros(n: int, width: int, rows: str = "texts") -> np.ndarray:
    """A row-major float64 array of zeros for ``n`` texts (or what ``rows``
    names) by ``width`` tokens. It takes n * width * 8 bytes; past
    ``MAX_DENSE_BYTES`` this raises ``InvalidInputError`` before allocating."""
    import numpy as np

    size = n * width * 8
    if size > MAX_DENSE_BYTES:
        raise InvalidInputError(
            f"a dense TF-IDF array of {n} {rows} by {width} tokens needs {size} bytes, "
            f"over the limit of {MAX_DENSE_BYTES}"
        )
    return np.zeros((n, width), dtype=np.float64)


def vectorize_many(vocab: Vocabulary, texts: list[str]) -> np.ndarray:
    """Stack TF-IDF vectors for ``texts`` into a dense row-major (n, V) array
    of unit/zero rows.

    The array is ``dense_zeros``'s, allocated first. The terms are counted in
    bulk, in (row, column) order, so each row's squares add up in column
    order, as a term-by-term loop over its sorted columns would add them.
    """
    import numpy as np

    n, width = len(texts), len(vocab)
    out = dense_zeros(n, width)
    index = vocab.token_index
    cols: list[int] = []
    sizes: list[int] = []
    for text in texts:
        ids = [j for j in map(index.get, tokenize(text)) if j is not None]
        cols += ids
        sizes.append(len(ids))
    terms = np.repeat(np.arange(n), sizes) * width + np.asarray(cols, dtype=np.int64)
    terms, counts = np.unique(terms, return_counts=True)
    row, col = np.divmod(terms, width)
    raw = counts * vocab.idf[col]
    norm = np.sqrt(np.bincount(row, weights=raw * raw, minlength=n))
    out[row, col] = raw / norm[row]
    return out


def best_rows(rows_of, texts, R: np.ndarray, columns: np.ndarray | None = None):
    """Each text's best row of ``R`` by dot product, the lowest index on ties,
    and that product, as two arrays: over unit rows, the row of highest cosine.
    ``rows_of(texts)`` builds one block of texts' query rows at a time, each
    released before the next is built. Only the columns both use are multiplied
    (``columns`` marks those of ``R``, if not all); any other column adds only zeros."""
    import numpy as np

    best, value = np.empty(len(texts), dtype=np.intp), np.empty(len(texts))
    block = max(1, BLOCK_ENTRIES // len(R))
    for start in range(0, len(texts), block):
        Q = rows_of(texts[start : start + block])
        n = len(Q)
        used = np.flatnonzero(Q.any(axis=0) if columns is None else Q.any(axis=0) & columns)
        # numpy multiplies one row by gemv, whose sums depend on a row's place
        # in R, so equal rows could differ in the last bit; beside a zero row, gemm
        Q = Q[:, used] if n > 1 else np.vstack([Q[0, used], np.zeros(len(used))])
        products = Q @ R[:, used].T
        part = slice(start, start + n)
        best[part] = products[:n].argmax(axis=1)
        value[part] = products[np.arange(n), best[part]]
        del Q, products  # before the next block's rows are built
    return best, value
