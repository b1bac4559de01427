"""Learned intent classifiers.

Four baselines over the p/a/n label set:

- bag-of-words logistic regression on L2-normalized TF-IDF, trained to the
  minimum of its convex loss by full-batch L-BFGS
- nearest-neighbor retrieval: the training row of highest TF-IDF cosine,
  as mining scores its corpus lines
- a hashed word n-gram linear model: mean-pooled learned embeddings into a
  softmax head, trained by mini-batch SGD with a linearly decaying rate
- a random guesser over the training label distribution

All training is deterministic given a seed. Models save to .npz files and
reload with bit-identical arrays; the n-gram model saves its folded logits.
"""

from __future__ import annotations

import functools
import json
import math
import random
import zipfile
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .dataset import (
    CLASS_INDEX,
    CLASS_ORDER,
    Label,
    LabeledUtterance,
    Prediction,
    label_distribution,
    one_hot_prediction,
    prediction_from_scores,
)
from .errors import InvalidInputError
from .features import (
    Vocabulary,
    best_rows,
    dense_zeros,
    fit_tfidf,
    tokenize,
    vectorize_many,
)
from .hashing import derive_seed, fnv1a_64
from .text import open_input

NGRAM_JOIN = "\x1f"

# Examples per n-gram training step; the step's gradient is their mean.
NGRAM_BATCH = 16

# Distinct token windows whose n-gram count and summed logits one n-gram
# model keeps. The 29,957 strings of the packaged pos, aic and neg grammars
# hold 2,677 windows at ngram_max 3, so all of them fit. Full of the windows
# of distinct 4-token texts it takes about 1.5 MB, whatever dim is.
NGRAM_WINDOW_CACHE_SIZE = 4096


def _check_classes(rows: list[LabeledUtterance]) -> None:
    present = {row.label for row in rows}
    for label in CLASS_ORDER:
        if label not in present:
            raise InvalidInputError(
                f"training data contains no example with label {label.value!r}"
            )


def _label_codes(rows: list[LabeledUtterance]) -> np.ndarray:
    return np.asarray([CLASS_INDEX[row.label] for row in rows], dtype=np.int64)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=-1, keepdims=True)


def _cross_entropy(logits: np.ndarray, codes) -> tuple[float, np.ndarray]:
    """The mean softmax cross-entropy of a batch's (B, C) ``logits`` against
    its class ``codes``, and its gradient with respect to the logits."""
    G = _softmax(logits)
    rows = np.arange(len(G))
    loss = float(-np.log(G[rows, codes]).mean())
    G[rows, codes] -= 1.0
    G /= len(G)
    return loss, G


# ---------------------------------------------------------------------------
# Bag-of-words logistic regression


# The L2 penalty on BoW-LR weights.
BOWLR_L2 = 1e-4

# L-BFGS stops at max |gradient| < BOWLR_TOL; the standard dataset takes ~35 iterations.
BOWLR_TOL = 1e-5
BOWLR_MAX_ITER = 500
_LBFGS_MEMORY = 10


def bowlr_loss_and_grad(W, b, X, codes, l2):
    """Mean cross-entropy plus an L2 penalty on W (biases unpenalized).

    X is (B, V) dense; ``codes`` holds the B class codes. Returns (loss, dW, db).
    """
    loss, G = _cross_entropy(X @ W.T + b, codes)
    return loss + 0.5 * l2 * float((W * W).sum()), G.T @ X + l2 * W, G.sum(axis=0)


def _lbfgs(f, x):
    """Minimise a convex ``f(x) -> (loss, grad)`` by L-BFGS with Armijo backtracking;
    return the last point and the loss at every point visited, ``x`` first."""
    loss, g = f(x)
    history, pairs = [loss], []
    for _ in range(BOWLR_MAX_ITER):
        if np.abs(g).max() < BOWLR_TOL:
            break
        # two-loop recursion: d = -H g, H the inverse Hessian the pairs model
        d, alphas = -g, []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * (s @ d))
            d -= alphas[-1] * y
        if pairs:
            s, y, rho = pairs[-1]
            d /= rho * (y @ y)
        for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
            d += (alpha - rho * (y @ d)) * s
        # after 40 halvings no decrease is left to find at float precision
        for step in 0.5 ** np.arange(40):
            loss_new, g_new = f(x + step * d)
            if loss_new <= loss + 1e-4 * step * (g @ d):
                break
        else:
            break
        s, y = step * d, g_new - g
        if s @ y > 0:
            pairs = (pairs + [(s, y, 1.0 / (s @ y))])[-_LBFGS_MEMORY:]
        x, loss, g = x + s, loss_new, g_new
        history.append(loss)
    return x, history


@dataclass(eq=False)
class BowLrModel:
    vocab: Vocabulary
    weights: np.ndarray  # (C, V)
    biases: np.ndarray  # (C,)
    loss_history: list[float] = field(default_factory=list)

    def predict_batch(self, texts: list[str]) -> list[Prediction]:
        X = vectorize_many(self.vocab, texts)
        # einsum sums each row on its own, so a text scores the same alone as
        # in any batch; a BLAS product's order of sums depends on the batch
        probs = _softmax(np.einsum("nv,cv->nc", X, self.weights) + self.biases)
        return [prediction_from_scores(t, row) for t, row in zip(texts, probs.tolist())]

    def predict(self, text: str) -> Prediction:
        return self.predict_batch([text])[0]


def train_bow_lr(train: list[LabeledUtterance], seed: int = 0) -> BowLrModel:
    """Fit BoW-LR to the minimum of ``bowlr_loss_and_grad`` on all of ``train``
    by full-batch L-BFGS from zero; ``loss_history`` has one loss per iterate.
    ``seed`` is accepted as every trainer's is, but the result ignores it."""
    if not train:
        raise InvalidInputError("no training rows")
    _check_classes(train)
    texts = [row.text for row in train]
    vocab = fit_tfidf(texts)
    X = vectorize_many(vocab, texts)
    codes = _label_codes(train)
    n_weights = len(CLASS_ORDER) * len(vocab)

    def split(x):  # W and b are views into the one parameter vector
        return x[:n_weights].reshape(len(CLASS_ORDER), -1), x[n_weights:]

    def loss_and_grad(x):
        # looked up on every call, so a wrapped module attribute sees each one
        loss, dW, db = bowlr_loss_and_grad(*split(x), X, codes, BOWLR_L2)
        return loss, np.concatenate([dW.ravel(), db])

    x, history = _lbfgs(loss_and_grad, np.zeros(n_weights + len(CLASS_ORDER)))
    return BowLrModel(vocab, *split(x), loss_history=history)


# ---------------------------------------------------------------------------
# Nearest-neighbor retrieval


@dataclass(eq=False)
class IrModel:
    vocab: Vocabulary
    matrix: np.ndarray  # (n, V) dense, row-major, rows unit norm
    labels: np.ndarray  # (n,) class codes

    def predict_batch(self, texts: list[str]) -> list[Prediction]:
        """Label each text as its training row of highest cosine, the nearest
        by euclidean distance, by ``best_rows``. A text that shares no token
        with the vocabulary takes row 0's label."""
        # vectorize_many is looked up here, so a wrapped module attribute sees every block
        nearest, _ = best_rows(functools.partial(vectorize_many, self.vocab), texts, self.matrix)
        labels = self.labels[nearest].tolist()
        return [one_hot_prediction(t, CLASS_ORDER[code]) for t, code in zip(texts, labels)]

    def predict(self, text: str) -> Prediction:
        return self.predict_batch([text])[0]


def fit_ir(train: list[LabeledUtterance]) -> IrModel:
    """Keep the first training row of each distinct TF-IDF vector, so that
    no two rows tie by equal vectors and the lowest index wins exactly."""
    if not train:
        raise InvalidInputError("no training rows")
    texts = [row.text for row in train]
    vocab = fit_tfidf(texts)
    matrix = vectorize_many(vocab, texts)
    # rows are looked up by the hash of their bytes, then compared in full.
    # Each kept row moves up in the matrix's own buffer, never past a row not
    # yet read, so no second matrix is made (the model keeps the buffer);
    # ``same`` holds the kept rows' new places
    kept: list[int] = []
    by_hash: dict[int, list[int]] = {}
    for i, row in enumerate(matrix):
        same = by_hash.setdefault(hash(row.tobytes()), [])
        if not any(np.array_equal(matrix[j], row) for j in same):
            same.append(len(kept))
            matrix[len(kept)] = row
            kept.append(i)
    return IrModel(vocab=vocab, matrix=matrix[: len(kept)], labels=_label_codes(train)[kept])


# ---------------------------------------------------------------------------
# Hashed n-gram linear model


@dataclass(frozen=True)
class NgramParams:
    ngram_max: int = 3
    hash_buckets: int = 2_000_000
    # Chosen on val from 300/100/64/32/16 over twelve seeds of the standard
    # dataset: 16 had the best mean M (300 the worst) and trains about twice
    # as fast as 300; below 32, training time no longer falls.
    dim: int = 16
    epochs: int = 10
    learning_rate: float = 4.0

    def __post_init__(self):
        for name in ("ngram_max", "hash_buckets", "dim", "epochs"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise InvalidInputError(f"ngram {name} must be an integer >= 1, got {value!r}")
        if self.hash_buckets > 2**63:
            # every bucket id must fit the model file's int64 array
            raise InvalidInputError(
                f"ngram hash_buckets must be at most 2**63, got {self.hash_buckets}"
            )
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise InvalidInputError(
                f"ngram learning_rate must be finite and above 0, got {self.learning_rate}"
            )


def _token_windows(tokens: list[str], ngram_max: int) -> list[list[str | None]]:
    """A text's token windows, as columns: window i is ``tokens[i:i + k]``
    padded with None at the end, k = ``min(ngram_max, len(tokens))``, and
    column j holds token j of every window, so ``zip(*columns)`` gives the
    windows and ``map(f, *columns)`` calls ``f(*window)`` on each.

    Each n-gram of the text starts at one window's first token, so the
    text's n-grams, each counted once, are the windows' ``_window_grams``.
    The walk costs the token count, whatever ``ngram_max`` is.
    """
    k = min(ngram_max, len(tokens))
    padded = tokens + [None] * (k - 1)
    columns = [tokens]  # a text with no tokens has one column, empty
    for j in range(1, k):
        columns.append(padded[j:])
    return columns


def _window_grams(window: tuple[str | None, ...]) -> list[str]:
    """The n-grams that start at a window's first token, shortest first:
    each is the one before it joined to one more token."""
    gram = window[0]
    grams = [gram]
    for token in window[1:]:
        if token is None:
            break
        gram = gram + NGRAM_JOIN + token
        grams.append(gram)
    return grams


def initial_embedding_row(seed: int, bucket: int, dim: int) -> np.ndarray:
    """Deterministic initial embedding for a bucket, independent of visit order."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, bucket])))
    return rng.uniform(-1.0 / dim, 1.0 / dim, size=dim)


def ngram_loss_and_grad(W, b, E, u, M, codes):
    """Mean cross-entropy over a batch for the n-gram linear model.

    ``u`` holds the rows of ``E`` in play, sorted and unique; only they are
    gathered. The (B, |u|) matrix ``M`` of count-over-total weights pools
    them: the pooled embeddings are ``M @ E[u]``, and an example with no rows
    pools to zero. Returns (loss, dW, db, dE) with dE the gradient of ``E[u]``.
    """
    Eu = E[u]
    # Products are taken through (|u|, C) arrays, never a (B, dim) one:
    # (M @ E[u]) @ W.T == M @ (E[u] @ W.T), at a fraction of the work.
    loss, G = _cross_entropy(M @ (Eu @ W.T) + b, codes)
    MG = M.T @ G
    return loss, MG.T @ Eu, G.sum(axis=0), MG @ W


def _fold(weights: np.ndarray, row: np.ndarray) -> tuple[float, ...]:
    """The class logits of one embedding row, ``weights @ row``, as C floats."""
    return tuple((weights @ row).tolist())


def _gram_logits(
    logits: dict[int, tuple[float, ...]], weights: np.ndarray, seed: int, params: NgramParams,
    gram: str,
) -> tuple[float, ...]:
    """An n-gram's class logits, its embedding row's ``weights @ row``. A
    trained bucket's logits are the model's own; an untrained bucket's
    deterministic initial row is drawn, folded and dropped."""
    bucket = fnv1a_64(gram) % params.hash_buckets
    folded = logits.get(bucket)
    if folded is None:
        folded = _fold(weights, initial_embedding_row(seed, bucket, params.dim))
    return folded


@dataclass(eq=False)
class NgramLinearModel:
    """Mean-pooled n-gram embeddings into a softmax head.

    ``weights`` is linear, so it is folded into each row: a trained bucket
    keeps only ``logits``, its row's ``weights @ row``, and the logits of a
    text are the mean of its n-grams' logits plus ``biases``. Each token
    window's n-grams are summed shortest first, and a text adds its windows'
    sums left to right. The window cache is built from the values given
    here; they are not to be modified afterwards.
    """

    params: NgramParams
    seed: int
    logits: dict[int, tuple[float, ...]]
    weights: np.ndarray  # (C, dim), folds the initial rows of unseen buckets
    biases: np.ndarray  # (C,)
    # a token window's tokens -> (n-gram count, s0, s1, s2), the summed
    # logits of the n-grams that start it
    window_sums: Callable[..., tuple] = field(init=False, repr=False)
    _biases: tuple[float, ...] = field(init=False, repr=False)

    def __post_init__(self):
        # the cache holds the model's values, not self: no reference cycle
        gram_logits = functools.partial(
            _gram_logits, self.logits, self.weights, self.seed, self.params
        )

        @functools.lru_cache(maxsize=NGRAM_WINDOW_CACHE_SIZE)
        def window_sums(*window: str | None) -> tuple[int, float, float, float]:
            grams = _window_grams(window)
            s0 = s1 = s2 = 0.0
            for z0, z1, z2 in map(gram_logits, grams):
                s0 += z0
                s1 += z1
                s2 += z2
            return len(grams), s0, s1, s2

        self.window_sums = window_sums
        self._biases = tuple(self.biases.tolist())

    def predict(self, text: str) -> Prediction:
        columns = _token_windows(tokenize(text), self.params.ngram_max)
        total = 0
        s0 = s1 = s2 = 0.0
        for count, w0, w1, w2 in map(self.window_sums, *columns):
            total += count
            s0 += w0
            s1 += w1
            s2 += w2
        l0, l1, l2 = self._biases
        if total:
            l0, l1, l2 = s0 / total + l0, s1 / total + l1, s2 / total + l2
        top = max(l0, l1, l2)
        e0, e1, e2 = math.exp(l0 - top), math.exp(l1 - top), math.exp(l2 - top)
        norm = math.fsum((e0, e1, e2))
        p0, p1, p2 = e0 / norm, e1 / norm, e2 / norm
        # prediction_from_scores' argmax: ties go to the earlier class
        label, best = Label.POS, p0
        if p1 > best:
            label, best = Label.AIC, p1
        if p2 > best:
            label = Label.NEG
        return Prediction(text, label, (p0, p1, p2))

    def predict_batch(self, texts: list[str]) -> list[Prediction]:
        return [self.predict(text) for text in texts]


def _ngram_counts(texts: list[str], ngram_max: int, hash_buckets: int) -> list[Counter]:
    """Each text's hashed n-gram buckets and their counts. The texts are
    walked window by window, as ``predict`` walks them, and each distinct
    window's n-grams are joined and hashed once."""

    @functools.cache
    def window_buckets(*window: str | None) -> list[int]:
        return [fnv1a_64(gram) % hash_buckets for gram in _window_grams(window)]

    return [
        Counter(chain.from_iterable(map(window_buckets, *_token_windows(tokenize(t), ngram_max))))
        for t in texts
    ]


def _fit_ngram_rows(
    train: list[LabeledUtterance], hp: NgramParams, seed: int
) -> tuple[dict[int, int], np.ndarray, np.ndarray, np.ndarray]:
    """Run the n-gram SGD; return ``row_of`` (trained bucket -> row of ``E``),
    the trained embeddings ``E`` and the head ``W``, ``b``."""
    counts = _ngram_counts([row.text for row in train], hp.ngram_max, hp.hash_buckets)
    codes = _label_codes(train)
    # Every trained bucket owns one row of a dense matrix, so a step is one
    # gather and one scatter of the rows its batch holds. Rows are numbered
    # as the texts, in order and each by ascending bucket, first show them;
    # a text's row is weighted by its bucket's count over the text's total.
    # The (row, count) pairs lie flat, text after text.
    row_of: dict[int, int] = {}
    rows: list[int] = []
    bucket_counts: list[int] = []
    for text_counts in counts:
        for bucket in sorted(text_counts):
            rows.append(row_of.setdefault(bucket, len(row_of)))
            bucket_counts.append(text_counts[bucket])
    sizes = np.fromiter(map(len, counts), dtype=np.intp, count=len(counts))
    totals = np.fromiter((sum(c.values()) for c in counts), dtype=np.float64, count=len(counts))
    del counts
    flat_rows = np.asarray(rows, dtype=np.intp)
    # int / int rounds as float64 division does: both are exact below 2**53
    flat_weights = np.asarray(bucket_counts, dtype=np.float64) / np.repeat(totals, sizes)
    del rows, bucket_counts, totals
    starts = np.cumsum(sizes) - sizes
    E = np.empty((len(row_of), hp.dim), dtype=np.float64)
    for trained, i in row_of.items():
        E[i] = initial_embedding_row(seed, trained, hp.dim)

    n_classes = len(CLASS_ORDER)
    W = np.zeros((n_classes, hp.dim), dtype=np.float64)
    b = np.zeros(n_classes, dtype=np.float64)
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, "ngram:shuffle")))
    n = len(train)
    slot = np.arange(n) % NGRAM_BATCH  # the i-th text of an epoch is row slot[i] of its M
    # A batch's rows are marked in ``in_batch``; the marks read back sorted
    # and unique are ``u``, and ``col_of`` maps each of them to its column.
    in_batch = np.zeros(len(row_of), dtype=bool)
    col_of = np.empty(len(row_of), dtype=np.intp)
    total_steps = hp.epochs * -(-n // NGRAM_BATCH)
    step = 0
    for _ in range(hp.epochs):
        order = rng.permutation(n)
        # The epoch's pairs, text after text in the order its batches take
        # them: a text's pairs move from its flat start to its epoch start.
        ordered_sizes = sizes[order]
        ends = np.cumsum(ordered_sizes)
        pair = np.arange(ends[-1]) + np.repeat(starts[order] - ends + ordered_sizes, ordered_sizes)
        epoch_rows, epoch_weights = flat_rows[pair], flat_weights[pair]
        epoch_examples = np.repeat(slot, ordered_sizes)
        # where each batch's pairs start and end
        bounds = [0, *ends[NGRAM_BATCH - 1 :: NGRAM_BATCH].tolist(), int(ends[-1])]
        for lo, first, last in zip(range(0, n, NGRAM_BATCH), bounds, bounds[1:]):
            lr = hp.learning_rate * (1.0 - step / total_steps)
            batch = order[lo : lo + NGRAM_BATCH]
            batch_rows = epoch_rows[first:last]
            in_batch[batch_rows] = True
            u = np.flatnonzero(in_batch)
            in_batch[u] = False
            col_of[u] = np.arange(len(u))
            # a text holds each row once, so (example, col) is set at most once
            M = np.zeros((len(batch), len(u)), dtype=np.float64)
            M[epoch_examples[first:last], col_of[batch_rows]] = epoch_weights[first:last]
            # looked up on every call, so a wrapped module attribute sees each one
            _, dW, db, dE = ngram_loss_and_grad(W, b, E, u, M, codes[batch])
            W -= lr * dW
            b -= lr * db
            E[u] -= lr * dE
            step += 1
    return row_of, E, W, b


def train_ngram_linear(
    train: list[LabeledUtterance],
    hp: NgramParams | None = None,
    seed: int = 0,
) -> NgramLinearModel:
    """Train by ``_fit_ngram_rows``, then fold each trained row into its logits."""
    if seed < 0:  # SeedSequence draws the embedding rows
        raise InvalidInputError(f"ngram seed must be non-negative, got {seed}")
    if not train:
        raise InvalidInputError("no training rows")
    _check_classes(train)
    hp = hp or NgramParams()
    # Too large a learning rate overflows; the check below reports it once.
    with np.errstate(all="ignore"):
        row_of, E, W, b = _fit_ngram_rows(train, hp, seed)
        logits = {bucket: _fold(W, E[row]) for bucket, row in row_of.items()}
    finite = np.isfinite(W).all() and np.isfinite(b).all()
    if not (finite and all(map(math.isfinite, chain.from_iterable(logits.values())))):
        raise InvalidInputError(
            f"ngram training diverged at learning_rate {hp.learning_rate}: "
            "its weights are not finite; try a smaller learning rate"
        )
    return NgramLinearModel(params=hp, seed=seed, logits=logits, weights=W, biases=b)


# ---------------------------------------------------------------------------
# Random guess


@dataclass(eq=False)
class RandomGuessModel:
    """Guesses one label per text, drawn from a stream seeded by the model's
    seed and the text, so a text gets the same label alone or in any batch."""

    distribution: tuple[float, float, float]
    seed: int

    def __post_init__(self):
        # refused here, not at a first predict
        dist = [float(x) for x in self.distribution]
        if not (
            len(dist) == len(CLASS_ORDER)
            and min(dist) >= 0
            and math.isclose(sum(dist), 1.0, abs_tol=1e-9)
        ):
            raise ValueError(
                "label distribution must hold one non-negative weight per class and sum to 1"
            )

    def predict(self, text: str) -> Prediction:
        rng = random.Random(derive_seed(self.seed, text))
        return one_hot_prediction(text, rng.choices(CLASS_ORDER, self.distribution)[0])

    def predict_batch(self, texts: list[str]) -> list[Prediction]:
        return [self.predict(text) for text in texts]


def fit_random_guess(train: list[LabeledUtterance], seed: int = 0) -> RandomGuessModel:
    if not train:
        raise InvalidInputError("no training rows")
    dist = label_distribution(train)
    return RandomGuessModel(
        distribution=tuple(dist[label] for label in CLASS_ORDER), seed=seed
    )


# ---------------------------------------------------------------------------
# Persistence (arrays round-trip bit-exactly)
# A reader raises KeyError for a missing key, TypeError for an unexpected one,
# ValueError for a malformed value, IndexError for a sparse index past the width.

# the only version load_model reads; its n-gram files hold the folded logits
_FORMAT_VERSION = 2


def _shaped(data, key: str, shape: tuple[int, ...]) -> np.ndarray:
    array = np.asarray(data[key])
    if array.shape != shape:
        raise ValueError(f"{key} has shape {array.shape}, expected {shape}")
    if array.dtype.kind not in "biuf":
        raise ValueError(f"{key} must hold real numbers, not {array.dtype}")
    return array


def _seed(meta: dict) -> int:
    seed = meta["seed"]
    if type(seed) is not int:
        raise ValueError(f"seed must be an integer, got {seed!r}")
    return seed


def _write_vocab(vocab: Vocabulary, **arrays: np.ndarray) -> tuple[dict, dict]:
    tokens = sorted(vocab.token_index, key=vocab.token_index.__getitem__)
    own = {"vocab_tokens": np.asarray(tokens, dtype=np.str_), "vocab_df": vocab.df}
    return {"document_count": vocab.document_count}, own | arrays


def _read_vocab(meta: dict, data) -> Vocabulary:
    document_count = meta["document_count"]
    if type(document_count) is not int or document_count < 1:
        raise ValueError(f"document_count must be a positive integer, got {document_count!r}")
    tokens = [str(t) for t in data["vocab_tokens"]]
    if len(set(tokens)) != len(tokens):
        raise ValueError("vocab_tokens must be distinct")
    df = _shaped(data, "vocab_df", (len(tokens),)).astype(np.float64)
    if not ((df >= 1) & (df <= document_count)).all():
        raise ValueError(f"vocab_df must lie between 1 and document_count {document_count}")
    return Vocabulary(
        token_index={t: i for i, t in enumerate(tokens)}, df=df, document_count=document_count
    )


def _write_bowlr(model: BowLrModel) -> tuple[dict, dict]:
    return _write_vocab(model.vocab, weights=model.weights, biases=model.biases)


def _read_bowlr(meta: dict, data) -> BowLrModel:
    vocab = _read_vocab(meta, data)
    C = len(CLASS_ORDER)
    return BowLrModel(
        vocab=vocab,
        weights=_shaped(data, "weights", (C, len(vocab))),
        biases=_shaped(data, "biases", (C,)),
    )


def _write_ir(model: IrModel) -> tuple[dict, dict]:
    """The matrix's nonzeros as compressed sparse rows."""
    M = model.matrix
    rows, cols = np.nonzero(M)
    indptr = np.zeros(M.shape[0] + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=M.shape[0]), out=indptr[1:])
    return _write_vocab(
        model.vocab,
        mat_data=M[rows, cols],
        mat_indices=cols.astype(np.int32),
        mat_indptr=indptr,
        mat_shape=np.asarray(M.shape, dtype=np.int64),
        labels=model.labels,
    )


def _read_ir(meta: dict, data) -> IrModel:
    """Each size the file gives is checked against its arrays before allocating."""
    vocab = _read_vocab(meta, data)
    C = len(CLASS_ORDER)
    n, width = map(int, _shaped(data, "mat_shape", (2,)))
    if width != len(vocab):
        raise ValueError(f"matrix is {width} wide over {len(vocab)} tokens")
    if n < 1:
        raise ValueError("matrix has no rows")
    indptr = _shaped(data, "mat_indptr", (n + 1,))
    if indptr.dtype.kind not in "iu" or indptr[0] != 0 or (indptr[1:] < indptr[:-1]).any():
        raise ValueError("mat_indptr must be integers that start at 0 and never decrease")
    nnz = int(indptr[-1])
    indices, values = _shaped(data, "mat_indices", (nnz,)), _shaped(data, "mat_data", (nnz,))
    if indices.dtype.kind not in "iu" or (indices < 0).any():  # numpy would wrap these
        raise ValueError("mat_indices must be non-negative integers")
    labels = _shaped(data, "labels", (n,))
    matrix = dense_zeros(n, width, rows="rows")
    matrix[np.repeat(np.arange(n), np.diff(indptr)), indices] = values
    if labels.dtype.kind not in "iu" or not np.isin(labels, np.arange(C)).all():
        raise ValueError(f"labels must be class codes 0 to {C - 1}")
    return IrModel(vocab=vocab, matrix=matrix, labels=labels)


def _write_ngram(model: NgramLinearModel) -> tuple[dict, dict]:
    buckets = sorted(model.logits)
    logits = np.asarray([model.logits[b] for b in buckets], dtype=np.float64)
    return {"params": vars(model.params), "seed": model.seed}, {
        "buckets": np.asarray(buckets, dtype=np.int64),
        "logits": logits.reshape(len(buckets), len(CLASS_ORDER)),
        "weights": model.weights,
        "biases": model.biases,
    }


def _read_ngram(meta: dict, data) -> NgramLinearModel:
    C = len(CLASS_ORDER)
    params = NgramParams(**meta["params"])
    ids = np.asarray(data["buckets"])
    if ids.ndim != 1 or ids.dtype.kind not in "iu":
        raise ValueError(f"buckets must be 1-D integers, got {ids.dtype} of shape {ids.shape}")
    buckets = ids.tolist()
    if len(set(buckets)) != len(buckets):
        raise ValueError("buckets must be distinct")
    if not all(0 <= b < params.hash_buckets for b in buckets):
        raise ValueError(f"buckets must lie from 0 to {params.hash_buckets - 1}")
    weights = _shaped(data, "weights", (C, params.dim))
    logits = _shaped(data, "logits", (len(buckets), C)).astype(np.float64).tolist()
    seed = _seed(meta)
    if seed < 0:  # SeedSequence draws the unseen buckets' rows
        raise ValueError(f"ngram seed must be non-negative, got {seed}")
    return NgramLinearModel(
        params=params,
        seed=seed,
        logits={b: tuple(z) for b, z in zip(buckets, logits)},
        weights=weights,
        biases=_shaped(data, "biases", (C,)),
    )


def _write_random(model: RandomGuessModel) -> tuple[dict, dict]:
    return {"seed": model.seed}, {"distribution": np.asarray(model.distribution, dtype=float)}


def _read_random(meta: dict, data) -> RandomGuessModel:
    # the model refuses a distribution it cannot draw from
    dist = _shaped(data, "distribution", (len(CLASS_ORDER),)).astype(np.float64)
    return RandomGuessModel(distribution=tuple(dist.tolist()), seed=_seed(meta))


# kind -> (model class, writer, reader); a file's meta names its kind
MODEL_CODECS = {
    "bowlr": (BowLrModel, _write_bowlr, _read_bowlr),
    "ir": (IrModel, _write_ir, _read_ir),
    "ngram": (NgramLinearModel, _write_ngram, _read_ngram),
    "random": (RandomGuessModel, _write_random, _read_random),
}


def save_model(model, path) -> None:
    kind = next((k for k, codec in MODEL_CODECS.items() if isinstance(model, codec[0])), None)
    if kind is None:
        raise TypeError(f"cannot save model of type {type(model).__name__}")
    own_meta, arrays = MODEL_CODECS[kind][1](model)
    meta = {"version": _FORMAT_VERSION, "classes": [c.value for c in CLASS_ORDER], "kind": kind}
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.asarray(json.dumps(meta | own_meta)), **arrays)


def load_model(path):
    with open_input(path) as fh:  # the npz archive reads from fh, closed here
        try:
            data = np.load(fh, allow_pickle=False)
        except (ValueError, EOFError, zipfile.BadZipFile):
            data = None
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise InvalidInputError(f"{path} is not a model file")
        try:
            meta = json.loads(str(data["meta"]))
        except (KeyError, ValueError):
            raise InvalidInputError(f"{path} is not a model file") from None
        if not isinstance(meta, dict) or meta.get("classes") != [c.value for c in CLASS_ORDER]:
            raise InvalidInputError(f"{path} has an unexpected class order")
        version = meta.get("version")
        if type(version) is not int or version != _FORMAT_VERSION:
            raise InvalidInputError(f"{path} has unknown model file version {version!r}")
        kind = meta.get("kind")
        if type(kind) is not str or kind not in MODEL_CODECS:
            raise InvalidInputError(f"{path} has unknown model kind {kind!r}")
        try:
            # reading an array raises ValueError too, for one of object dtype
            arrays = {key: data[key] for key in data.files}
            for key, array in arrays.items():
                if array.dtype.kind in "fc" and not np.isfinite(array).all():
                    raise ValueError(f"{key} holds a non-finite number")
            return MODEL_CODECS[kind][2](meta, arrays)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"{path} is not a valid {kind} model file: {exc}") from None
