"""Learned intent classifiers.

Four baselines over the p/a/n label set:

- bag-of-words logistic regression on L2-normalized TF-IDF, trained to the
  minimum of its convex loss by full-batch L-BFGS
- nearest-neighbor retrieval by euclidean distance over TF-IDF vectors
- a hashed word n-gram linear model: mean-pooled learned embeddings into a
  softmax head, trained by mini-batch SGD with a linearly decaying rate
- a random guesser over the training label distribution

All training is deterministic given a seed. Models save to .npz files and
reload with bit-identical arrays.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import random
import zipfile
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .dataset import (
    CLASS_ORDER,
    Label,
    LabeledUtterance,
    Prediction,
    label_distribution,
    one_hot_prediction,
    prediction_from_scores,
)
from .errors import EmptyCorpusError, InvalidInputError, MissingClassError
from .features import Vocabulary, fit_tfidf, tokenize, vectorize_many
from .hashing import derive_seed, fnv1a_64

_LABEL_INDEX = {label: i for i, label in enumerate(CLASS_ORDER)}

NGRAM_JOIN = "\x1f"

# Examples per n-gram training step; the step's gradient is their mean.
NGRAM_BATCH = 16

# Distinct n-grams whose (bucket, class logits) one n-gram model keeps for
# prediction: C floats per n-gram whatever dim is, about 1.6 MB when full.
NGRAM_CACHE_SIZE = 4096


def _check_classes(rows: list[LabeledUtterance]) -> None:
    present = {row.label for row in rows}
    for label in CLASS_ORDER:
        if label not in present:
            raise MissingClassError(label)


def _label_codes(rows: list[LabeledUtterance]) -> np.ndarray:
    return np.asarray([_LABEL_INDEX[row.label] for row in rows], dtype=np.int64)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# Bag-of-words logistic regression


@dataclass(frozen=True)
class BowLrParams:
    l2: float = 1e-4


# L-BFGS stops at max |gradient| < BOWLR_TOL; the standard dataset takes ~35 iterations.
BOWLR_TOL = 1e-5
BOWLR_MAX_ITER = 500
_LBFGS_MEMORY = 10


def bowlr_loss_and_grad(W, b, X, Y, l2):
    """Mean cross-entropy plus an L2 penalty on W (biases unpenalized).

    X is (B, V) dense; Y is (B, C) one-hot. Returns (loss, dW, db).
    """
    logits = X @ W.T + b
    probs = _softmax(logits)
    batch = X.shape[0]
    picked = (probs * Y).sum(axis=1)
    loss = -np.log(picked).mean() + 0.5 * l2 * float((W * W).sum())
    G = (probs - Y) / batch
    dW = G.T @ X + l2 * W
    db = G.sum(axis=0)
    return float(loss), dW, db


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
    params: BowLrParams
    loss_history: list[float] = field(default_factory=list)

    def predict_batch(self, texts: list[str]) -> list[Prediction]:
        X = vectorize_many(self.vocab, texts)
        probs = _softmax(X @ self.weights.T + self.biases)
        return [prediction_from_scores(t, row) for t, row in zip(texts, probs)]

    def predict(self, text: str) -> Prediction:
        return self.predict_batch([text])[0]


def train_bow_lr(
    train: list[LabeledUtterance],
    hp: BowLrParams | None = None,
    seed: int = 0,
) -> BowLrModel:
    """Fit BoW-LR to the minimum of ``bowlr_loss_and_grad`` on all of ``train``
    by full-batch L-BFGS from zero; ``loss_history`` has one loss per iterate.
    ``seed`` is accepted as every trainer's is, but the result ignores it."""
    if not train:
        raise EmptyCorpusError("no training rows")
    _check_classes(train)
    hp = hp or BowLrParams()
    vocab = fit_tfidf(train)
    X = vectorize_many(vocab, [row.text for row in train])
    Y = np.eye(len(CLASS_ORDER))[_label_codes(train)]
    n_weights = len(CLASS_ORDER) * len(vocab)

    def split(x):  # W and b are views into the one parameter vector
        return x[:n_weights].reshape(len(CLASS_ORDER), -1), x[n_weights:]

    def loss_and_grad(x):
        # looked up on every call, so a wrapped module attribute sees each one
        loss, dW, db = bowlr_loss_and_grad(*split(x), X, Y, hp.l2)
        return loss, np.concatenate([dW.ravel(), db])

    x, history = _lbfgs(loss_and_grad, np.zeros(n_weights + len(CLASS_ORDER)))
    return BowLrModel(vocab, *split(x), params=hp, loss_history=history)


# ---------------------------------------------------------------------------
# Nearest-neighbor retrieval


# Most entries in one block of query-to-training-row distances: 2**20 float64s
# (8 MB), so a batch's temporaries stay a few blocks in size however many
# queries it holds.
IR_BLOCK_ENTRIES = 2**20


def _row_sq(M: np.ndarray) -> np.ndarray:
    return (M * M).sum(axis=1)


@dataclass(eq=False)
class IrModel:
    vocab: Vocabulary
    matrix: np.ndarray  # (n, V) dense, rows unit norm
    labels: np.ndarray  # (n,) class codes
    row_sq: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # summed once per model rather than per query batch
        self.row_sq = _row_sq(self.matrix)

    def predict_batch(self, texts: list[str]) -> list[Prediction]:
        out: list[Prediction] = []
        chunk = max(1, IR_BLOCK_ENTRIES // max(1, len(self.labels)))
        for start in range(0, len(texts), chunk):
            part = texts[start : start + chunk]
            Q = vectorize_many(self.vocab, part)
            d2 = _row_sq(Q)[:, None] + self.row_sq[None, :] - 2.0 * (Q @ self.matrix.T)
            # np.argmin keeps the first minimum: lowest training index on ties
            nearest = np.argmin(d2, axis=1)
            for text, j in zip(part, nearest):
                out.append(one_hot_prediction(text, CLASS_ORDER[self.labels[j]]))
        return out

    def predict(self, text: str) -> Prediction:
        return self.predict_batch([text])[0]


def fit_ir(train: list[LabeledUtterance]) -> IrModel:
    if not train:
        raise EmptyCorpusError("no training rows")
    vocab = fit_tfidf(train)
    matrix = vectorize_many(vocab, [row.text for row in train])
    return IrModel(vocab=vocab, matrix=matrix, labels=_label_codes(train))


# ---------------------------------------------------------------------------
# Hashed n-gram linear model


@dataclass(frozen=True)
class NgramParams:
    ngram_max: int = 3
    hash_buckets: int = 2_000_000
    dim: int = 300
    epochs: int = 10
    learning_rate: float = 4.0

    def __post_init__(self):
        for name in ("ngram_max", "hash_buckets", "dim", "epochs"):
            value = getattr(self, name)
            if not value >= 1:
                raise InvalidInputError(f"ngram {name} must be at least 1, got {value}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise InvalidInputError(
                f"ngram learning_rate must be finite and above 0, got {self.learning_rate}"
            )


def _ngram_strings(tokens: list[str], ngram_max: int) -> list[str]:
    """Every word n-gram of ``tokens`` up to ``ngram_max`` words, as one string
    each: all unigrams in order, then all bigrams, and so on."""
    grams = list(tokens)
    for n in range(2, ngram_max + 1):
        grams += map(NGRAM_JOIN.join, zip(*(tokens[i:] for i in range(n))))
    return grams


def ngram_features(text: str, ngram_max: int, hash_buckets: int) -> list[tuple[int, int]]:
    """Hashed word n-gram buckets with counts, sorted by bucket id."""
    counts: dict[int, int] = {}
    for gram in _ngram_strings(tokenize(text), ngram_max):
        bucket = fnv1a_64(gram) % hash_buckets
        counts[bucket] = counts.get(bucket, 0) + 1
    return sorted(counts.items())


def initial_embedding_row(seed: int, bucket: int, dim: int) -> np.ndarray:
    """Deterministic initial embedding for a bucket, independent of visit order."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, bucket])))
    return rng.uniform(-1.0 / dim, 1.0 / dim, size=dim)


def ngram_loss_and_grad(W, b, E, examples, codes):
    """Mean cross-entropy over a batch for the n-gram linear model.

    ``examples`` gives per example its rows of ``E`` (unique within the
    example) and their counts; an example with no rows pools to zero. Only
    the rows in play, ``u``, are gathered. The (B, |u|) matrix ``M`` of
    count-over-total weights pools them: the pooled embeddings are
    ``M @ E[u]``. Returns (loss, dW, db, u, dE) with dE the gradient of
    ``E[u]``.
    """
    batch = len(examples)
    rows = np.concatenate([np.asarray(r, dtype=np.intp) for r, _ in examples])
    counts = np.concatenate([np.asarray(c, dtype=np.float64) for _, c in examples])
    example = np.repeat(np.arange(batch), [len(r) for r, _ in examples])
    u, inv = np.unique(rows, return_inverse=True)
    k = np.bincount(example, weights=counts, minlength=batch)
    M = np.bincount(
        example * len(u) + inv, weights=counts / k[example], minlength=batch * len(u)
    ).reshape(batch, len(u))
    Eu = E[u]
    # Products are taken through (|u|, C) arrays, never a (B, dim) one:
    # (M @ E[u]) @ W.T == M @ (E[u] @ W.T), at a fraction of the work.
    probs = _softmax(M @ (Eu @ W.T) + b)
    picked = probs[np.arange(batch), codes]
    G = probs
    G[np.arange(batch), codes] -= 1.0
    G /= batch
    MG = M.T @ G
    return float(-np.log(picked).mean()), MG.T @ Eu, G.sum(axis=0), u, MG @ W


def _gram_row_cache(
    embeddings: dict[int, np.ndarray], weights: np.ndarray, seed: int, params: NgramParams
):
    """A bounded n-gram -> (bucket, class logits of its embedding row) lookup.

    The logits are ``weights @ row`` as C Python floats. A trained bucket's
    row is its embedding; an untrained bucket's deterministic initial row is
    drawn, folded and dropped. Hashing and folding are done once per distinct
    n-gram instead of once per occurrence.
    """
    dim, hash_buckets = params.dim, params.hash_buckets

    @functools.lru_cache(maxsize=NGRAM_CACHE_SIZE)
    def gram_row(gram: str) -> tuple[int, tuple[float, ...]]:
        bucket = fnv1a_64(gram) % hash_buckets
        row = embeddings.get(bucket)
        if row is None:
            row = initial_embedding_row(seed, bucket, dim)
        return bucket, tuple((weights @ row).tolist())

    return gram_row


@dataclass(eq=False)
class NgramLinearModel:
    """Mean-pooled n-gram embeddings into a softmax head.

    ``weights`` is linear, so it is folded into each row at inference: the
    logits are the count-weighted mean of the rows' own logits plus
    ``biases``, summed in bucket order. The cache is built from the arrays
    given here; they are not to be modified afterwards.
    """

    params: NgramParams
    seed: int
    embeddings: dict[int, np.ndarray]
    weights: np.ndarray  # (C, dim)
    biases: np.ndarray  # (C,)
    gram_row: Callable[[str], tuple[int, tuple[float, ...]]] = field(init=False, repr=False)

    def __post_init__(self):
        self.gram_row = _gram_row_cache(self.embeddings, self.weights, self.seed, self.params)

    def predict(self, text: str) -> Prediction:
        counts: dict[int, int] = {}
        rows: dict[int, tuple[float, ...]] = {}
        for gram in _ngram_strings(tokenize(text), self.params.ngram_max):
            bucket, row = self.gram_row(gram)
            counts[bucket] = counts.get(bucket, 0) + 1
            rows[bucket] = row
        logits = self.biases.tolist()
        if counts:
            # count * row per bucket, added one after another in bucket order;
            # a bucket seen once adds its row as it is, since 1 * z == z
            terms = [
                rows[b] if counts[b] == 1 else [counts[b] * z for z in rows[b]]
                for b in sorted(counts)
            ]
            total = sum(counts.values())
            logits = [
                functools.reduce(operator.add, column, 0.0) / total + bias
                for column, bias in zip(zip(*terms), logits)
            ]
        top = max(logits)
        expd = [math.exp(z - top) for z in logits]
        norm = math.fsum(expd)
        return prediction_from_scores(text, [e / norm for e in expd])

    def predict_batch(self, texts: list[str]) -> list[Prediction]:
        return [self.predict(text) for text in texts]


def train_ngram_linear(
    train: list[LabeledUtterance],
    hp: NgramParams | None = None,
    seed: int = 0,
) -> NgramLinearModel:
    if not train:
        raise EmptyCorpusError("no training rows")
    _check_classes(train)
    hp = hp or NgramParams()
    feats = [
        ngram_features(row.text, hp.ngram_max, hp.hash_buckets) for row in train
    ]
    codes = _label_codes(train)
    # Every trained bucket owns one row of a dense matrix, so a step is one
    # gather and one scatter of the rows its batch holds. Rows are unique per
    # example because ngram_features merges repeated buckets into counts.
    row_of: dict[int, int] = {}
    for feat in feats:
        for bucket, _ in feat:
            row_of.setdefault(bucket, len(row_of))
    E = np.empty((len(row_of), hp.dim), dtype=np.float64)
    for bucket, row in row_of.items():
        E[row] = initial_embedding_row(seed, bucket, hp.dim)
    examples = [
        (
            np.asarray([row_of[bucket] for bucket, _ in feat], dtype=np.intp),
            np.asarray([count for _, count in feat], dtype=np.float64),
        )
        for feat in feats
    ]

    n_classes = len(CLASS_ORDER)
    W = np.zeros((n_classes, hp.dim), dtype=np.float64)
    b = np.zeros(n_classes, dtype=np.float64)
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, "ngram:shuffle")))
    n = len(train)
    total_steps = hp.epochs * -(-n // NGRAM_BATCH)
    step = 0
    for _ in range(hp.epochs):
        order = rng.permutation(n)
        for start in range(0, n, NGRAM_BATCH):
            lr = hp.learning_rate * (1.0 - step / total_steps)
            batch = order[start : start + NGRAM_BATCH]
            # looked up on every call, so a wrapped module attribute sees each one
            _, dW, db, u, dE = ngram_loss_and_grad(
                W, b, E, [examples[i] for i in batch], codes[batch]
            )
            W -= lr * dW
            b -= lr * db
            E[u] -= lr * dE
            step += 1
    embeddings = {bucket: E[row] for bucket, row in row_of.items()}
    return NgramLinearModel(
        params=hp, seed=seed, embeddings=embeddings, weights=W, biases=b
    )


# ---------------------------------------------------------------------------
# Random guess


def predict_random(label_distribution, seed: int, n: int) -> list[Label]:
    """n i.i.d. label draws weighted by ``label_distribution`` (class order)."""
    dist = [float(x) for x in label_distribution]
    if not math.isclose(sum(dist), 1.0, abs_tol=1e-9):
        raise ValueError("label distribution must sum to 1")
    rng = random.Random(seed)
    return rng.choices(CLASS_ORDER, weights=dist, k=n)


@dataclass(eq=False)
class RandomGuessModel:
    distribution: tuple[float, float, float]
    seed: int

    def predict_batch(self, texts: list[str]) -> list[Prediction]:
        labels = predict_random(self.distribution, self.seed, len(texts))
        return [one_hot_prediction(t, lab) for t, lab in zip(texts, labels)]

    def predict(self, text: str) -> Prediction:
        return self.predict_batch([text])[0]


def fit_random_guess(train: list[LabeledUtterance], seed: int = 0) -> RandomGuessModel:
    dist = label_distribution(train)
    return RandomGuessModel(
        distribution=tuple(dist[label] for label in CLASS_ORDER), seed=seed
    )


# ---------------------------------------------------------------------------
# Persistence (arrays round-trip bit-exactly)

_FORMAT_VERSION = 1


def _vocab_arrays(vocab: Vocabulary) -> dict[str, np.ndarray]:
    tokens = [""] * len(vocab)
    for token, idx in vocab.token_index.items():
        tokens[idx] = token
    return {
        "vocab_tokens": np.asarray(tokens, dtype=np.str_),
        "vocab_df": vocab.df,
    }


def _vocab_from_arrays(data, document_count: int) -> Vocabulary:
    tokens = [str(t) for t in data["vocab_tokens"]]
    return Vocabulary(
        token_index={t: i for i, t in enumerate(tokens)},
        df=np.asarray(data["vocab_df"], dtype=np.float64),
        document_count=document_count,
    )


def _csr_arrays(M: np.ndarray) -> dict[str, np.ndarray]:
    """The nonzeros of ``M`` as compressed sparse rows (the IR file layout)."""
    rows, cols = np.nonzero(M)
    indptr = np.zeros(M.shape[0] + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=M.shape[0]), out=indptr[1:])
    return {
        "mat_data": M[rows, cols],
        "mat_indices": cols.astype(np.int32),
        "mat_indptr": indptr,
        "mat_shape": np.asarray(M.shape, dtype=np.int64),
    }


def _dense_from_csr_arrays(data) -> np.ndarray:
    n, width = (int(x) for x in data["mat_shape"])
    M = np.zeros((n, width), dtype=np.float64)
    indptr = np.asarray(data["mat_indptr"])
    M[np.repeat(np.arange(n), np.diff(indptr)), data["mat_indices"]] = data["mat_data"]
    return M


def save_model(model, path) -> None:
    meta = {"version": _FORMAT_VERSION, "classes": [c.value for c in CLASS_ORDER]}
    arrays: dict[str, np.ndarray] = {}
    if isinstance(model, BowLrModel):
        meta["kind"] = "bowlr"
        meta["params"] = vars(model.params) | {}
        meta["document_count"] = model.vocab.document_count
        arrays.update(_vocab_arrays(model.vocab))
        arrays["weights"] = model.weights
        arrays["biases"] = model.biases
    elif isinstance(model, IrModel):
        meta["kind"] = "ir"
        meta["document_count"] = model.vocab.document_count
        arrays.update(_vocab_arrays(model.vocab))
        arrays.update(_csr_arrays(model.matrix))
        arrays["labels"] = model.labels
    elif isinstance(model, NgramLinearModel):
        meta["kind"] = "ngram"
        meta["params"] = vars(model.params) | {}
        meta["seed"] = model.seed
        buckets = np.asarray(sorted(model.embeddings), dtype=np.int64)
        arrays["buckets"] = buckets
        arrays["embeddings"] = np.stack(
            [model.embeddings[b] for b in buckets]
        ) if len(buckets) else np.zeros((0, model.params.dim))
        arrays["weights"] = model.weights
        arrays["biases"] = model.biases
    elif isinstance(model, RandomGuessModel):
        meta["kind"] = "random"
        meta["seed"] = model.seed
        arrays["distribution"] = np.asarray(model.distribution, dtype=np.float64)
    else:
        raise TypeError(f"cannot save model of type {type(model).__name__}")
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.asarray(json.dumps(meta)), **arrays)


def _model_from_file(data, meta: dict):
    """The model ``meta`` and the arrays of ``data`` describe. A missing key
    raises KeyError, an unexpected one TypeError, a malformed value ValueError."""
    kind = meta.get("kind")
    if kind == "bowlr":
        return BowLrModel(
            vocab=_vocab_from_arrays(data, meta["document_count"]),
            weights=np.asarray(data["weights"]),
            biases=np.asarray(data["biases"]),
            # files written by the SGD trainer also carry its schedule
            params=BowLrParams(l2=meta["params"]["l2"]),
        )
    if kind == "ir":
        return IrModel(
            vocab=_vocab_from_arrays(data, meta["document_count"]),
            matrix=_dense_from_csr_arrays(data),
            labels=np.asarray(data["labels"]),
        )
    if kind == "ngram":
        buckets = [int(x) for x in data["buckets"]]
        rows = np.asarray(data["embeddings"])
        return NgramLinearModel(
            params=NgramParams(**meta["params"]),
            seed=int(meta["seed"]),
            embeddings={b: rows[i].copy() for i, b in enumerate(buckets)},
            weights=np.asarray(data["weights"]),
            biases=np.asarray(data["biases"]),
        )
    if kind == "random":
        dist = tuple(float(x) for x in data["distribution"])
        return RandomGuessModel(distribution=dist, seed=int(meta["seed"]))
    raise InvalidInputError(f"unknown model kind {kind!r}")


def load_model(path):
    try:
        data = np.load(path, allow_pickle=False)
    except (ValueError, EOFError, zipfile.BadZipFile):
        data = None
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise InvalidInputError(f"{path} is not a model file")
    with data:
        try:
            meta = json.loads(str(data["meta"]))
        except (KeyError, ValueError):
            raise InvalidInputError(f"{path} is not a model file") from None
        if not isinstance(meta, dict) or meta.get("classes") != [c.value for c in CLASS_ORDER]:
            raise InvalidInputError("model file has an unexpected class order")
        try:
            return _model_from_file(data, meta)
        except InvalidInputError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(
                f"{path} is not a valid {meta.get('kind')} model file: {exc}"
            ) from None
