import functools
import hashlib
import json
import math
import random
import time
import tracemalloc
import warnings
from collections import Counter, namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruaguard import classifiers
from ruaguard.classifiers import (
    BOWLR_L2,
    BOWLR_MAX_ITER,
    BOWLR_TOL,
    NGRAM_BATCH,
    NGRAM_JOIN,
    NGRAM_WINDOW_CACHE_SIZE,
    NgramLinearModel,
    NgramParams,
    RandomGuessModel,
    _fit_ngram_rows,
    _lbfgs,
    _ngram_counts,
    _token_windows,
    _window_grams,
    bowlr_loss_and_grad,
    fit_ir,
    fit_random_guess,
    initial_embedding_row,
    load_model,
    ngram_loss_and_grad,
    save_model,
    train_bow_lr,
    train_ngram_linear,
)
from ruaguard.dataset import (
    CLASS_INDEX,
    CLASS_ORDER,
    Label,
    LabeledUtterance,
    prediction_from_scores,
)
from ruaguard.errors import InvalidInputError
from ruaguard.features import fit_tfidf, tokenize, vectorize_many
from ruaguard.generation import sample
from ruaguard.grammar import parse_grammar
from ruaguard.hashing import derive_seed, fnv1a_64
from ruaguard.recognizer import RecognizerModel

from tfidf_oracle import vectorize

SEPARABLE = [
    LabeledUtterance("are you a robot", Label.POS),
    LabeledUtterance("are you a machine", Label.POS),
    LabeledUtterance("am i talking to a robot", Label.POS),
    LabeledUtterance("are you a chatbot", Label.POS),
    LabeledUtterance("you sound robotic", Label.AIC),
    LabeledUtterance("you seem automated", Label.AIC),
    LabeledUtterance("can i speak to an agent", Label.AIC),
    LabeledUtterance("you sound scripted", Label.AIC),
    LabeledUtterance("what is the weather today", Label.NEG),
    LabeledUtterance("do you like pizza", Label.NEG),
    LabeledUtterance("tell me a joke", Label.NEG),
    LabeledUtterance("is it raining in boston", Label.NEG),
]


def finite_difference(loss_fn, array, eps=1e-6):
    """Central-difference gradient of loss_fn() with respect to array, in place."""
    grad = np.zeros_like(array)
    flat = array.ravel()
    out = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = loss_fn()
        flat[i] = orig - eps
        lo = loss_fn()
        flat[i] = orig
        out[i] = (hi - lo) / (2 * eps)
    return grad


def relative_error(analytic, numeric):
    diff = np.linalg.norm(analytic - numeric)
    scale = np.linalg.norm(analytic) + np.linalg.norm(numeric) + 1e-12
    return diff / scale


class TestBowLrGradient:
    def _setup(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        X = rng.normal(size=(4, 6))
        codes = rng.integers(0, 3, size=4)
        W = rng.normal(scale=0.5, size=(3, 6))
        b = rng.normal(scale=0.5, size=3)
        return W, b, X, codes

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients_match_finite_differences(self, seed):
        W, b, X, codes = self._setup(seed)
        l2 = 1e-3
        _, dW, db = bowlr_loss_and_grad(W, b, X, codes, l2)
        num_dW = finite_difference(lambda: bowlr_loss_and_grad(W, b, X, codes, l2)[0], W)
        num_db = finite_difference(lambda: bowlr_loss_and_grad(W, b, X, codes, l2)[0], b)
        assert relative_error(dW, num_dW) < 1e-5
        assert relative_error(db, num_db) < 1e-5

    def test_loss_at_zero_weights_is_log_num_classes(self):
        _, _, X, codes = self._setup(0)
        W = np.zeros((3, 6))
        b = np.zeros(3)
        loss, _, _ = bowlr_loss_and_grad(W, b, X, codes, 0.0)
        assert loss == pytest.approx(math.log(3), abs=1e-12)

    def test_l2_penalty_included(self):
        W, b, X, codes = self._setup(1)
        base, _, _ = bowlr_loss_and_grad(W, b, X, codes, 0.0)
        more, _, _ = bowlr_loss_and_grad(W, b, X, codes, 0.5)
        assert more == pytest.approx(base + 0.25 * float((W * W).sum()), abs=1e-12)


def pooling(examples):
    """The sorted rows in play ``u`` and the (B, |u|) pooling matrix ``M`` of
    a batch given per example as (rows of E, counts), built example by example."""
    batch = len(examples)
    rows = np.concatenate([np.asarray(r, dtype=np.intp) for r, _ in examples])
    counts = np.concatenate([np.asarray(c, dtype=np.float64) for _, c in examples])
    example = np.repeat(np.arange(batch), [len(r) for r, _ in examples])
    u, inv = np.unique(rows, return_inverse=True)
    k = np.bincount(example, weights=counts, minlength=batch)
    M = np.bincount(
        example * len(u) + inv, weights=counts / k[example], minlength=batch * len(u)
    ).reshape(batch, len(u))
    return u, M


def ngram_gradient_errors(W, b, E, u, M, codes):
    """Relative errors of ngram_loss_and_grad's dW, db and dE against central
    differences; dE, returned for E[u] only, is scattered to E's full size first."""
    _, dW, db, dEu = ngram_loss_and_grad(W, b, E, u, M, codes)
    dE = np.zeros_like(E)
    dE[u] = dEu
    loss = lambda: ngram_loss_and_grad(W, b, E, u, M, codes)[0]
    return [relative_error(g, finite_difference(loss, x)) for g, x in ((dW, W), (db, b), (dE, E))]


class TestNgramGradient:
    def _setup(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        W = rng.normal(scale=0.5, size=(3, 5))
        b = rng.normal(scale=0.5, size=3)
        # row 4 is in no example; row 1 is in two
        E = rng.normal(scale=0.5, size=(5, 5))
        u, M = pooling([([0, 1], [2, 1]), ([1, 3], [1, 3]), ([2], [1]), ([], [])])
        codes = [0, 1, 2, 1]
        return W, b, E, u, M, codes

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients_match_finite_differences(self, seed):
        errors = ngram_gradient_errors(*self._setup(seed))
        assert max(errors) < 1e-5

    def test_gathers_only_the_rows_in_play(self):
        W, b, E, u, M, codes = self._setup(0)
        _, _, _, dE = ngram_loss_and_grad(W, b, E, u, M, codes)
        assert list(u) == [0, 1, 2, 3]
        assert dE.shape == (4, E.shape[1])

    def test_empty_feature_list_contributes_no_embedding_gradient(self):
        W, b, E, _, _, _ = self._setup(0)
        u, M = pooling([([], [])])
        loss, dW, _, dE = ngram_loss_and_grad(W, b, E, u, M, [1])
        assert loss == pytest.approx(-math.log(np.exp(b[1]) / np.exp(b).sum()), abs=1e-12)
        np.testing.assert_array_equal(dW, np.zeros_like(W))
        assert u.size == 0 and dE.shape == (0, E.shape[1])


SEPARABLE_WORDS = sorted({word for row in SEPARABLE for word in row.text.split()})


@pytest.fixture(scope="module")
def separable_bowlr():
    return train_bow_lr(SEPARABLE)


class TestBowLr:
    def test_fits_separable_data(self):
        model = train_bow_lr(SEPARABLE)
        preds = model.predict_batch([row.text for row in SEPARABLE])
        assert [p.label for p in preds] == [row.label for row in SEPARABLE]

    def test_returned_weights_are_at_the_optimum(self):
        model = train_bow_lr(SEPARABLE)
        X = vectorize_many(model.vocab, [row.text for row in SEPARABLE])
        codes = [CLASS_ORDER.index(row.label) for row in SEPARABLE]
        _, dW, db = bowlr_loss_and_grad(model.weights, model.biases, X, codes, BOWLR_L2)
        assert BOWLR_TOL == 1e-5
        assert max(np.abs(dW).max(), np.abs(db).max()) < BOWLR_TOL

    def test_first_loss_is_uniform_baseline(self):
        history = train_bow_lr(SEPARABLE).loss_history
        assert history[0] == pytest.approx(math.log(3), abs=1e-12)
        # one loss per L-BFGS iterate, and Armijo steps never raise it
        assert 1 < len(history) < BOWLR_MAX_ITER
        assert all(later <= earlier for earlier, later in zip(history, history[1:]))

    def test_training_is_deterministic(self):
        a = train_bow_lr(SEPARABLE, seed=7)
        b = train_bow_lr(SEPARABLE, seed=7)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.biases, b.biases)
        # the seed is accepted but has nothing to draw
        c = train_bow_lr(SEPARABLE, seed=8)
        np.testing.assert_array_equal(a.weights, c.weights)
        np.testing.assert_array_equal(a.biases, c.biases)
        assert a.loss_history == c.loss_history

    def test_lbfgs_backtracks_on_an_ill_conditioned_quadratic(self):
        # the first, unit step along -grad overshoots the steep axis 99-fold
        scale = np.array([100.0, 1.0])

        def quadratic(x):
            return 0.5 * float(scale @ (x * x)), scale * x

        x, history = _lbfgs(quadratic, np.array([1.0, 1.0]))
        assert np.abs(quadratic(x)[1]).max() < BOWLR_TOL
        assert all(later < earlier for earlier, later in zip(history, history[1:]))

    def test_lbfgs_stops_when_forty_halvings_find_no_decrease(self):
        calls = []

        def flat(x):  # the gradient promises a decrease the loss never gives
            calls.append(1)
            return 0.0, np.ones_like(x)

        start = np.array([0.5, -2.0])
        x, history = _lbfgs(flat, start)
        np.testing.assert_array_equal(x, start)
        assert history == [0.0]
        assert len(calls) == 1 + 40

    @given(st.lists(
        st.lists(st.sampled_from(SEPARABLE_WORDS + ["zq"]), max_size=12).map(" ".join),
        min_size=1, max_size=20,
    ))
    @settings(max_examples=50, deadline=None)
    def test_a_text_scores_alone_as_in_a_batch(self, separable_bowlr, texts):
        # scores included: BLAS sums a product in an order that depends on the batch
        assert [separable_bowlr.predict(text) for text in texts] == (
            separable_bowlr.predict_batch(texts)
        )

    def test_scores_are_probabilities(self):
        model = train_bow_lr(SEPARABLE)
        pred = model.predict("are you a robot")
        assert sum(pred.scores) == pytest.approx(1.0, abs=1e-9)
        assert all(s >= 0 for s in pred.scores)

    def test_requires_all_classes(self):
        rows = [row for row in SEPARABLE if row.label is not Label.AIC]
        with pytest.raises(
            InvalidInputError, match="^training data contains no example with label 'a'$"
        ):
            train_bow_lr(rows)

    def test_empty_train_rejected(self):
        with pytest.raises(InvalidInputError, match="^no training rows$"):
            train_bow_lr([])


def _ir_oracle_labels(model, texts):
    """IR labels from one product of the whole batch with every training row
    over every vocabulary column: each text's highest cosine, the lowest
    training index on ties. Give it two texts or more, so that numpy
    multiplies by gemm, not gemv."""
    assert len(texts) >= 2
    products = vectorize_many(model.vocab, texts) @ model.matrix.T
    return [CLASS_ORDER[model.labels[j]] for j in np.argmax(products, axis=1)]


_IR_WORDS = "are you a robot bot human real person do like pizza tell me joke ?".split()
_ir_texts = st.lists(st.sampled_from(_IR_WORDS), min_size=1, max_size=6).map(" ".join)


class TestIr:
    def test_exact_match_wins(self):
        model = fit_ir(SEPARABLE)
        for row in SEPARABLE:
            assert model.predict(row.text).label is row.label

    def test_prediction_is_one_hot(self):
        model = fit_ir(SEPARABLE)
        pred = model.predict("are you a robot")
        assert pred.scores == (1.0, 0.0, 0.0)

    def test_duplicate_vectors_keep_lowest_index(self):
        rows = [
            LabeledUtterance("same words here", Label.AIC),
            LabeledUtterance("same words here", Label.POS),
        ]
        model = fit_ir(rows)
        assert model.predict("same words here").label is Label.AIC
        # equal vectors, from reordered and repeated words, are kept once,
        # also after later kept rows have moved up over the first one's place
        rows += [
            LabeledUtterance("here same words", Label.NEG),
            LabeledUtterance("other", Label.NEG),
            LabeledUtterance("other other", Label.POS),
            LabeledUtterance("third", Label.AIC),
            LabeledUtterance("fourth", Label.POS),
            LabeledUtterance("other", Label.AIC),
        ]
        model = fit_ir(rows)
        assert model.labels.tolist() == [
            CLASS_INDEX[label] for label in (Label.AIC, Label.NEG, Label.AIC, Label.POS)
        ]
        kept = vectorize_many(model.vocab, ["same words here", "other", "third", "fourth"])
        np.testing.assert_array_equal(model.matrix, kept)
        assert model.matrix.flags.c_contiguous

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(st.tuples(_ir_texts, st.sampled_from(CLASS_ORDER)), min_size=1, max_size=12),
        unknown=st.lists(st.sampled_from(["zzz", "qq", "!"]), max_size=3).map(" ".join),
    )
    def test_all_unknown_query_ties_to_first_row(self, rows, unknown):
        # its vector is zero, so every row is as near as any other and the
        # first one wins the tie, whatever the rows' rounded norms are
        model = fit_ir([LabeledUtterance(text, label) for text, label in rows])
        first = rows[0][1]
        assert model.predict(unknown).label is first
        queries = [unknown, rows[-1][0], "", unknown]
        assert [p.label for p in model.predict_batch(queries)][::2] == [first, first]

    def test_chunked_batches_match_unchunked(self, monkeypatch):
        # two training rows repeat earlier ones under another label
        rows = SEPARABLE + [
            LabeledUtterance("are you a robot", Label.NEG),
            LabeledUtterance("tell me a joke", Label.POS),
        ]
        model = fit_ir(rows)
        # "zzz" and "" are zero queries, equally far from every row
        texts = [row.text for row in rows] + ["do you like robots", "zzz", ""]
        expected = _ir_oracle_labels(model, texts)
        # the lowest training index wins every tie: rows 0, 10 and 0
        assert expected[0] is expected[12] is Label.POS
        assert expected[10] is expected[13] is Label.NEG
        assert expected[15] is expected[16] is Label.POS
        n = len(model.labels)
        # blocks of one, two and four query rows, the last one short, and
        # one block of all 17
        for entries in (1, 2 * n, 5 * n - 1, 2**19):
            monkeypatch.setattr(classifiers, "BLOCK_ENTRIES", entries)
            assert [p.label for p in model.predict_batch(texts)] == expected

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(st.tuples(_ir_texts, st.sampled_from(CLASS_ORDER)), min_size=1, max_size=12),
        relabelled=st.lists(st.integers(0, 11), max_size=4),
        queries=st.lists(
            _ir_texts | st.sampled_from(["", "zzz", "qq zzz ?!", "robot zzz"]),
            min_size=2,
            max_size=20,
        ),
        block_rows=st.integers(1, 5),
        short=st.integers(0, 100),
    )
    def test_blocked_restricted_products_label_as_the_full_product(
        self, rows, relabelled, queries, block_rows, short
    ):
        # some rows repeat an earlier row's text under the next label
        rows = list(rows)
        for i in relabelled:
            text, label = rows[i % len(rows)]
            rows.append((text, CLASS_ORDER[(CLASS_ORDER.index(label) + 1) % 3]))
        model = fit_ir([LabeledUtterance(text, label) for text, label in rows])
        n = len(model.labels)
        expected = _ir_oracle_labels(model, queries)
        # blocks of block_rows queries (one query each at 1), the last block
        # short unless block_rows divides the batch
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(classifiers, "BLOCK_ENTRIES", block_rows * n + short % n)
            assert [p.label for p in model.predict_batch(queries)] == expected

    def test_a_lone_query_keeps_the_lowest_index_among_equal_rows(self):
        # one text is the first row, labelled p, and the last, labelled a;
        # multiplied by gemv, a lone query's product with the last row could
        # come out a bit larger and win the tie, and in a batch, so could
        # gemm's, if the last row were kept
        rng = random.Random(0)
        words = [f"w{i}" for i in range(300)]
        for _ in range(300):
            texts = [" ".join(rng.choices(words, k=rng.randint(3, 15))) for _ in range(60)]
            same, between = texts[0], texts[1 : rng.randint(1, 60)]
            rows = [LabeledUtterance(same, Label.POS)]
            rows += [LabeledUtterance(text, Label.NEG) for text in between]
            rows += [LabeledUtterance(same, Label.AIC)]
            model = fit_ir(rows)
            queries = [
                " ".join(rng.sample(same.split(), k=max(1, len(same.split()) // 2))
                         + rng.choices(words, k=rng.randint(0, 20)))
                for _ in range(5)
            ]
            assert model.predict(queries[0]).label is not Label.AIC, (len(rows), queries[0])
            batch = [p.label for p in model.predict_batch(queries)]
            assert Label.AIC not in batch, (len(rows), queries)

    def test_scoring_holds_one_block_whatever_the_batch(self, monkeypatch):
        rows = [LabeledUtterance(f"{row.text} {i}", row.label) for i in range(25) for row in SEPARABLE]
        model = fit_ir(rows)
        texts = [f"are you {i} a robot" for i in range(400)]
        entries = 2**14
        monkeypatch.setattr(classifiers, "BLOCK_ENTRIES", entries)
        n, width = model.matrix.shape
        block_rows = entries // n
        # the most vocabulary columns that the queries of one block use
        used = max(
            int(vectorize_many(model.vocab, texts[lo : lo + block_rows]).any(axis=0).sum())
            for lo in range(0, len(texts), block_rows)
        )
        tracemalloc.start()
        try:
            preds = model.predict_batch(texts)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(preds) == 400 and len(texts) > 7 * block_rows
        # beyond the predictions it returns: one block of products, one
        # block's query features, the training columns that block gathers,
        # n * used * 8 bytes, and a few small arrays
        assert peak - kept <= (block_rows * n + block_rows * width + n * used) * 8 + 16_384

    def test_single_prediction_equals_batch_row(self):
        model = fit_ir(SEPARABLE)
        texts = [row.text for row in SEPARABLE] + ["do you like robots", "zzz"]
        batch = model.predict_batch(texts)
        for text, pred in zip(texts, batch):
            assert model.predict(text) == pred

    def test_single_vector_path_agrees_with_matrix_path(self):
        def sq_distance(a, b):
            av, bv = dict(zip(a.indices, a.values)), dict(zip(b.indices, b.values))
            return sum((av.get(i, 0.0) - bv.get(i, 0.0)) ** 2 for i in av.keys() | bv.keys())

        vocab = fit_tfidf([row.text for row in SEPARABLE])
        train_vectors = [vectorize(vocab, row.text) for row in SEPARABLE]
        model = fit_ir(SEPARABLE)
        for query in ["are you a robot", "you sound like a robot", "weather joke"]:
            q = vectorize(vocab, query)
            # nearest training vector by a plain loop; min keeps the lowest index on ties
            d2 = [sq_distance(q, vec) for vec in train_vectors]
            nearest = min(range(len(d2)), key=d2.__getitem__)
            assert model.predict(query).label is SEPARABLE[nearest].label

    def test_empty_train_rejected(self):
        with pytest.raises(InvalidInputError, match="^no training rows$"):
            fit_ir([])


def _ngram_strings(tokens, ngram_max):
    """Every word n-gram of ``tokens`` up to ``ngram_max`` words, as one string
    each: all unigrams in order, then all bigrams, and so on. Each n-gram is
    the (n-1)-gram at its start joined to one more token. The oracle of the
    window walk that training and serving share."""
    grams = list(tokens)
    shorter = tokens
    for n in range(2, ngram_max + 1):
        shorter = [gram + NGRAM_JOIN + token for gram, token in zip(shorter, tokens[n - 1 :])]
        grams += shorter
    return grams


def ngram_feature_rows(texts, ngram_max, hash_buckets):
    """Per text, its hashed word n-gram buckets with counts, sorted by bucket
    id, counted text by text; each distinct n-gram is hashed once."""
    bucket_of = functools.cache(lambda gram: fnv1a_64(gram) % hash_buckets)
    rows = []
    for text in texts:
        counts = {}
        for gram in _ngram_strings(tokenize(text), ngram_max):
            bucket = bucket_of(gram)
            counts[bucket] = counts.get(bucket, 0) + 1
        rows.append(sorted(counts.items()))
    return rows


def _features(text, ngram_max, hash_buckets):
    """``text``'s n-gram buckets and counts, as ``ngram_feature_rows`` gives them."""
    return ngram_feature_rows([text], ngram_max, hash_buckets)[0]


def ngram_max_and_tokens(words):
    """An ngram_max from 1 to 5 and up to ngram_max + 2 tokens drawn from
    ``words``; few words, so windows and n-grams repeat within a text."""
    return st.integers(1, 5).flatmap(lambda ngram_max: st.tuples(
        st.just(ngram_max), st.lists(st.sampled_from(words), max_size=ngram_max + 2)
    ))


class TestNgramFeatures:
    def test_counts_unigrams_through_trigrams(self):
        feats = _features("are you a robot", 3, 2_000_000)
        # 4 unigrams + 3 bigrams + 2 trigrams, all distinct
        assert len(feats) == 9
        assert sum(count for _, count in feats) == 9
        assert feats == sorted(feats)

    def test_repeated_tokens_accumulate(self):
        feats = _features("a a a", 3, 2_000_000)
        counts = sorted(count for _, count in feats)
        assert counts == [1, 2, 3]

    def test_ngram_max_respected(self):
        uni_only = _features("are you a robot", 1, 2_000_000)
        assert len(uni_only) == 4

    def test_empty_text(self):
        assert _features("", 3, 2_000_000) == []

    @given(
        st.lists(
            st.lists(
                st.one_of(
                    st.sampled_from(["are", "you", "a", "robot", "?", "human"]),
                    st.text(alphabet="xyz", min_size=1, max_size=3),
                ),
                max_size=9,
            ).map(" ".join),
            max_size=8,
        ),
        st.integers(1, 4),
        # 7 buckets: distinct n-grams collide and share a count
        st.sampled_from([7, 2_000_000]),
    )
    @settings(max_examples=100, deadline=None)
    def test_hashed_once_rows_equal_features_per_text(self, texts, ngram_max, hash_buckets):
        rows = ngram_feature_rows(texts, ngram_max, hash_buckets)
        assert rows == [_features(text, ngram_max, hash_buckets) for text in texts]
        assert rows == [reference_ngram_features(text, ngram_max, hash_buckets) for text in texts]
        counts = _ngram_counts(texts, ngram_max, hash_buckets)
        assert [sorted(text_counts.items()) for text_counts in counts] == rows

    @given(ngram_max_and_tokens(["a", "b", "robot", "?"]))
    @settings(max_examples=100, deadline=None)
    def test_windows_start_every_ngram_once(self, case):
        ngram_max, tokens = case
        columns = _token_windows(tokens, ngram_max)
        windows = list(zip(*columns))
        assert len(windows) == len(tokens)
        assert len(columns) == max(1, min(ngram_max, len(tokens)))
        walked = [gram for window in windows for gram in _window_grams(window)]
        assert sorted(walked) == sorted(_ngram_strings(tokens, ngram_max))

    def test_training_takes_the_hashed_once_rows(self):
        hp = NgramParams(hash_buckets=7, dim=4, epochs=1)
        row_of, _, _, _ = _fit_ngram_rows(SEPARABLE, hp, seed=0)
        first_seen = {}
        for row in SEPARABLE:
            for bucket, _ in _features(row.text, hp.ngram_max, hp.hash_buckets):
                first_seen.setdefault(bucket, len(first_seen))
        assert list(row_of.items()) == list(first_seen.items())


def reference_ngram_features(text, ngram_max, hash_buckets):
    """``text``'s n-gram buckets and counts, each n-gram joined from its own
    window of tokens and hashed on its own."""
    tokens = tokenize(text)
    grams = [
        NGRAM_JOIN.join(tokens[i : i + n])
        for n in range(1, ngram_max + 1)
        for i in range(len(tokens) - n + 1)
    ]
    return sorted(Counter(fnv1a_64(gram) % hash_buckets for gram in grams).items())


def reference_fit_ngram_rows(train, hp, seed):
    """``_fit_ngram_rows`` as a per-example loop: rows numbered as each text's
    sorted buckets first show them, and each step's ``u`` and ``M`` pooled
    from its examples' own (rows, counts)."""
    feats = ngram_feature_rows([row.text for row in train], hp.ngram_max, hp.hash_buckets)
    codes = np.asarray([CLASS_ORDER.index(row.label) for row in train], dtype=np.int64)
    row_of = {}
    for feat in feats:
        for bucket, _ in feat:
            row_of.setdefault(bucket, len(row_of))
    E = np.empty((len(row_of), hp.dim))
    for bucket, row in row_of.items():
        E[row] = initial_embedding_row(seed, bucket, hp.dim)
    examples = [([row_of[bucket] for bucket, _ in feat], [c for _, c in feat]) for feat in feats]
    W = np.zeros((len(CLASS_ORDER), hp.dim))
    b = np.zeros(len(CLASS_ORDER))
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, "ngram:shuffle")))
    n = len(train)
    total_steps = hp.epochs * -(-n // NGRAM_BATCH)
    step = 0
    for _ in range(hp.epochs):
        order = rng.permutation(n)
        for start in range(0, n, NGRAM_BATCH):
            lr = hp.learning_rate * (1.0 - step / total_steps)
            batch = order[start : start + NGRAM_BATCH]
            u, M = pooling([examples[i] for i in batch])
            _, dW, db, dE = ngram_loss_and_grad(W, b, E, u, M, codes[batch])
            W -= lr * dW
            b -= lr * db
            E[u] -= lr * dE
            step += 1
    return row_of, E, W, b


def assert_fits_as_reference(train, hp, seed):
    row_of, E, W, b = _fit_ngram_rows(train, hp, seed)
    ref_row_of, ref_E, ref_W, ref_b = reference_fit_ngram_rows(train, hp, seed)
    assert list(row_of.items()) == list(ref_row_of.items())
    for got, want in ((E, ref_E), (W, ref_W), (b, ref_b)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


# What the trainer reads of a row. A LabeledUtterance always has a token,
# so a text without one is given as this.
TrainerRow = namedtuple("TrainerRow", "text label")

# SEPARABLE three times over, each copy's texts made distinct, then a text
# with no tokens, one of punctuation only and one with repeats: 39 rows, so
# each epoch's last batch holds 7.
TRAINER_ROWS = [
    TrainerRow(f"{row.text} v{i}", row.label) for i in range(3) for row in SEPARABLE
] + [
    TrainerRow("", Label.NEG),
    TrainerRow("?!", Label.AIC),
    TrainerRow("robot robot are you a robot robot", Label.POS),
]


class TestFlatTrainerEqualsReference:
    @pytest.mark.parametrize("ngram_max", [1, 2, 3, 4])
    # 5 buckets: most n-grams collide, within a text and across texts
    @pytest.mark.parametrize("hash_buckets", [5, 2_000_000])
    def test_bit_for_bit(self, ngram_max, hash_buckets):
        assert len(TRAINER_ROWS) % NGRAM_BATCH == 7
        hp = NgramParams(ngram_max=ngram_max, hash_buckets=hash_buckets, dim=6, epochs=3)
        assert_fits_as_reference(TRAINER_ROWS, hp, seed=ngram_max)

    @given(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from(["are", "you", "a", "robot", "?", "zq", ""]), max_size=7),
                st.sampled_from(CLASS_ORDER),
            ),
            min_size=1, max_size=40,
        ),
        st.integers(1, 4),
        st.sampled_from([3, 2_000_000]),
        st.integers(0, 3),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_texts_bit_for_bit(self, rows, ngram_max, hash_buckets, seed):
        # whole batches of texts without tokens, and a batch of one, included
        train = [TrainerRow(" ".join(tokens), label) for tokens, label in rows]
        hp = NgramParams(ngram_max=ngram_max, hash_buckets=hash_buckets, dim=3, epochs=2)
        assert_fits_as_reference(train, hp, seed)

    def test_packaged_grammar_model_file_is_unchanged(self, pos, aic, neg, tmp_path):
        # 600 rows, default params: 38 batches an epoch, the last one of 8.
        # SHA-256 of the file the trainer gave before it gathered each
        # batch at its own step.
        train = [
            LabeledUtterance(text, label)
            for g, label, n in ((pos, Label.POS, 240), (aic, Label.AIC, 60), (neg, Label.NEG, 300))
            for text in sample(g, n, seed=5).utterances
        ]
        assert len(train) == 600 and len(train) % NGRAM_BATCH == 8
        save_model(train_ngram_linear(train, seed=3), tmp_path / "m.npz")
        assert hashlib.sha256((tmp_path / "m.npz").read_bytes()).hexdigest() == (
            "7e5da53902925fd5b59d8730cf0681f1a5c6cafc211057411a290de0aa5656eb"
        )


class TestInitialEmbeddings:
    def test_deterministic_per_bucket(self):
        a = initial_embedding_row(5, 1234, 300)
        b = initial_embedding_row(5, 1234, 300)
        np.testing.assert_array_equal(a, b)

    def test_distinct_buckets_differ(self):
        a = initial_embedding_row(5, 1234, 300)
        b = initial_embedding_row(5, 1235, 300)
        assert not np.array_equal(a, b)

    def test_range_bound(self):
        row = initial_embedding_row(0, 42, 300)
        assert row.shape == (300,)
        assert np.all(np.abs(row) <= 1.0 / 300)


def fit_ngram(train, hp, seed):
    """``train_ngram_linear``'s model and the embedding rows it was folded
    from, by bucket, caught as its ``_fit_ngram_rows`` returns them."""
    real = classifiers._fit_ngram_rows
    caught = []

    def catching(*args):
        caught.append(real(*args))
        return caught[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classifiers, "_fit_ngram_rows", catching)
        model = train_ngram_linear(train, hp, seed)
    [(row_of, E, _, _)] = caught
    return model, {bucket: E[i] for bucket, i in row_of.items()}


def _row_of(model, rows, bucket):
    """A bucket's embedding row: trained, or its initial row if unseen."""
    row = rows.get(bucket)
    if row is None:
        row = initial_embedding_row(model.seed, bucket, model.params.dim)
    return row


def reference_ngram_scores(model, rows, text):
    """Scores of ``model`` on ``text``, pooled by a plain loop in bucket order.

    Trained buckets use ``rows``, the model's trained embedding rows, and
    unseen ones their initial rows; ``h += count * row`` adds the rows one
    after another, and the pooled embedding is multiplied by ``weights``
    last, as the model is defined.
    """
    feats = _features(text, model.params.ngram_max, model.params.hash_buckets)
    h = np.zeros(model.params.dim)
    k = sum(count for _, count in feats)
    for bucket, count in feats:
        h += count * _row_of(model, rows, bucket)
    if k:
        h = h / k
    logits = model.weights @ h + model.biases
    expd = np.exp(logits - logits.max())
    return tuple(float(x) for x in expd / expd.sum())


def folded_ngram_scores(model, rows, text):
    """Scores of ``model`` on ``text`` with ``weights`` folded into each row.

    At each token position, the logits ``weights @ row`` of the n-grams that
    start there are added shortest first, one class at a time; these window
    sums are added left to right and divided by the n-gram count. The
    prediction path must reproduce these floats exactly.
    """
    tokens = tokenize(text)
    logits = [float(b) for b in model.biases]
    acc = [0.0] * len(logits)
    k = 0
    for i in range(len(tokens)):
        window = [0.0] * len(logits)
        for n in range(1, min(model.params.ngram_max, len(tokens) - i) + 1):
            bucket = fnv1a_64(NGRAM_JOIN.join(tokens[i : i + n])) % model.params.hash_buckets
            z = model.weights @ _row_of(model, rows, bucket)
            for c in range(len(window)):
                window[c] += float(z[c])
            k += 1
        for c in range(len(acc)):
            acc[c] += window[c]
    if k:
        logits = [a / k + b for a, b in zip(acc, logits)]
    top = max(logits)
    expd = [math.exp(x - top) for x in logits]
    return tuple(e / math.fsum(expd) for e in expd)


# Folding and the window order reorder the float sums; on the standard
# dataset (seeds 0, 700 and 4001) the largest difference measured is 3.3e-16.
FOLDED_SCORE_BOUND = 1e-12


def assert_predicts_references(model, rows, text):
    """``predict`` equals the folded reference bit for bit, stays within
    FOLDED_SCORE_BOUND of the pooled one and picks the pooled one's label;
    ``rows`` are the embedding rows ``model`` was folded from."""
    pred = model.predict(text)
    assert pred.scores == folded_ngram_scores(model, rows, text)
    pooled = reference_ngram_scores(model, rows, text)
    assert max(abs(a - b) for a, b in zip(pred.scores, pooled)) <= FOLDED_SCORE_BOUND
    assert pred.label is prediction_from_scores(text, pooled).label


def clear_cache(model):
    """Empty ``model``'s window cache."""
    model.window_sums.cache_clear()


def _bucket_kinds(model, text):
    """Which of 'seen' and 'unseen' buckets ``text`` has under ``model``."""
    feats = _features(text, model.params.ngram_max, model.params.hash_buckets)
    return {"seen" if bucket in model.logits else "unseen" for bucket, _ in feats}


@pytest.fixture(scope="module")
def ngram_models(tmp_path_factory):
    """Each as (model, its trained embedding rows): a trained n-gram model,
    its save/load round trip, and a one-column model, whose pooling is a
    reduction over a single column."""
    trained, rows = fit_ngram(SEPARABLE, NgramParams(dim=50, epochs=5), seed=0)
    path = tmp_path_factory.mktemp("ngram") / "model.npz"
    save_model(trained, path)
    return {
        "trained": (trained, rows),
        "loaded": (load_model(path), rows),
        "dim1": fit_ngram(SEPARABLE, NgramParams(dim=1, epochs=2), seed=1),
        # every n-gram shares one of 7 buckets with others
        "7 buckets": fit_ngram(SEPARABLE, NgramParams(hash_buckets=7, dim=8, epochs=3), seed=2),
    }


class TestNgramLinear:
    # 12 examples is tiny; give the decaying-rate SGD enough passes to fit
    HP = NgramParams(dim=50, epochs=40)

    # Inputs for the exact-reference checks; the coverage test pins what each holds.
    TEXTS = {
        "seen": "are you a robot",
        "unseen": "zqxv plorb wuggle",
        "mixed": "are you a zqxv plorb today",
        "repeated": "a a a",
        "many buckets": "is it raining in boston or are you a robot zqxv",
        "empty": "",
        "whitespace": " \t\n  ",
        "punctuation": "?!.,",
        "one token": "robot",
        "two tokens": "are you",
        "repeated n-grams": "a a a a b a a",
    }

    def test_empty_train_rejected(self):
        with pytest.raises(InvalidInputError, match="^no training rows$"):
            train_ngram_linear([])

    def test_fits_separable_data(self):
        model = train_ngram_linear(SEPARABLE, self.HP, seed=0)
        preds = model.predict_batch([row.text for row in SEPARABLE])
        assert [p.label for p in preds] == [row.label for row in SEPARABLE]

    def test_training_is_deterministic(self):
        a, a_rows = fit_ngram(SEPARABLE, self.HP, seed=3)
        b, b_rows = fit_ngram(SEPARABLE, self.HP, seed=3)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.biases, b.biases)
        assert a.logits == b.logits
        assert a_rows.keys() == b_rows.keys() == a.logits.keys()
        for bucket, row in a_rows.items():
            np.testing.assert_array_equal(row, b_rows[bucket])

    @pytest.mark.parametrize("dim", [4, 64])
    def test_model_keeps_class_logits_per_trained_bucket(self, dim, tmp_path):
        model, rows = fit_ngram(SEPARABLE, NgramParams(dim=dim, epochs=2), seed=5)
        assert {row.shape for row in rows.values()} == {(dim,)}
        # each trained row folded once: C floats per bucket, whatever dim is
        assert model.logits == {b: tuple((model.weights @ row).tolist()) for b, row in rows.items()}
        save_model(model, tmp_path / "m.npz")
        with np.load(tmp_path / "m.npz") as data:
            assert data["logits"].shape == (len(rows), len(CLASS_ORDER))
            assert data["buckets"].shape == (len(rows),)

    def test_unseen_buckets_fall_back_to_initial_rows(self, ngram_models):
        texts = list(self.TEXTS.values()) + [row.text for row in SEPARABLE]
        for model, rows in ngram_models.values():
            for text in texts:
                # cold, then served from the window cache
                clear_cache(model)
                assert_predicts_references(model, rows, text)
                assert_predicts_references(model, rows, text)

    def test_reference_texts_cover_seen_and_unseen_buckets(self, ngram_models):
        model, _ = ngram_models["trained"]
        assert _bucket_kinds(model, self.TEXTS["seen"]) == {"seen"}
        assert _bucket_kinds(model, self.TEXTS["unseen"]) == {"unseen"}
        assert _bucket_kinds(model, self.TEXTS["mixed"]) == {"seen", "unseen"}
        assert sorted(c for _, c in _features(self.TEXTS["repeated"], 3, 2_000_000)) == [1, 2, 3]
        # eight or more buckets: numpy would sum one column pairwise, not in order
        assert len(_features(self.TEXTS["many buckets"], 3, 2_000_000)) >= 8
        assert _bucket_kinds(model, self.TEXTS["empty"]) == set()
        assert _bucket_kinds(model, self.TEXTS["whitespace"]) == set()
        # punctuation marks are tokens: 4 + 3 + 2 n-grams
        assert sum(c for _, c in _features(self.TEXTS["punctuation"], 3, 2_000_000)) == 9
        assert len(_features(self.TEXTS["one token"], 3, 2_000_000)) == 1
        assert len(_features(self.TEXTS["two tokens"], 3, 2_000_000)) == 3
        # "a" occurs 6 times, "a a" 4 times and "a a a" twice
        counts = [c for _, c in _features(self.TEXTS["repeated n-grams"], 3, 2_000_000)]
        assert sorted(counts)[-3:] == [2, 4, 6]
        model_7, _ = ngram_models["7 buckets"]
        assert max(c for _, c in _features(self.TEXTS["many buckets"], 3, 7)) > 1
        assert model_7.logits.keys() == set(range(7))

    @given(
        st.lists(
            st.one_of(
                st.sampled_from(sorted({t for row in SEPARABLE for t in row.text.split()})),
                st.text(alphabet="bkqvxz", min_size=1, max_size=5),
            ),
            max_size=12,
        ),
        st.sampled_from([" ", "  ", "\t"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_token_strings_equal_reference(self, ngram_models, tokens, sep):
        text = sep.join(tokens)
        for model, rows in ngram_models.values():
            assert_predicts_references(model, rows, text)

    def test_requires_all_classes(self):
        rows = [row for row in SEPARABLE if row.label is not Label.POS]
        with pytest.raises(
            InvalidInputError, match="^training data contains no example with label 'p'$"
        ):
            train_ngram_linear(rows, self.HP)

    @pytest.mark.parametrize("field, value", [
        ("epochs", 0), ("epochs", -2), ("learning_rate", 0.0), ("learning_rate", -1.0),
        ("learning_rate", math.nan), ("learning_rate", math.inf),
        ("dim", 0), ("ngram_max", 0), ("hash_buckets", 0),
        ("dim", 4.0), ("ngram_max", 2.0), ("hash_buckets", 1e6), ("epochs", True),
        # past 2**63 a bucket id no longer fits the model file's int64 array
        ("hash_buckets", 2**63 + 1), ("hash_buckets", 2**64),
    ])
    def test_params_out_of_range_rejected(self, field, value):
        with pytest.raises(InvalidInputError, match=field):
            NgramParams(**{field: value})

    def test_training_that_diverges_is_refused_without_a_warning(self):
        # one text labelled both p and a: no weights fit it, and a huge rate
        # overflows them
        train = SEPARABLE + [LabeledUtterance("are you a robot", Label.AIC)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="learning_rate 1e[+]30"):
                train_ngram_linear(train, NgramParams(learning_rate=1e30), seed=0)
            # a large rate that still trains: its log(0) in the loss stays quiet
            model = train_ngram_linear(train, NgramParams(learning_rate=100.0), seed=0)
        assert all(math.isfinite(z) for row in model.logits.values() for z in row)

    def test_largest_hash_buckets_saves_and_loads(self, tmp_path):
        # bucket ids run up to 2**63 - 1, the model file's int64 maximum
        model = train_ngram_linear(SEPARABLE, NgramParams(hash_buckets=2**63, dim=4, epochs=1))
        save_model(model, tmp_path / "m.npz")
        assert load_model(tmp_path / "m.npz").logits == model.logits

    def test_trainer_steps_through_the_checked_gradient(self, monkeypatch):
        # 36 distinct texts: two full batches of NGRAM_BATCH and one of 4 per epoch
        rows = [
            LabeledUtterance(f"{row.text} v{i}", row.label)
            for i in range(3) for row in SEPARABLE
        ]
        hp = NgramParams(dim=8, epochs=2)
        real = classifiers.ngram_loss_and_grad
        calls = []

        def recording(W, b, E, u, M, codes):
            assert (np.diff(u) > 0).all() and M.shape == (len(codes), len(u))
            # each example's row of M holds its text's count-over-total
            # weights, summing to 1 (to 0 for a text without tokens), and
            # every row of u is one that an example of the batch holds
            assert ((np.abs(M.sum(axis=1) - 1.0) <= 1e-12) | ~M.any(axis=1)).all()
            assert M.any(axis=0).all()
            # an example's embedding rows are the columns of its row of M in use
            calls.append([(tuple(u[m != 0].tolist()), int(code)) for m, code in zip(M, codes)])
            return real(W, b, E, u, M, codes)

        monkeypatch.setattr(classifiers, "ngram_loss_and_grad", recording)
        train_ngram_linear(rows, hp, seed=4)

        per_epoch = -(-len(rows) // NGRAM_BATCH)
        assert per_epoch == 3
        assert len(calls) == hp.epochs * per_epoch
        assert [len(call) for call in calls[:per_epoch]] == [16, 16, 4]
        labels = Counter(CLASS_ORDER.index(row.label) for row in rows)
        epochs = [
            [ex for call in calls[e * per_epoch:(e + 1) * per_epoch] for ex in call]
            for e in range(hp.epochs)
        ]
        for seen in epochs:
            # every example once, with its own label, keyed by its embedding rows
            assert len({ids for ids, _ in seen}) == len(seen) == len(rows)
            assert Counter(code for _, code in seen) == labels
        assert set(epochs[0]) == set(epochs[1])


@pytest.fixture(scope="module")
def ngram_models_by_max():
    """A model and its trained embedding rows per (ngram_max, hash_buckets):
    ngram_max from 1 to 5, and 7 buckets, in which n-grams of every length
    collide, or 2,000,000, in which unseen words get untrained buckets."""
    return {
        (ngram_max, buckets): fit_ngram(
            SEPARABLE,
            NgramParams(ngram_max=ngram_max, hash_buckets=buckets, dim=4, epochs=2),
            seed=ngram_max,
        )
        for ngram_max in range(1, 6)
        for buckets in (7, 2_000_000)
    }


class TestNgramWindows:
    @given(
        ngram_max_and_tokens(["are", "you", "a", "robot", "?", "zq"]),
        st.sampled_from([7, 2_000_000]),
    )
    @settings(max_examples=150, deadline=None)
    def test_cold_and_warm_caches_equal_reference(self, ngram_models_by_max, case, buckets):
        ngram_max, tokens = case
        model, rows = ngram_models_by_max[(ngram_max, buckets)]
        text = " ".join(tokens)
        clear_cache(model)
        assert_predicts_references(model, rows, text)
        assert_predicts_references(model, rows, text)

    def test_ngram_max_past_the_token_count_costs_nothing(self):
        hp = NgramParams(ngram_max=4, dim=4, epochs=1)
        model = train_ngram_linear(SEPARABLE, hp, seed=0)
        huge = NgramLinearModel(
            params=NgramParams(ngram_max=10**9, dim=4, epochs=1), seed=0,
            logits=model.logits, weights=model.weights, biases=model.biases,
        )
        text = "are you a robot"
        start = time.perf_counter()
        assert huge.predict(text) == model.predict(text)
        got = _ngram_counts([text], 10**9, hp.hash_buckets)
        elapsed = time.perf_counter() - start
        assert got == _ngram_counts([text], 4, hp.hash_buckets)
        assert sum(got[0].values()) == 4 + 3 + 2 + 1
        # the walk stops at the text's 4 tokens; looping to ngram_max took minutes
        assert elapsed < 0.5


class TestNgramRepeatedWindows:
    # Each text repeats its windows, so a decision adds one cached window sum
    # more than once. Adding each bucket's count * z in bucket order instead
    # rounds apart from the window order: on the dim1 model for the first
    # text, the 7 buckets model for the second and the trained model for the
    # third.
    @pytest.mark.parametrize("text", [
        "a is a is a is",
        "you a you a you a",
        "seem joke seem joke seem joke seem joke",
    ])
    def test_a_repeated_window_adds_its_cached_sum_again(self, ngram_models, text):
        tokens = tokenize(text)
        for model, rows in ngram_models.values():
            k = min(model.params.ngram_max, len(tokens))
            distinct = len({tuple(tokens[i : i + k]) for i in range(len(tokens))})
            assert distinct < len(tokens)
            clear_cache(model)
            assert_predicts_references(model, rows, text)
            info = model.window_sums.cache_info()
            assert (info.hits, info.misses) == (len(tokens) - distinct, distinct)


class TestNgramStandardDataset:
    def test_every_text_takes_the_pooled_label(self, standard_dataset):
        model, rows = fit_ngram(standard_dataset["train"], NgramParams(), seed=0)
        texts = [row.text for split in ("train", "val", "test") for row in standard_dataset[split]]
        assert len(texts) == 6800
        for text in texts:
            pred = model.predict(text)
            pooled = reference_ngram_scores(model, rows, text)
            assert pred.label is prediction_from_scores(text, pooled).label
            assert max(abs(a - b) for a, b in zip(pred.scores, pooled)) <= FOLDED_SCORE_BOUND


class TestNgramTies:
    @pytest.mark.parametrize("biases, label", [
        ((0.5, 0.5, 0.5), Label.POS),
        ((-2.0, 1.0, 1.0), Label.AIC),
        ((1.0, -2.0, 1.0), Label.POS),
        ((0.0, 0.0, 3.0), Label.NEG),
    ])
    @pytest.mark.parametrize("text", ["are you a robot", "a a a", ""])
    def test_tied_scores_go_to_the_earlier_class(self, biases, label, text):
        # zero weights fold every untrained bucket to zero logits, so the
        # scores are the softmax of the biases, tied exactly where they are
        params = NgramParams(dim=4)
        model = NgramLinearModel(
            params=params, seed=0, logits={},
            weights=np.zeros((len(CLASS_ORDER), params.dim)), biases=np.asarray(biases),
        )
        pred = model.predict(text)
        assert pred.label is label
        assert pred == prediction_from_scores(text, pred.scores)


class TestNgramCache:
    def test_cache_is_bounded_and_scores_stay_exact(self):
        model, rows = fit_ngram(SEPARABLE, NgramParams(dim=8, epochs=1), seed=2)
        # per text three distinct windows: 4,500 in all, more than the cache holds
        texts = [f"w{i}a w{i}b w{i}c" for i in range(1500)]
        assert len(texts) * 3 > NGRAM_WINDOW_CACHE_SIZE
        for text in texts:
            assert_predicts_references(model, rows, text)
        windows = model.window_sums.cache_info()
        assert windows.maxsize == windows.currsize == NGRAM_WINDOW_CACHE_SIZE
        assert (windows.hits, windows.misses) == (0, 1500 * 3)
        # the earliest windows were evicted: predicting their texts again
        # misses each window, and each miss computes its n-grams' logits afresh
        for text in texts[:50]:
            assert_predicts_references(model, rows, text)
        again = model.window_sums.cache_info()
        assert (again.hits, again.misses) == (windows.hits, windows.misses + 50 * 3)
        assert again.currsize == NGRAM_WINDOW_CACHE_SIZE
        # the latest texts are served from the cache alone
        for text in texts[-50:]:
            assert_predicts_references(model, rows, text)
        last = model.window_sums.cache_info()
        assert (last.hits, last.misses) == (again.hits + 50 * 3, again.misses)

    def test_one_text_with_more_ngrams_than_the_cache(self):
        model, rows = fit_ngram(SEPARABLE, NgramParams(dim=4, epochs=1), seed=3)
        text = " ".join(f"t{i}" for i in range(NGRAM_WINDOW_CACHE_SIZE + 10))
        assert_predicts_references(model, rows, text)
        windows = model.window_sums.cache_info()
        assert windows.misses == NGRAM_WINDOW_CACHE_SIZE + 10
        assert windows.currsize == NGRAM_WINDOW_CACHE_SIZE

    def test_dim_300_file_is_unchanged(self, tmp_path):
        # SHA-256 of the 12,094-byte file that NgramParams() gave for these
        # rows and seed while its default dim was 300
        model = train_ngram_linear(SEPARABLE, NgramParams(dim=300), seed=0)
        save_model(model, tmp_path / "m.npz")
        assert hashlib.sha256((tmp_path / "m.npz").read_bytes()).hexdigest() == (
            "edd21ac131d46fc58f2ecad107b26717062c5f2d87579efbcc18d0de7fb3b1f0"
        )

    def test_serving_predictions_leaves_the_model_file_unchanged(self, tmp_path):
        model = train_ngram_linear(SEPARABLE, NgramParams(dim=20, epochs=2), seed=0)
        save_model(model, tmp_path / "before.npz")
        model.predict_batch([row.text for row in SEPARABLE] + ["zqxv plorb", "a a a"])
        save_model(model, tmp_path / "after.npz")
        assert (tmp_path / "before.npz").read_bytes() == (tmp_path / "after.npz").read_bytes()
        with np.load(tmp_path / "after.npz") as data:
            assert sorted(data.files) == ["biases", "buckets", "logits", "meta", "weights"]


class TestRandomGuess:
    def test_deterministic(self):
        texts = [f"utterance {i}" for i in range(50)]
        a = RandomGuessModel(distribution=(0.4, 0.1, 0.5), seed=9).predict_batch(texts)
        b = RandomGuessModel(distribution=(0.4, 0.1, 0.5), seed=9).predict_batch(texts)
        assert a == b

    def test_distribution_roughly_respected(self):
        model = RandomGuessModel(distribution=(0.4, 0.1, 0.5), seed=0)
        counts = Counter(p.label for p in model.predict_batch([f"u{i}" for i in range(20_000)]))
        assert counts[Label.POS] / 20_000 == pytest.approx(0.4, abs=0.02)
        assert counts[Label.AIC] / 20_000 == pytest.approx(0.1, abs=0.02)
        assert counts[Label.NEG] / 20_000 == pytest.approx(0.5, abs=0.02)

    def test_must_sum_to_one(self):
        with pytest.raises(ValueError, match="label distribution"):
            RandomGuessModel(distribution=(0.5, 0.5, 0.5), seed=0)

    @pytest.mark.parametrize("distribution", [
        (2.0, 0.0, 0.0), (0.5, 0.5, 0.5), (1.5, -0.5, 0.0), (0.5, 0.5), (0.25,) * 4,
        (math.nan, 0.0, 0.0),
    ])
    def test_a_model_that_cannot_draw_is_refused_when_built(self, distribution):
        with pytest.raises(ValueError, match="label distribution"):
            RandomGuessModel(distribution=distribution, seed=0)

    def test_labels_follow_the_text_not_its_position(self):
        model = RandomGuessModel(distribution=(0.4, 0.1, 0.5), seed=0)
        texts = [f"utterance {i}" for i in range(200)]
        batch = model.predict_batch(texts)
        assert [model.predict(text) for text in texts] == batch
        assert model.predict_batch(texts[::-1]) == batch[::-1]
        assert {p.label for p in batch} == set(CLASS_ORDER)

    def test_fit_reproduces_train_distribution(self):
        model = fit_random_guess(SEPARABLE, seed=1)
        assert model.distribution == pytest.approx((1 / 3, 1 / 3, 1 / 3))
        preds = model.predict_batch(["x"] * 10)
        assert all(p.scores in {(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)} for p in preds)


def _recognizer():
    return RecognizerModel(
        pos_grammar=parse_grammar('S -> "are you a " N\nN -> "robot" | "machine"'),
        aic_grammar=parse_grammar('S -> "you sound robotic"'),
    )


EVERY_CLASSIFIER = {
    "bowlr": lambda: train_bow_lr(SEPARABLE),
    "ir": lambda: fit_ir(SEPARABLE),
    "ngram": lambda: train_ngram_linear(SEPARABLE, NgramParams(dim=8, epochs=1), seed=0),
    "random": lambda: fit_random_guess(SEPARABLE, seed=0),
    "recognizer": _recognizer,
}


class TestPredictionRecords:
    @pytest.mark.parametrize("kind", sorted(EVERY_CLASSIFIER))
    def test_immutable_and_equal_and_hashed_by_value(self, kind):
        model = EVERY_CLASSIFIER[kind]()
        texts = ["are you a robot", "you sound robotic", "do you like pizza", "zz qq"]
        for pred, again in zip(model.predict_batch(texts), model.predict_batch(texts)):
            assert pred._fields == ("text", "label", "scores")
            assert type(pred.label) is Label and len(pred.scores) == len(CLASS_ORDER)
            assert all(type(score) is float for score in pred.scores)
            for name, value in (("text", "x"), ("label", Label.NEG), ("scores", (0.0,) * 3),
                                ("other", 1)):
                with pytest.raises(AttributeError):
                    setattr(pred, name, value)
            assert pred == again and hash(pred) == hash(again) and len({pred, again}) == 1
            assert pred != pred._replace(text=pred.text + "!")


class TestPersistence:
    @pytest.fixture
    def queries(self):
        return [row.text for row in SEPARABLE] + ["do you enjoy robots", "zz qq"]

    def _roundtrip(self, model, tmp_path, queries):
        path = tmp_path / "model.npz"
        save_model(model, path)
        loaded = load_model(path)
        before = model.predict_batch(queries)
        after = loaded.predict_batch(queries)
        assert [p.label for p in before] == [p.label for p in after]
        assert [p.scores for p in before] == [p.scores for p in after]
        return loaded

    def test_bowlr_roundtrip_bit_exact(self, tmp_path, queries):
        model = train_bow_lr(SEPARABLE)
        loaded = self._roundtrip(model, tmp_path, queries)
        np.testing.assert_array_equal(model.weights, loaded.weights)
        np.testing.assert_array_equal(model.biases, loaded.biases)

    def test_bowlr_file_with_sgd_schedule_loads(self, tmp_path, queries):
        model = train_bow_lr(SEPARABLE)
        save_model(model, tmp_path / "new.npz")
        with np.load(tmp_path / "new.npz") as data:
            arrays = {key: data[key] for key in data.files}
        meta = json.loads(str(arrays.pop("meta")))
        assert "params" not in meta
        # the params an SGD-trained BoW-LR file carries
        meta["params"] = {"learning_rate": 2.0, "l2": 1e-4, "epochs": 300, "batch_size": 32}
        np.savez(tmp_path / "old.npz", meta=np.asarray(json.dumps(meta)), **arrays)
        loaded = load_model(tmp_path / "old.npz")
        np.testing.assert_array_equal(model.weights, loaded.weights)
        np.testing.assert_array_equal(model.biases, loaded.biases)
        before = model.predict_batch(queries)
        assert [p.scores for p in loaded.predict_batch(queries)] == [p.scores for p in before]

    def test_ir_roundtrip_bit_exact(self, tmp_path, queries):
        model = fit_ir(SEPARABLE)
        loaded = self._roundtrip(model, tmp_path, queries)
        np.testing.assert_array_equal(model.matrix, loaded.matrix)
        np.testing.assert_array_equal(model.labels, loaded.labels)

    def test_fitted_and_loaded_matrices_hold_the_same_values(self, tmp_path):
        words = "are you a robot or a real person please tell me now honestly ok".split()
        rows = SEPARABLE + [
            LabeledUtterance(" ".join(words[i : i + 5 + i]), label)
            for i, label in enumerate(CLASS_ORDER * 2)
        ]
        model = fit_ir(rows)
        save_model(model, tmp_path / "ir.npz")
        loaded = load_model(tmp_path / "ir.npz")
        for m in (model, loaded):
            assert m.matrix.flags.c_contiguous
            np.testing.assert_array_equal(m.matrix, vectorize_many(m.vocab, [r.text for r in rows]))

    def test_ir_file_stores_compressed_sparse_rows(self, tmp_path):
        model = fit_ir(SEPARABLE)
        save_model(model, tmp_path / "ir.npz")
        with np.load(tmp_path / "ir.npz") as data:
            assert tuple(data["mat_shape"]) == model.matrix.shape
            indptr, indices, values = data["mat_indptr"], data["mat_indices"], data["mat_data"]
            assert indptr[0] == 0 and indptr[-1] == len(indices) == len(values)
            for i, row in enumerate(model.matrix):
                cols = indices[indptr[i] : indptr[i + 1]]
                np.testing.assert_array_equal(cols, np.flatnonzero(row))
                np.testing.assert_array_equal(values[indptr[i] : indptr[i + 1]], row[cols])

    def test_ngram_roundtrip_bit_exact(self, tmp_path, queries):
        model = train_ngram_linear(SEPARABLE, NgramParams(dim=20, epochs=2), seed=0)
        loaded = self._roundtrip(model, tmp_path, queries)
        np.testing.assert_array_equal(model.weights, loaded.weights)
        np.testing.assert_array_equal(model.biases, loaded.biases)
        assert loaded.logits == model.logits

    def test_random_roundtrip(self, tmp_path, queries):
        model = fit_random_guess(SEPARABLE, seed=4)
        loaded = self._roundtrip(model, tmp_path, queries)
        assert loaded.distribution == model.distribution
        assert loaded.seed == model.seed

    def test_unknown_model_type_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            save_model(object(), tmp_path / "bad.npz")
