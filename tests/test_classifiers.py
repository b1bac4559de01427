import dataclasses
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruaguard import classifiers
from ruaguard.classifiers import (
    BOWLR_MAX_ITER,
    BOWLR_TOL,
    NGRAM_BATCH,
    NGRAM_CACHE_SIZE,
    BowLrParams,
    NgramParams,
    _lbfgs,
    bowlr_loss_and_grad,
    fit_ir,
    fit_random_guess,
    initial_embedding_row,
    load_model,
    ngram_features,
    ngram_loss_and_grad,
    predict_random,
    save_model,
    train_bow_lr,
    train_ngram_linear,
)
from ruaguard.dataset import CLASS_ORDER, Label, LabeledUtterance, prediction_from_scores
from ruaguard.errors import EmptyCorpusError, InvalidInputError, MissingClassError
from ruaguard.features import fit_tfidf, vectorize_many

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
        Y = np.zeros((4, 3))
        Y[np.arange(4), codes] = 1.0
        W = rng.normal(scale=0.5, size=(3, 6))
        b = rng.normal(scale=0.5, size=3)
        return W, b, X, Y

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients_match_finite_differences(self, seed):
        W, b, X, Y = self._setup(seed)
        l2 = 1e-3
        _, dW, db = bowlr_loss_and_grad(W, b, X, Y, l2)
        num_dW = finite_difference(lambda: bowlr_loss_and_grad(W, b, X, Y, l2)[0], W)
        num_db = finite_difference(lambda: bowlr_loss_and_grad(W, b, X, Y, l2)[0], b)
        assert relative_error(dW, num_dW) < 1e-5
        assert relative_error(db, num_db) < 1e-5

    def test_loss_at_zero_weights_is_log_num_classes(self):
        _, _, X, Y = self._setup(0)
        W = np.zeros((3, 6))
        b = np.zeros(3)
        loss, _, _ = bowlr_loss_and_grad(W, b, X, Y, 0.0)
        assert loss == pytest.approx(math.log(3), abs=1e-12)

    def test_l2_penalty_included(self):
        W, b, X, Y = self._setup(1)
        base, _, _ = bowlr_loss_and_grad(W, b, X, Y, 0.0)
        more, _, _ = bowlr_loss_and_grad(W, b, X, Y, 0.5)
        assert more == pytest.approx(base + 0.25 * float((W * W).sum()), abs=1e-12)


def ngram_gradient_errors(W, b, E, examples, codes):
    """Relative errors of ngram_loss_and_grad's dW, db and dE against central
    differences; dE, returned for E[u] only, is scattered to E's full size first."""
    _, dW, db, u, dEu = ngram_loss_and_grad(W, b, E, examples, codes)
    dE = np.zeros_like(E)
    dE[u] = dEu
    loss = lambda: ngram_loss_and_grad(W, b, E, examples, codes)[0]
    return [relative_error(g, finite_difference(loss, x)) for g, x in ((dW, W), (db, b), (dE, E))]


class TestNgramGradient:
    def _setup(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        W = rng.normal(scale=0.5, size=(3, 5))
        b = rng.normal(scale=0.5, size=3)
        # row 4 is in no example; row 1 is in two
        E = rng.normal(scale=0.5, size=(5, 5))
        examples = [([0, 1], [2, 1]), ([1, 3], [1, 3]), ([2], [1]), ([], [])]
        codes = [0, 1, 2, 1]
        return W, b, E, examples, codes

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients_match_finite_differences(self, seed):
        errors = ngram_gradient_errors(*self._setup(seed))
        assert max(errors) < 1e-5

    def test_gathers_only_the_rows_in_play(self):
        W, b, E, examples, codes = self._setup(0)
        _, _, _, u, dE = ngram_loss_and_grad(W, b, E, examples, codes)
        assert list(u) == [0, 1, 2, 3]
        assert dE.shape == (4, E.shape[1])

    def test_empty_feature_list_contributes_no_embedding_gradient(self):
        W, b, E, _, _ = self._setup(0)
        loss, dW, _, u, dE = ngram_loss_and_grad(W, b, E, [([], [])], [1])
        assert loss == pytest.approx(-math.log(np.exp(b[1]) / np.exp(b).sum()), abs=1e-12)
        np.testing.assert_array_equal(dW, np.zeros_like(W))
        assert u.size == 0 and dE.shape == (0, E.shape[1])


class TestBowLr:
    def test_fits_separable_data(self):
        model = train_bow_lr(SEPARABLE)
        preds = model.predict_batch([row.text for row in SEPARABLE])
        assert [p.label for p in preds] == [row.label for row in SEPARABLE]

    def test_returned_weights_are_at_the_optimum(self):
        model = train_bow_lr(SEPARABLE)
        X = vectorize_many(model.vocab, [row.text for row in SEPARABLE])
        Y = np.eye(len(CLASS_ORDER))[[CLASS_ORDER.index(row.label) for row in SEPARABLE]]
        _, dW, db = bowlr_loss_and_grad(model.weights, model.biases, X, Y, model.params.l2)
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

    def test_l2_is_the_only_parameter(self):
        assert [f.name for f in dataclasses.fields(BowLrParams)] == ["l2"]
        stronger = train_bow_lr(SEPARABLE, BowLrParams(l2=1e-2))
        assert np.abs(stronger.weights).max() < np.abs(train_bow_lr(SEPARABLE).weights).max()

    def test_scores_are_probabilities(self):
        model = train_bow_lr(SEPARABLE)
        pred = model.predict("are you a robot")
        assert sum(pred.scores) == pytest.approx(1.0, abs=1e-9)
        assert all(s >= 0 for s in pred.scores)

    def test_requires_all_classes(self):
        rows = [row for row in SEPARABLE if row.label is not Label.AIC]
        with pytest.raises(MissingClassError):
            train_bow_lr(rows)

    def test_empty_train_rejected(self):
        with pytest.raises(EmptyCorpusError):
            train_bow_lr([])


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

    def test_all_unknown_query_ties_to_first_row(self):
        # zero query vector: d^2 = 1 against every unit row, first index wins
        rows = [
            LabeledUtterance("alpha beta", Label.NEG),
            LabeledUtterance("gamma delta", Label.POS),
        ]
        model = fit_ir(rows)
        assert model.predict("zzz qqq").label is Label.NEG

    def test_chunked_batches_match_unchunked(self, monkeypatch):
        model = fit_ir(SEPARABLE)
        texts = [row.text for row in SEPARABLE] + ["do you like robots", "zzz"]
        whole = [p.label for p in model.predict_batch(texts)]
        # blocks of one, two and four query rows, the last block short
        for entries in (1, 2 * len(SEPARABLE), 5 * len(SEPARABLE) - 1):
            monkeypatch.setattr(classifiers, "IR_BLOCK_ENTRIES", entries)
            assert [p.label for p in model.predict_batch(texts)] == whole

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
        with pytest.raises(EmptyCorpusError):
            fit_ir([])


class TestNgramFeatures:
    def test_counts_unigrams_through_trigrams(self):
        feats = ngram_features("are you a robot", 3, 2_000_000)
        # 4 unigrams + 3 bigrams + 2 trigrams, all distinct
        assert len(feats) == 9
        assert sum(count for _, count in feats) == 9
        assert feats == sorted(feats)

    def test_repeated_tokens_accumulate(self):
        feats = ngram_features("a a a", 3, 2_000_000)
        counts = sorted(count for _, count in feats)
        assert counts == [1, 2, 3]

    def test_ngram_max_respected(self):
        uni_only = ngram_features("are you a robot", 1, 2_000_000)
        assert len(uni_only) == 4

    def test_empty_text(self):
        assert ngram_features("", 3, 2_000_000) == []


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


def _row_of(model, bucket):
    """A bucket's embedding row: trained, or its initial row if unseen."""
    row = model.embeddings.get(bucket)
    if row is None:
        row = initial_embedding_row(model.seed, bucket, model.params.dim)
    return row


def reference_ngram_scores(model, text):
    """Scores of ``model`` on ``text``, pooled by a plain loop in bucket order.

    Trained buckets use ``model.embeddings``, unseen ones their initial rows;
    ``h += count * row`` adds the rows one after another, and the pooled
    embedding is multiplied by ``weights`` last, as the model is defined.
    """
    feats = ngram_features(text, model.params.ngram_max, model.params.hash_buckets)
    h = np.zeros(model.params.dim)
    k = sum(count for _, count in feats)
    for bucket, count in feats:
        h += count * _row_of(model, bucket)
    if k:
        h = h / k
    logits = model.weights @ h + model.biases
    expd = np.exp(logits - logits.max())
    return tuple(float(x) for x in expd / expd.sum())


def folded_ngram_scores(model, text):
    """Scores of ``model`` on ``text`` with ``weights`` folded into each row.

    Per bucket ``weights @ row`` is weighted by its count and summed in bucket
    order, one class at a time, then divided by the total count; the
    prediction path must reproduce these floats exactly.
    """
    feats = ngram_features(text, model.params.ngram_max, model.params.hash_buckets)
    logits = [float(b) for b in model.biases]
    k = sum(count for _, count in feats)
    if k:
        acc = [0.0] * len(logits)
        for bucket, count in feats:
            z = model.weights @ _row_of(model, bucket)
            for c in range(len(acc)):
                acc[c] += count * float(z[c])
        logits = [a / k + b for a, b in zip(acc, logits)]
    top = max(logits)
    expd = [math.exp(x - top) for x in logits]
    return tuple(e / math.fsum(expd) for e in expd)


# Folding reorders the float sums; measured differences stay under 1e-15.
FOLDED_SCORE_BOUND = 1e-12


def assert_predicts_references(model, text):
    """``predict`` equals the folded reference bit for bit, stays within
    FOLDED_SCORE_BOUND of the pooled one and picks the pooled one's label."""
    pred = model.predict(text)
    assert pred.scores == folded_ngram_scores(model, text)
    pooled = reference_ngram_scores(model, text)
    assert max(abs(a - b) for a, b in zip(pred.scores, pooled)) <= FOLDED_SCORE_BOUND
    assert pred.label is prediction_from_scores(text, pooled).label


def _bucket_kinds(model, text):
    """Which of 'seen' and 'unseen' buckets ``text`` has under ``model``."""
    feats = ngram_features(text, model.params.ngram_max, model.params.hash_buckets)
    return {"seen" if bucket in model.embeddings else "unseen" for bucket, _ in feats}


@pytest.fixture(scope="module")
def ngram_models(tmp_path_factory):
    """A trained n-gram model, its save/load round trip, and a one-column
    model, whose pooling is a reduction over a single column."""
    trained = train_ngram_linear(SEPARABLE, NgramParams(dim=50, epochs=5), seed=0)
    path = tmp_path_factory.mktemp("ngram") / "model.npz"
    save_model(trained, path)
    one_column = train_ngram_linear(SEPARABLE, NgramParams(dim=1, epochs=2), seed=1)
    return {"trained": trained, "loaded": load_model(path), "dim1": one_column}


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
    }

    def test_fits_separable_data(self):
        model = train_ngram_linear(SEPARABLE, self.HP, seed=0)
        preds = model.predict_batch([row.text for row in SEPARABLE])
        assert [p.label for p in preds] == [row.label for row in SEPARABLE]

    def test_training_is_deterministic(self):
        a = train_ngram_linear(SEPARABLE, self.HP, seed=3)
        b = train_ngram_linear(SEPARABLE, self.HP, seed=3)
        np.testing.assert_array_equal(a.weights, b.weights)
        for bucket, row in a.embeddings.items():
            np.testing.assert_array_equal(row, b.embeddings[bucket])

    def test_unseen_buckets_fall_back_to_initial_rows(self, ngram_models):
        texts = list(self.TEXTS.values()) + [row.text for row in SEPARABLE]
        for model in ngram_models.values():
            for text in texts:
                # cold, then served from the n-gram cache
                assert_predicts_references(model, text)
                assert_predicts_references(model, text)

    def test_reference_texts_cover_seen_and_unseen_buckets(self, ngram_models):
        model = ngram_models["trained"]
        assert _bucket_kinds(model, self.TEXTS["seen"]) == {"seen"}
        assert _bucket_kinds(model, self.TEXTS["unseen"]) == {"unseen"}
        assert _bucket_kinds(model, self.TEXTS["mixed"]) == {"seen", "unseen"}
        assert sorted(c for _, c in ngram_features(self.TEXTS["repeated"], 3, 2_000_000)) == [1, 2, 3]
        # eight or more buckets: numpy would sum one column pairwise, not in order
        assert len(ngram_features(self.TEXTS["many buckets"], 3, 2_000_000)) >= 8
        assert _bucket_kinds(model, self.TEXTS["empty"]) == set()
        assert _bucket_kinds(model, self.TEXTS["whitespace"]) == set()

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
        for model in ngram_models.values():
            assert_predicts_references(model, text)

    def test_requires_all_classes(self):
        rows = [row for row in SEPARABLE if row.label is not Label.POS]
        with pytest.raises(MissingClassError):
            train_ngram_linear(rows, self.HP)

    @pytest.mark.parametrize("field, value", [
        ("epochs", 0), ("epochs", -2), ("learning_rate", 0.0), ("learning_rate", -1.0),
        ("learning_rate", math.nan), ("learning_rate", math.inf),
        ("dim", 0), ("ngram_max", 0), ("hash_buckets", 0),
    ])
    def test_params_out_of_range_rejected(self, field, value):
        with pytest.raises(InvalidInputError, match=field):
            NgramParams(**{field: value})

    def test_trainer_steps_through_the_checked_gradient(self, monkeypatch):
        # 36 distinct texts: two full batches of NGRAM_BATCH and one of 4 per epoch
        rows = [
            LabeledUtterance(f"{row.text} v{i}", row.label)
            for i in range(3) for row in SEPARABLE
        ]
        hp = NgramParams(dim=8, epochs=2)
        real = classifiers.ngram_loss_and_grad
        calls = []

        def recording(W, b, E, examples, codes):
            calls.append([(tuple(ids), int(code)) for (ids, _), code in zip(examples, codes)])
            return real(W, b, E, examples, codes)

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


class TestNgramCache:
    def test_cache_is_bounded_and_scores_stay_exact(self):
        model = train_ngram_linear(SEPARABLE, NgramParams(dim=8, epochs=1), seed=2)
        # six distinct n-grams per text, 9,000 in all: more than the cache holds
        texts = [f"w{i}a w{i}b w{i}c" for i in range(1500)]
        for text in texts:
            assert_predicts_references(model, text)
        info = model.gram_row.cache_info()
        assert info.maxsize == NGRAM_CACHE_SIZE
        assert info.currsize <= NGRAM_CACHE_SIZE
        # the earliest n-grams were evicted: predicting them again misses
        for text in texts[:50]:
            assert_predicts_references(model, text)
        again = model.gram_row.cache_info()
        assert again.misses == info.misses + 50 * 6
        assert again.currsize <= NGRAM_CACHE_SIZE

    def test_one_text_with_more_ngrams_than_the_cache(self):
        model = train_ngram_linear(SEPARABLE, NgramParams(dim=4, epochs=1), seed=3)
        text = " ".join(f"t{i}" for i in range(NGRAM_CACHE_SIZE // 3 + 10))
        assert model.predict(text).scores == reference_ngram_scores(model, text)
        assert model.gram_row.cache_info().currsize == NGRAM_CACHE_SIZE

    def test_serving_predictions_leaves_the_model_file_unchanged(self, tmp_path):
        model = train_ngram_linear(SEPARABLE, NgramParams(dim=20, epochs=2), seed=0)
        save_model(model, tmp_path / "before.npz")
        model.predict_batch([row.text for row in SEPARABLE] + ["zqxv plorb", "a a a"])
        save_model(model, tmp_path / "after.npz")
        assert (tmp_path / "before.npz").read_bytes() == (tmp_path / "after.npz").read_bytes()
        with np.load(tmp_path / "after.npz") as data:
            assert sorted(data.files) == ["biases", "buckets", "embeddings", "meta", "weights"]


class TestRandomGuess:
    def test_deterministic(self):
        a = predict_random((0.4, 0.1, 0.5), seed=9, n=50)
        b = predict_random((0.4, 0.1, 0.5), seed=9, n=50)
        assert a == b

    def test_distribution_roughly_respected(self):
        labels = predict_random((0.4, 0.1, 0.5), seed=0, n=20_000)
        counts = Counter(labels)
        assert counts[Label.POS] / 20_000 == pytest.approx(0.4, abs=0.02)
        assert counts[Label.AIC] / 20_000 == pytest.approx(0.1, abs=0.02)
        assert counts[Label.NEG] / 20_000 == pytest.approx(0.5, abs=0.02)

    def test_must_sum_to_one(self):
        with pytest.raises(ValueError):
            predict_random((0.5, 0.5, 0.5), seed=0, n=10)

    def test_fit_reproduces_train_distribution(self):
        model = fit_random_guess(SEPARABLE, seed=1)
        assert model.distribution == pytest.approx((1 / 3, 1 / 3, 1 / 3))
        preds = model.predict_batch(["x"] * 10)
        assert all(p.scores in {(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)} for p in preds)


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
        assert loaded.params == model.params

    def test_bowlr_file_with_sgd_schedule_loads(self, tmp_path, queries):
        model = train_bow_lr(SEPARABLE)
        save_model(model, tmp_path / "new.npz")
        with np.load(tmp_path / "new.npz") as data:
            arrays = {key: data[key] for key in data.files}
        meta = json.loads(str(arrays.pop("meta")))
        # the params an SGD-trained BoW-LR file carries
        meta["params"] = {"learning_rate": 2.0, "l2": 1e-4, "epochs": 300, "batch_size": 32}
        np.savez(tmp_path / "old.npz", meta=np.asarray(json.dumps(meta)), **arrays)
        loaded = load_model(tmp_path / "old.npz")
        assert loaded.params == BowLrParams(l2=1e-4)
        before = model.predict_batch(queries)
        assert [p.scores for p in loaded.predict_batch(queries)] == [p.scores for p in before]

    def test_ir_roundtrip_bit_exact(self, tmp_path, queries):
        model = fit_ir(SEPARABLE)
        loaded = self._roundtrip(model, tmp_path, queries)
        np.testing.assert_array_equal(model.matrix, loaded.matrix)
        np.testing.assert_array_equal(model.labels, loaded.labels)
        np.testing.assert_array_equal(model.row_sq, loaded.row_sq)

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
        assert set(model.embeddings) == set(loaded.embeddings)
        for bucket, row in model.embeddings.items():
            np.testing.assert_array_equal(row, loaded.embeddings[bucket])

    def test_random_roundtrip(self, tmp_path, queries):
        model = fit_random_guess(SEPARABLE, seed=4)
        loaded = self._roundtrip(model, tmp_path, queries)
        assert loaded.distribution == model.distribution
        assert loaded.seed == model.seed

    def test_unknown_model_type_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            save_model(object(), tmp_path / "bad.npz")
