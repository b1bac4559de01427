import json

import pytest

from ruaguard.dataset import Label, LabeledUtterance, one_hot_prediction
from ruaguard.errors import InvalidInputError, RuaGuardError
from ruaguard import features
from ruaguard.evaluation import (
    evaluate,
    format_mined_candidates,
    format_report,
    geometric_mean,
    mine_negatives,
    mined_to_rows,
    probe_recall,
    report_audit_json,
)
from ruaguard.features import fit_tfidf, vectorize_many


class MappedModel:
    """Predicts a fixed label per text; anything unmapped is negative."""

    def __init__(self, mapping):
        self.mapping = mapping

    def predict(self, text):
        return one_hot_prediction(text, self.mapping.get(text, Label.NEG))

    def predict_batch(self, texts):
        return [self.predict(text) for text in texts]


def _preds(labels):
    return [one_hot_prediction(f"t{i}", lab) for i, lab in enumerate(labels)]


P, A, N = Label.POS, Label.AIC, Label.NEG


def _report(predicted, gold):
    """``evaluate`` on rows labelled ``gold`` by a model that predicts ``predicted``."""
    model = type("Fixed", (), {"predict_batch": staticmethod(lambda texts: _preds(predicted))})()
    return evaluate(model, [LabeledUtterance(f"t{i}", label) for i, label in enumerate(gold)])


class TestWeightedPrecision:
    def test_partial_credit_for_ambiguous(self):
        # 8 positive predictions: 6 true positives, 1 gold-a, 1 gold-n
        report = _report([P] * 8 + [N, N], [P, P, P, P, P, P, A, N, P, N])
        assert report.p_w == pytest.approx(0.78125, abs=1e-12)

    def test_perfect(self):
        assert _report([P, P, N, A], [P, P, N, A]).p_w == 1.0

    def test_single_ambiguous_hit(self):
        # the gold-p row, predicted n, gives recall a denominator and leaves
        # one positive prediction: the gold-a row's partial credit
        assert _report([P, N], [A, P]).p_w == 0.25

    def test_vacuous_is_flagged_and_one(self):
        report = _report([N, A, N], [P, P, N])
        assert report.vacuous_precision
        assert report.p_w == 1.0

    def test_length_mismatch(self):
        with pytest.raises(RuaGuardError, match="^1 predictions vs 2 gold labels$"):
            _report([P], [P, N])

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError, match="^no evaluation rows$"):
            _report([], [])


class TestRecall:
    def test_fraction_of_gold_positives(self):
        assert _report([P, P, P, N, N], [P, P, P, P, N]).r == 0.75

    def test_no_gold_positives_is_an_error(self):
        with pytest.raises(
            InvalidInputError, match="^no gold-positive examples; recall undefined$"
        ):
            _report([N, N], [N, A])

    def test_length_mismatch(self):
        with pytest.raises(RuaGuardError, match="^1 predictions vs 2 gold labels$"):
            _report([P], [P, P])


class TestGeometricMean:
    def test_cube_root_of_product(self):
        assert geometric_mean(0.8, 0.8, 0.8) == pytest.approx(0.8, abs=1e-12)
        assert geometric_mean(1.0, 1.0, 1.0) == 1.0
        assert geometric_mean(0.5, 0.0, 1.0) == 0.0

    def test_reference_row(self):
        # 98.5 / 94.6 / 95.5 summarize to 96.2
        m = geometric_mean(0.985, 0.946, 0.955)
        assert round(m * 100, 1) == 96.2


class TestEvaluate:
    def _hand_case(self):
        rows = (
            [LabeledUtterance(f"p{i}", P) for i in range(4)]
            + [LabeledUtterance(f"a{i}", A) for i in range(2)]
            + [LabeledUtterance(f"n{i}", N) for i in range(4)]
        )
        mapping = {
            "p0": P, "p1": P, "p2": P, "p3": N,
            "a0": P, "a1": A,
            "n0": N, "n1": N, "n2": N, "n3": N,
        }
        return rows, MappedModel(mapping)

    def test_hand_confusion(self):
        rows, model = self._hand_case()
        report = evaluate(model, rows)
        assert report.confusion == ((3, 0, 1), (1, 1, 0), (0, 0, 4))
        assert report.p_w == pytest.approx(0.8125, abs=1e-12)
        assert report.r == pytest.approx(0.75, abs=1e-12)
        assert report.acc == pytest.approx(0.8, abs=1e-12)
        assert report.m == pytest.approx((0.8125 * 0.75 * 0.8) ** (1 / 3), abs=1e-12)
        assert report.n == 10
        assert not report.vacuous_precision

    def test_prediction_count_mismatch_rejected(self):
        short = type("Short", (), {"predict_batch": staticmethod(lambda texts: _preds([P]))})()
        with pytest.raises(RuaGuardError, match="^1 predictions vs 2 gold labels$") as err:
            evaluate(short, [LabeledUtterance("x", P), LabeledUtterance("y", N)])
        # a fault in the model, not in the data: no input error
        assert type(err.value) is RuaGuardError

    def test_vacuous_precision_flagged(self):
        rows = [LabeledUtterance("x", P), LabeledUtterance("y", N)]
        report = evaluate(MappedModel({}), rows)
        assert report.vacuous_precision
        assert report.p_w == 1.0
        assert report.r == 0.0

    def test_empty_data_rejected(self):
        with pytest.raises(InvalidInputError, match="^no evaluation rows$"):
            evaluate(MappedModel({}), [])

    def test_no_gold_positives_rejected(self):
        rows = [LabeledUtterance("x", N), LabeledUtterance("y", A)]
        with pytest.raises(
            InvalidInputError, match="^no gold-positive examples; recall undefined$"
        ):
            evaluate(MappedModel({}), rows)


class TestFormatting:
    def test_report_table(self):
        rows, model = TestEvaluate()._hand_case()
        report = evaluate(model, rows)
        assert format_report(report) == "P_w\tR\tAcc\tM\n81.2\t75.0\t80.0\t78.7\n"

    def test_audit_json(self):
        rows, model = TestEvaluate()._hand_case()
        report = evaluate(model, rows)
        payload = json.loads(report_audit_json(report, split="test"))
        assert payload["Acc"] == pytest.approx(0.8)
        assert payload["n"] == 10
        assert payload["confusion"][0] == [3, 0, 1]
        assert payload["class_order"] == ["p", "a", "n"]
        assert payload["split"] == "test"
        assert payload["vacuous_precision"] is False


class TestProbeRecall:
    def test_fraction_and_verdicts(self):
        model = MappedModel({"hit one": P, "hit two": P})
        probes = ["hit one", "miss", "hit two", "also miss"]
        report = probe_recall(model, probes)
        assert report.fraction == 0.5
        assert [v[0] for v in report.verdicts] == probes
        assert [v[2] for v in report.verdicts] == [True, False, True, False]
        assert report.verdicts[1][1] == "n"

    def test_empty_probes_rejected(self):
        with pytest.raises(ValueError):
            probe_recall(MappedModel({}), [])


CORPUS = [
    "are you a robot friend",
    "do you like pizza",
    "totally unrelated words here",
    "zebra xylophone",
]
POSITIVES = ["are you a robot"]


class TestMining:
    def test_weighted_is_deterministic(self):
        a = mine_negatives(CORPUS, POSITIVES, n=2, seed=11)
        b = mine_negatives(CORPUS, POSITIVES, n=2, seed=11)
        assert a.utterances == b.utterances
        assert a.method == "tfidf_weighted"

    def test_zero_score_lines_never_selected(self):
        mined = mine_negatives(CORPUS, POSITIVES, n=2, seed=0)
        texts = {text for text, _, _ in mined.utterances}
        assert texts == {"are you a robot friend", "do you like pizza"}
        for _, _, score in mined.utterances:
            assert score > 0

    def test_not_enough_scorable_lines(self):
        with pytest.raises(
            InvalidInputError, match="^only 2 candidates available for 3 requested$"
        ):
            mine_negatives(CORPUS, POSITIVES, n=3, seed=0)

    def test_request_beyond_corpus(self):
        with pytest.raises(
            InvalidInputError, match="^only 4 candidates available for 10 requested$"
        ):
            mine_negatives(CORPUS, POSITIVES, n=10, seed=0)

    def test_similar_lines_win_more_often(self):
        # exact duplicate of the positive (cosine 1.0) vs one shared token
        corpus = ["are you a robot", "pizza you"]
        wins = 0
        for seed in range(300):
            mined = mine_negatives(corpus, POSITIVES, n=1, seed=seed)
            if mined.utterances[0][0] == corpus[0]:
                wins += 1
        assert wins > 0.70 * 300

    def test_random_method(self):
        mined = mine_negatives(CORPUS, [], n=3, method="random", seed=5)
        assert mined.method == "random"
        assert len(mined.utterances) == 3
        assert len({text for text, _, _ in mined.utterances}) == 3
        for text, source, score in mined.utterances:
            assert text in CORPUS
            assert source == "corpus"
            assert score is None
        again = mine_negatives(CORPUS, [], n=3, method="random", seed=5)
        assert again.utterances == mined.utterances

    def test_blocked_scoring_matches_one_product(self, monkeypatch):
        words = "are you a robot human real person bot pizza like do".split()
        corpus = [" ".join(words[i % 11 : i % 11 + 1 + i % 4]) + f" w{i}" for i in range(40)]
        # the last 7 lines share no token with the positives: in blocks of
        # seven, the last block (42 to 46) shares no column with them
        corpus += ["pizza bot", "like pizza", "do bot", "bot w1", "like do", "pizza", "bot bot"]
        positives = ["are you a robot", "are you human", "is this a real person"]
        vocab = fit_tfidf(corpus + positives)
        whole = (vectorize_many(vocab, corpus) @ vectorize_many(vocab, positives).T).max(axis=1)
        assert (whole[40:] == 0.0).all()
        scorable = int((whole > 0.0).sum())
        unblocked = mine_negatives(corpus, positives, n=10, seed=3)
        # blocks of one, two and seven corpus rows, the last block short
        for entries in (1, 2 * len(positives), 7 * len(positives) + 2):
            monkeypatch.setattr(features, "BLOCK_ENTRIES", entries)
            mined = mine_negatives(corpus, positives, n=10, seed=3)
            assert [t for t, _, _ in mined.utterances] == [t for t, _, _ in unblocked.utterances]
            for text, _, score in mined.utterances:
                assert abs(score - whole[corpus.index(text)]) <= 1e-12
            # every line with a score past 0 is mined before any of the last 7,
            # and one more is refused: the last 7 all scored exactly 0
            everything = mine_negatives(corpus, positives, n=scorable, seed=3)
            assert not {t for t, _, _ in everything.utterances} & set(corpus[40:])
            refused = f"^only {scorable} candidates available for {scorable + 1} requested$"
            with pytest.raises(InvalidInputError, match=refused):
                mine_negatives(corpus, positives, n=scorable + 1, seed=3)

    def test_validation(self):
        with pytest.raises(InvalidInputError, match="^mining corpus is empty$"):
            mine_negatives([], POSITIVES, n=1)
        with pytest.raises(ValueError):
            mine_negatives(CORPUS, POSITIVES, n=0)
        with pytest.raises(ValueError):
            mine_negatives(CORPUS, POSITIVES, n=1, method="bogus")
        with pytest.raises(InvalidInputError, match="^no positive examples to weight against$"):
            mine_negatives(CORPUS, [], n=1, method="tfidf_weighted")

    def test_candidates_table(self):
        mined = mine_negatives(CORPUS, POSITIVES, n=2, seed=0, corpus_name="chat")
        table = format_mined_candidates(mined)
        lines = table.splitlines()
        assert lines[0] == "text\tscore\tsource"
        assert len(lines) == 3
        for line in lines[1:]:
            text, score, source = line.split("\t")
            assert source == "chat"
            assert float(score) > 0

    def test_random_candidates_have_blank_scores(self):
        mined = mine_negatives(CORPUS, [], n=2, method="random", seed=1)
        for line in format_mined_candidates(mined).splitlines()[1:]:
            assert line.split("\t")[1] == ""

    def test_reviewed_rows(self):
        mined = mine_negatives(CORPUS, POSITIVES, n=2, seed=0, corpus_name="chat")
        rows = mined_to_rows(mined, split="train")
        assert all(row.label is Label.NEG for row in rows)
        assert all(row.split == "train" for row in rows)
        assert all(row.source == "chat" for row in rows)
        assert [row.text for row in rows] == [t for t, _, _ in mined.utterances]
