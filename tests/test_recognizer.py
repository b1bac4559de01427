import ast
from pathlib import Path

import pytest

import ruaguard.features
import ruaguard.text
from ruaguard.dataset import Label
from ruaguard.grammar import parse_grammar
from ruaguard.recognizer import (
    RecognizerModel,
    load_recognizer,
    normalize,
    split_sentences,
)


class TestNormalize:
    def test_lowercase_collapse_trim(self):
        assert normalize("  Are  You a\tROBOT ?\n") == "are you a robot ?"

    def test_whitespace_only_gives_empty_text(self):
        assert normalize(" \t\n ") == ""
        assert normalize("") == ""

    def test_idempotent(self):
        once = normalize("Are   you a Robot")
        assert normalize(once) == once

    def test_one_function_under_every_name(self):
        assert normalize is ruaguard.text.normalize

    def test_features_do_not_depend_on_the_recognizer(self):
        tree = ast.parse(Path(ruaguard.features.__file__).read_text(encoding="utf-8"))
        imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert "recognizer" not in imported


class TestSplitSentences:
    def test_splits_after_terminal_punctuation(self):
        assert split_sentences("a? b. c! d") == ["a?", "b.", "c!", "d"]

    def test_no_trailing_space_no_split(self):
        assert split_sentences("i waited 3.5 hours") == ["i waited 3.5 hours"]

    def test_single_sentence(self):
        assert split_sentences("are you a robot?") == ["are you a robot?"]


def _tiny_recognizer():
    pos = parse_grammar('S -> "are you a robot"\n')
    aic = parse_grammar('S -> "you sound robotic"\n')
    return RecognizerModel(pos, aic)


class TestHeuristics:
    def test_full_utterance_match(self):
        rec = _tiny_recognizer()
        assert rec.predict("Are you a ROBOT").label is Label.POS

    def test_trailing_question_mark_stripped(self):
        rec = _tiny_recognizer()
        assert rec.predict("are you a robot?").label is Label.POS
        assert rec.predict("are you a robot!").label is Label.POS
        assert rec.predict("are you a robot.").label is Label.POS

    def test_last_sentence_candidate(self):
        rec = _tiny_recognizer()
        assert rec.predict("i like pizza. are you a robot?").label is Label.POS

    def test_question_sentence_candidate_mid_text(self):
        rec = _tiny_recognizer()
        assert rec.predict("are you a robot? tell me now.").label is Label.POS

    def test_statement_mid_text_not_found_without_question_mark(self):
        rec = _tiny_recognizer()
        # POS span is neither the last sentence nor ?-terminated
        assert rec.predict("are you a robot. tell me now.").label is Label.NEG

    def test_pos_outranks_aic_regardless_of_position(self):
        rec = _tiny_recognizer()
        assert rec.predict("you sound robotic. are you a robot?").label is Label.POS
        assert rec.predict("are you a robot? you sound robotic.").label is Label.POS

    def test_aic_via_last_sentence(self):
        rec = _tiny_recognizer()
        assert rec.predict("thanks. you sound robotic.").label is Label.AIC

    def test_unmatched_text_is_negative(self):
        rec = _tiny_recognizer()
        assert rec.predict("do you like pizza?").label is Label.NEG

    def test_empty_input_is_negative(self):
        rec = _tiny_recognizer()
        assert rec.predict("   ").label is Label.NEG
        assert rec.predict("").label is Label.NEG


class TestPredictions:
    def test_predict_returns_one_hot(self):
        rec = _tiny_recognizer()
        pred = rec.predict("are you a robot?")
        assert pred.label is Label.POS
        assert pred.scores == (1.0, 0.0, 0.0)

    def test_predict_batch_preserves_order(self):
        rec = _tiny_recognizer()
        texts = ["are you a robot", "you sound robotic", "hello there"]
        labels = [p.label for p in rec.predict_batch(texts)]
        assert labels == [Label.POS, Label.AIC, Label.NEG]


class TestShippedGrammars:
    @pytest.mark.parametrize(
        "text,label",
        [
            ("are you a robot?", Label.POS),
            ("are you a nice person", Label.POS),
            ("r u a chatbot", Label.POS),
            ("please tell me you are a guy", Label.POS),
            ("are you sure you're a human not a robot", Label.POS),
            ("human or robot, which are you?", Label.POS),
            ("wait. are you a robot", Label.POS),
            ("ok i hear you. are you a robot?", Label.POS),
            ("are you a nice robot", Label.AIC),
            ("are you a talking robot?", Label.AIC),
            ("you sound robotic", Label.AIC),
            ("is there a real person there", Label.AIC),
            ("can i talk to a real person", Label.AIC),
            ("if you are human, tell me your shoe size", Label.AIC),
            ("are we the same person", Label.AIC),
            ("are you a doctor?", Label.NEG),
            ("do you like robots", Label.NEG),
            ("are you a boy robot or a girl robot?", Label.NEG),
            ("you sound like her", Label.NEG),
            ("yes, i am a people person. do you?", Label.NEG),
            ("how is the weather in tokyo", Label.NEG),
        ],
    )
    def test_reference_utterances(self, data_dir, text, label):
        rec = load_recognizer(str(data_dir / "pos.cfg"), str(data_dir / "aic.cfg"))
        assert rec.predict(text).label is label
