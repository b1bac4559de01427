import ast
import io
import json
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ruaguard.features
import ruaguard.text
from ruaguard import grammar
from ruaguard.cli import main
from ruaguard.dataset import Label
from ruaguard.errors import GrammarError
from ruaguard.grammar import (
    ENUMERATION_BUDGET,
    count_derivations,
    enumerate_strings,
    language,
    load_grammar,
    parse_grammar,
)
from ruaguard.matching import member
from ruaguard.recognizer import (
    RecognizerModel,
    _candidates,
    normalize,
    split_sentences,
)
from test_grammar import deep_grammars, small_grammars
from test_matching import chain


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
        rec = RecognizerModel(
            load_grammar(str(data_dir / "pos.cfg")), load_grammar(str(data_dir / "aic.cfg"))
        )
        assert rec.predict(text).label is label


def _membership_label(text, pos_language, aic_language):
    """p over a over n, by membership of any candidate span in a language."""
    norm = normalize(text)
    candidates = _candidates(norm) if norm else []
    if any(c in pos_language for c in candidates):
        return Label.POS
    if any(c in aic_language for c in candidates):
        return Label.AIC
    return Label.NEG


def _mutants(text):
    """``text`` with one character inserted, replaced or deleted, each way."""
    out = []
    for i in range(len(text) + 1):
        out.extend(text[:i] + c + text[i:] for c in "ab .")
        if i < len(text):
            out.append(text[:i] + text[i + 1:])
            out.extend(text[:i] + c + text[i + 1:] for c in "ab .")
    return out


@st.composite
def _batch_inputs(draw):
    """Two small grammars and texts from their languages, one-character
    mutants of those, lead-in variants and blanks."""
    pos, aic = draw(small_grammars()), draw(small_grammars())
    language = sorted(set(enumerate_strings(pos)) | set(enumerate_strings(aic)))
    members = draw(st.lists(st.sampled_from(language), max_size=6))
    texts = list(members) + ["", " ", "\t"]
    for text in members:
        texts.extend(draw(st.lists(st.sampled_from(_mutants(text)), max_size=4)))
        lead = draw(st.sampled_from(["ab", "b", "hello"]))
        texts.extend([f"{lead}. {text}", f"{text}? {lead}.", f"{lead}! {text}?", text.upper()])
    return pos, aic, texts


class _EnumerationCount:
    """``grammar.enumerate_strings``, counting its calls."""

    def __init__(self, patch):
        self.calls = 0
        patch.setattr(grammar, "enumerate_strings", self)

    def __call__(self, g):
        self.calls += 1
        return enumerate_strings(g)


def _forced(patch, side):
    """Force ``predict_batch`` to the languages or the search side."""
    budget = {"languages": ENUMERATION_BUDGET, "search": 0}[side]
    patch.setattr(grammar, "ENUMERATION_BUDGET", budget)


class TestBatchLabels:
    @given(_batch_inputs(), st.sampled_from(["languages", "search"]))
    @settings(max_examples=50, deadline=None)
    def test_a_batch_labels_each_text_as_predict_and_the_languages_do(self, inputs, side):
        pos, aic, texts = inputs
        model = RecognizerModel(pos, aic)
        pos_language, aic_language = set(enumerate_strings(pos)), set(enumerate_strings(aic))
        with pytest.MonkeyPatch.context() as patch:
            _forced(patch, side)
            counted = _EnumerationCount(patch)
            batch = model.predict_batch(texts)
        assert counted.calls == (2 if side == "languages" else 0)
        assert batch == [model.predict(text) for text in texts]
        assert [p.label for p in batch] == [
            _membership_label(text, pos_language, aic_language) for text in texts
        ]

    @given(deep_grammars())
    @settings(max_examples=5, deadline=None)
    def test_the_table_labels_a_grammar_too_deep_for_the_matcher(self, g):
        held = language(g)
        assume(held is not None)
        members = sorted(held)[:: max(1, len(held) // 8)]
        texts = members + [text + "b" for text in members] + ["a" * len(g.rules)]
        aic = parse_grammar('S -> "c" | "you sound robotic"\n')
        labels = [p.label for p in RecognizerModel(g, aic).predict_batch(texts)]
        assert labels == [_membership_label(t, held, {"c", "you sound robotic"}) for t in texts]

    def test_a_batch_labels_a_chain_the_matcher_refuses(self):
        model = RecognizerModel(chain(1500), parse_grammar('S -> "you sound robotic"\n'))
        text = "a" * 1500 + "b"
        with pytest.raises(GrammarError, match="nests too deeply"):
            member(model.pos_grammar, text)
        with pytest.raises(GrammarError, match="nests too deeply"):
            model.predict(text)
        texts = [text, text[:-1] + "c", "you sound robotic"] * 20
        labels = [p.label for p in model.predict_batch(texts)]
        assert labels == [Label.POS, Label.NEG, Label.AIC] * 20

    def test_a_batch_of_one_text_reads_both_languages_once(self, data_dir, monkeypatch):
        model = RecognizerModel(
            load_grammar(str(data_dir / "pos.cfg")), load_grammar(str(data_dir / "aic.cfg"))
        )
        counted = _EnumerationCount(monkeypatch)
        assert model.predict_batch(["are you a robot?"]) == [model.predict("are you a robot?")]
        assert counted.calls == 2

    @pytest.mark.parametrize("source", [
        # one derivation of 2**23 characters, 16,777,239 to enumerate
        "".join(f"R{i} -> R{i + 1} R{i + 1}\n" for i in range(23)) + 'R23 -> "a"\n',
        # 2**23 derivations of 23 characters
        "".join(f'R{i} -> "a" R{i + 1} | "b" R{i + 1}\n' for i in range(22)) + 'R22 -> "a" | "b"\n',
        # one derivation, but 6,001 strings of up to 6,001 characters to build
        "".join(f'R{i} -> "a" R{i + 1}\n' for i in range(6000)) + 'R6000 -> "b"\n',
    ], ids=["doubling_chain", "product", "long_chain"])
    def test_a_grammar_past_the_budget_is_searched(self, source):
        g = parse_grammar(source)
        assert count_derivations(g) in (1, 2**23)
        assert language(g) is None
        model = RecognizerModel(g, parse_grammar('S -> "you sound robotic"\n'))

        def refuse(_):
            raise AssertionError("enumerated a grammar past the budget")

        texts = ["aa", "ab" * 12, "you sound robotic", "  "]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(grammar, "enumerate_strings", refuse)
            labels = [p.label for p in model.predict_batch(texts * 100)]
        assert labels == [Label.NEG, Label.NEG, Label.AIC, Label.NEG] * 100

    def test_probe_labels_by_the_table_as_guard_labels_by_the_search(
        self, tmp_path, capsys, monkeypatch
    ):
        out = tmp_path / "probes.jsonl"
        counted = _EnumerationCount(monkeypatch)
        assert main(["probe", "--probes", "probes.txt", "--out", str(out)]) == 0
        assert counted.calls == 2
        verdicts = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        capsys.readouterr()
        texts = [v["text"] for v in verdicts]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(texts) + "\n"))
        assert main(["guard"]) == 0
        assert counted.calls == 2
        decisions = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [(d["text"], d["label"]) for d in decisions] == [
            (v["text"], v["label"]) for v in verdicts
        ]
