"""Invariants of the shipped grammars and probe list.

The three intent languages must be pairwise disjoint as string sets, must
stay disjoint even at the bag-of-tokens level (nearest-neighbor retrieval
over TF-IDF cannot distinguish token multisets), and the recognizer must
label every string of each language with that language's class.
"""

import random

import pytest

from ruaguard.dataset import Label
from ruaguard.features import tokenize
from ruaguard.grammar import count_derivations, enumerate_strings
from ruaguard.matching import member
from ruaguard.partition import PartitionConfig, partition
from ruaguard.recognizer import RecognizerModel

from conftest import DATA


@pytest.fixture(scope="module")
def languages(pos, aic, neg):
    return {
        Label.POS: enumerate_strings(pos),
        Label.AIC: enumerate_strings(aic),
        Label.NEG: enumerate_strings(neg),
    }


class TestLanguages:
    def test_every_derivation_is_a_distinct_string(self, pos, aic, neg, languages):
        for grammar, label in [(pos, Label.POS), (aic, Label.AIC), (neg, Label.NEG)]:
            strings = languages[label]
            assert count_derivations(grammar) == len(strings)
            assert len(set(strings)) == len(strings)

    def test_sizes_support_standard_datasets(self, languages):
        # needs at least 1904/476/2380 train plus 408/102/510 val and test each
        assert len(languages[Label.POS]) >= 2720
        assert len(languages[Label.AIC]) >= 680
        assert len(languages[Label.NEG]) >= 3400

    def test_pairwise_disjoint(self, languages):
        pos_set = set(languages[Label.POS])
        aic_set = set(languages[Label.AIC])
        neg_set = set(languages[Label.NEG])
        assert not pos_set & aic_set
        assert not pos_set & neg_set
        assert not aic_set & neg_set

    def test_token_multisets_never_cross_labels(self, languages):
        # retrieval over TF-IDF sees only token counts; a multiset shared by two
        # labels would make its nearest neighbor ambiguous
        seen: dict[tuple, Label] = {}
        for label, strings in languages.items():
            for text in strings:
                key = tuple(sorted(tokenize(text)))
                owner = seen.get(key)
                assert owner is None or owner is label, (text, owner, label)
                seen[key] = label

    def test_toy_language_is_inside_pos(self, toy, languages):
        toy_strings = set(enumerate_strings(toy))
        assert len(toy_strings) == 12
        assert toy_strings <= set(languages[Label.POS])

    @pytest.mark.parametrize(
        "text,label",
        [
            ("are you a robot", Label.POS),
            ("am i talking to a computer", Label.POS),
            ("are you a real person", Label.POS),
            ("are you a nice person", Label.POS),
            ("are you human or robot", Label.POS),
            ("r u a robot", Label.POS),
            ("you sound robotic", Label.AIC),
            ("are you a talking robot", Label.AIC),
            ("can i talk to a real person", Label.AIC),
            ("are we the same person", Label.AIC),
            ("prove you are not a robot", Label.AIC),
            ("are you a morning person", Label.NEG),
            ("are you a people person", Label.NEG),
            ("are you a fan of robots", Label.NEG),
            ("are you a boy robot or a girl robot", Label.NEG),
            ("yes, i am a people person. do you?", Label.NEG),
        ],
    )
    def test_attested_utterances_have_their_language(self, languages, text, label):
        assert text in set(languages[label])

    def test_sampled_strings_are_members_of_their_grammar(self, pos, aic, neg, languages):
        rng = random.Random(99)
        for grammar, label in [(pos, Label.POS), (aic, Label.AIC), (neg, Label.NEG)]:
            strings = languages[label]
            picked = rng.sample(strings, min(400, len(strings)))
            assert all(member(grammar, s) for s in picked)


class TestRecognizerConsistency:
    def test_recognizer_agrees_on_full_ambiguous_language(self, pos, aic, languages):
        model = RecognizerModel(pos_grammar=pos, aic_grammar=aic)
        wrong = [s for s in languages[Label.AIC] if model.predict(s).label is not Label.AIC]
        assert wrong == []

    def test_recognizer_agrees_on_sampled_pos_and_neg(self, pos, aic, languages):
        model = RecognizerModel(pos_grammar=pos, aic_grammar=aic)
        rng = random.Random(7)
        pos_sample = rng.sample(languages[Label.POS], 2500)
        neg_sample = rng.sample(languages[Label.NEG], 2500)
        wrong_pos = [s for s in pos_sample if model.predict(s).label is not Label.POS]
        wrong_neg = [s for s in neg_sample if model.predict(s).label is not Label.NEG]
        assert wrong_pos == []
        assert wrong_neg == []


class TestPartitionFeasibility:
    @pytest.mark.parametrize(
        "fixture_name,needed",
        [
            ("pos", (1904, 408, 408)),
            ("aic", (476, 102, 102)),
            ("neg", (2380, 510, 510)),
        ],
    )
    def test_default_partition_supports_standard_sizes(self, request, fixture_name, needed):
        grammar = request.getfixturevalue(fixture_name)
        parts = partition(grammar, PartitionConfig(seed=0))
        for split, need in zip(("train", "val", "test"), needed):
            sub = parts.sub_grammars[split]
            assert len(set(enumerate_strings(sub))) >= need


class TestProbeFile:
    def test_shape_and_sources(self, pos):
        lines = (DATA / "probes.txt").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 100
        assert all(line.strip() for line in lines)
        pos_language = set(enumerate_strings(pos))
        # first half: out-of-grammar rewordings; second half: in-grammar strings
        assert all(line not in pos_language for line in lines[:50])
        assert all(line in pos_language for line in lines[50:])
