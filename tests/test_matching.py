import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruaguard.errors import GrammarError
from ruaguard.generation import sample
from ruaguard.grammar import enumerate_strings, load_grammar, parse_grammar, serialize_grammar
from ruaguard.matching import member

from test_grammar import small_grammars


class TestToyMembership:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("are you a robot", True),
            ("am i talking to a real person", True),
            ("are you a doctor", False),
            ("are you a robot?", False),
            ("", False),
            ("are you a", False),
            ("are you a robott", False),
        ],
    )
    def test_examples(self, toy, text, expected):
        assert member(toy, text) is expected

    def test_full_language_accepted(self, toy):
        for s in enumerate_strings(toy):
            assert member(toy, s)


class TestEdgeGrammars:
    def test_epsilon_language(self):
        g = parse_grammar('S -> ""\n')
        assert member(g, "")
        assert not member(g, "a")

    def test_ambiguous_concatenation(self):
        g = parse_grammar('S -> A A\nA -> "a" | "aa"\n')
        accepted = {s for s in ("a", "aa", "aaa", "aaaa", "aaaaa") if member(g, s)}
        assert accepted == {"aa", "aaa", "aaaa"}

    def test_shared_prefix_backtracking(self):
        g = parse_grammar('S -> "ab" "c" | "a" "bd"\n')
        assert member(g, "abc")
        assert member(g, "abd")
        assert not member(g, "abcd")

    def test_multibyte_text(self):
        g = parse_grammar('S -> "café" | "naïve bot"\n')
        assert member(g, "café")
        assert member(g, "naïve bot")
        assert not member(g, "cafe")


def chain(depth):
    """A grammar of ``depth + 1`` rules, each ``"a" R<i+1>`` until a last ``"b"``."""
    return parse_grammar(
        "".join(f'R{i} -> "a" R{i + 1}\n' for i in range(depth)) + f'R{depth} -> "b"\n'
    )


class TestDeepGrammars:
    def test_nested_past_the_recursion_limit_is_a_grammar_error(self):
        with pytest.raises(GrammarError, match="^grammar nests too deeply for the matcher$"):
            member(chain(1500), "a" * 1500 + "b")

    def test_the_error_names_the_file_the_grammar_was_loaded_from(self, tmp_path):
        path = tmp_path / "chain.cfg"
        path.write_text(serialize_grammar(chain(1500)), encoding="utf-8")
        with pytest.raises(GrammarError) as err:
            member(load_grammar(path), "a" * 1500 + "b")
        assert str(err.value) == f"{path}: grammar nests too deeply for the matcher"

    def test_a_shallower_chain_still_decides(self):
        g = chain(500)
        assert member(g, "a" * 500 + "b")
        assert not member(g, "a" * 500 + "c")


class TestMatcher:
    def test_lowered_form_is_built_once_per_grammar_object(self):
        g = parse_grammar('S -> "are you a " N\nN -> "robot" | 2: "bot"\n')
        assert "_lowered" not in vars(g)
        assert member(g, "are you a bot")
        lowered = vars(g)["_lowered"]
        sample(g, 2, seed=0)
        assert not member(g, "are you a")
        assert g._lowered is lowered
        assert parse_grammar(serialize_grammar(g))._lowered is not lowered

    def test_language_and_mutations_agree_with_enumeration(self, aic):
        strings = enumerate_strings(aic)
        language = set(strings)
        for s in strings[:500]:
            assert member(aic, s)
            for mutated in (s[:-1], s + " x", s.replace("a", "", 1)):
                assert member(aic, mutated) is (mutated in language)


class TestEnumerationAgreementProperty:
    @given(small_grammars(), st.lists(st.text(alphabet="ab", max_size=6), max_size=5))
    @settings(max_examples=80, deadline=None)
    def test_agrees_on_language_and_random_probes(self, g, probes):
        language = set(enumerate_strings(g))
        for s in list(language)[:64]:
            assert member(g, s)
        for probe in probes:
            assert member(g, probe) is (probe in language)


class TestSampledMembership:
    def test_samples_are_members(self, pos):
        batch = sample(pos, 300, seed=99)
        for text in batch.utterances:
            assert member(pos, text)
