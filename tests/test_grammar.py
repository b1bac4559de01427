import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruaguard.errors import (
    CycleDetectedError,
    DuplicateRuleError,
    GrammarError,
    GrammarSyntaxError,
    UndefinedNonTerminalError,
)
from ruaguard.generation import sample
from ruaguard.grammar import (
    Alternative,
    Grammar,
    NonTerminalRef,
    Rule,
    Terminal,
    count_derivations,
    enumerate_strings,
    grammar_fingerprint,
    normalized_weights,
    parse_grammar,
    serialize_grammar,
)

TOY_STRINGS = {
    prefix + noun
    for prefix in ("are you a ", "am i talking to a ")
    for noun in ("robot", "chatbot", "computer", "human", "person", "real person")
}


class TestToyGrammar:
    def test_count_is_twelve(self, toy):
        assert count_derivations(toy) == 12

    def test_enumeration_matches_hand_list(self, toy):
        strings = enumerate_strings(toy)
        assert len(strings) == 12
        assert set(strings) == TOY_STRINGS

    def test_start_symbol_is_first_rule(self, toy):
        assert toy.start_symbol == "S"


class TestParsing:
    def test_weight_prefix(self):
        g = parse_grammar('S -> 2: "a" | "b"\n')
        assert [a.weight for a in g.rules["S"].alternatives] == [2.0, 1.0]
        assert normalized_weights(g.rules["S"]) == [2 / 3, 1 / 3]

    def test_scientific_and_decimal_weights(self):
        g = parse_grammar('S -> 2.5: "a" | 1e2: "b"\n')
        assert [a.weight for a in g.rules["S"].alternatives] == [2.5, 100.0]

    def test_adjacent_terminals_concatenate_without_space(self):
        g = parse_grammar('S -> "foo" "bar"\n')
        assert enumerate_strings(g) == ["foobar"]

    def test_escapes(self):
        g = parse_grammar('S -> "a\\nb\\t\\"\\\\"\n')
        assert enumerate_strings(g) == ['a\nb\t"\\']

    def test_unknown_escape_rejected(self):
        with pytest.raises(GrammarSyntaxError):
            parse_grammar('S -> "a\\qb"\n')

    def test_epsilon_terminal(self):
        g = parse_grammar('S -> "" | "x"\n')
        assert sorted(enumerate_strings(g)) == ["", "x"]

    def test_comment_hash_inside_string_is_literal(self):
        g = parse_grammar('S -> "a#b"  # trailing comment\n')
        assert enumerate_strings(g) == ["a#b"]

    def test_trailing_bar_continues_logical_line(self):
        g = parse_grammar('S -> "a" |\n     "b"\n')
        assert sorted(enumerate_strings(g)) == ["a", "b"]

    def test_split_annotations(self):
        g = parse_grammar('S @nosplit -> A | "x"\nA @split -> "y" | "z"\n')
        assert g.rules["S"].splittable == "never"
        assert g.rules["A"].splittable == "always"

    def test_duplicate_rule(self):
        with pytest.raises(DuplicateRuleError):
            parse_grammar('S -> "a"\nS -> "b"\n')

    def test_undefined_nonterminal(self):
        with pytest.raises(UndefinedNonTerminalError):
            parse_grammar('S -> Missing\n')

    def test_cycle_detected_with_path(self):
        with pytest.raises(CycleDetectedError) as err:
            parse_grammar('S -> A\nA -> B\nB -> S\n')
        assert "S" in str(err.value)

    def test_self_cycle(self):
        with pytest.raises(CycleDetectedError):
            parse_grammar('S -> "a" | S "b"\n')

    def test_missing_arrow_is_syntax_error(self):
        with pytest.raises(GrammarSyntaxError) as err:
            parse_grammar('S = "a"\n')
        assert err.value.line == 1

    def test_unterminated_string(self):
        with pytest.raises(GrammarSyntaxError):
            parse_grammar('S -> "a\n')

    def test_empty_alternative_rejected(self):
        with pytest.raises(GrammarSyntaxError):
            parse_grammar('S -> "a" | | "b"\n')

    def test_zero_weight_rejected(self):
        with pytest.raises(GrammarError):
            parse_grammar('S -> 0: "a" | "b"\n')

    def test_empty_source_rejected(self):
        with pytest.raises(GrammarError):
            parse_grammar("   \n# only comments\n")


class TestConstruction:
    def test_rules_must_be_defined(self):
        rule = Rule("S", (Alternative((NonTerminalRef("A"),)),))
        with pytest.raises(UndefinedNonTerminalError):
            Grammar(rules={"S": rule}, start_symbol="S")

    def test_nan_weight_rejected(self):
        rule = Rule("S", (Alternative((Terminal("a"),), weight=math.nan),))
        with pytest.raises(GrammarError):
            Grammar(rules={"S": rule}, start_symbol="S")

    def test_infinite_weight_rejected(self):
        rule = Rule("S", (Alternative((Terminal("a"),), weight=math.inf),))
        with pytest.raises(GrammarError):
            Grammar(rules={"S": rule}, start_symbol="S")


class TestSerialization:
    def test_round_trip_preserves_language_and_fingerprint(self, toy):
        text = serialize_grammar(toy)
        again = parse_grammar(text)
        assert grammar_fingerprint(again) == grammar_fingerprint(toy)
        assert sorted(enumerate_strings(again)) == sorted(enumerate_strings(toy))

    def test_round_trip_is_fixed_point(self, pos):
        once = serialize_grammar(pos)
        twice = serialize_grammar(parse_grammar(once))
        assert once == twice

    def test_start_rule_serialized_first(self):
        g = parse_grammar('Top -> A\nA -> "x"\n')
        assert serialize_grammar(g).splitlines()[0].startswith("Top ->")

    def test_escapes_survive_round_trip(self):
        g = parse_grammar('S -> "a\\nb" | "c\\"d"\n')
        again = parse_grammar(serialize_grammar(g))
        assert sorted(enumerate_strings(again)) == ["a\nb", 'c"d']

    def test_annotations_survive_round_trip(self):
        g = parse_grammar('S @nosplit -> "a" | "b"\n')
        assert parse_grammar(serialize_grammar(g)).rules["S"].splittable == "never"


def _layered_grammar(draw_spec):
    """Build an acyclic grammar from a nested spec of terminal/ref choices."""
    rules = {}
    names = [f"R{i}" for i in range(len(draw_spec))]
    for i, alts in enumerate(draw_spec):
        built = []
        for alt in alts:
            symbols = []
            for kind, value in alt:
                if kind == "t":
                    symbols.append(Terminal(value))
                else:
                    # references only point at strictly later rules: acyclic
                    symbols.append(NonTerminalRef(names[value]))
            built.append(Alternative(tuple(symbols)))
        rules[names[i]] = Rule(names[i], tuple(built))
    return Grammar(rules=rules, start_symbol=names[0])


@st.composite
def small_grammars(draw):
    n_rules = draw(st.integers(min_value=1, max_value=4))
    spec = []
    for i in range(n_rules):
        n_alts = draw(st.integers(min_value=1, max_value=3))
        alts = []
        for _ in range(n_alts):
            n_syms = draw(st.integers(min_value=1, max_value=3))
            symbols = []
            for _ in range(n_syms):
                if i + 1 < n_rules and draw(st.booleans()):
                    symbols.append(("r", draw(st.integers(i + 1, n_rules - 1))))
                else:
                    symbols.append(("t", draw(st.sampled_from(["a", "b", "ab", ""]))))
            alts.append(symbols)
        spec.append(alts)
    return _layered_grammar(spec)


class TestCountingProperties:
    @given(small_grammars())
    @settings(max_examples=60, deadline=None)
    def test_count_equals_enumeration_length(self, g):
        strings = enumerate_strings(g)
        assert count_derivations(g) == len(strings)
        assert len(set(strings)) <= len(strings)


class TestDeepGrammars:
    # 1,501 rules in a chain: deeper than the interpreter's recursion limit
    CHAIN = "".join(f'R{i} -> "a" R{i + 1}\n' for i in range(1500)) + 'R1500 -> "b"\n'

    def test_chain_grammar_counts_and_enumerates(self):
        g = parse_grammar(self.CHAIN)
        assert count_derivations(g) == 1
        assert enumerate_strings(g) == ["a" * 1500 + "b"]
        assert count_derivations(g, "R1499") == 1
        assert enumerate_strings(g, "R1499") == ["ab"]

    def test_chain_grammar_samples(self):
        g = parse_grammar(self.CHAIN)
        assert sample(g, 1, seed=0).utterances == ("a" * 1500 + "b",)
