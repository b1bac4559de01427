import math
import random
import re
import string

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ruaguard import grammar
from ruaguard.errors import GrammarError, InvalidInputError
from ruaguard.generation import sample
from ruaguard.grammar import (
    SPLIT_ALWAYS,
    SPLIT_AUTO,
    SPLIT_NEVER,
    Alternative,
    Grammar,
    NonTerminalRef,
    Rule,
    Terminal,
    count_derivations,
    derive_once,
    enumerate_strings,
    enumeration_size,
    language,
    load_grammar,
    normalized_weights,
    parse_grammar,
    serialize_grammar,
)
from ruaguard.hashing import fnv1a_64
from ruaguard.partition import PartitionConfig, partition

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
        with pytest.raises(GrammarError, match="unknown escape"):
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
        with pytest.raises(GrammarError, match="^rule 'S' is defined more than once$"):
            parse_grammar('S -> "a"\nS -> "b"\n')

    def test_undefined_nonterminal(self):
        with pytest.raises(
            GrammarError, match="^non-terminal 'Missing' is referenced but never defined$"
        ):
            parse_grammar('S -> Missing\n')

    def test_cycle_detected_with_path(self):
        with pytest.raises(GrammarError, match="^grammar contains a cycle: S -> A -> B -> S$"):
            parse_grammar('S -> A\nA -> B\nB -> S\n')

    def test_self_cycle(self):
        with pytest.raises(GrammarError, match="^grammar contains a cycle: S -> S$"):
            parse_grammar('S -> "a" | S "b"\n')

    def test_missing_arrow_is_syntax_error(self):
        expected = re.escape("expected 'Name [@split|@nosplit] ->'")
        with pytest.raises(GrammarError, match=expected) as err:
            parse_grammar('S = "a"\n')
        assert err.value.line == 1

    def test_unterminated_string(self):
        with pytest.raises(GrammarError, match="unterminated string literal"):
            parse_grammar('S -> "a\n')

    def test_empty_alternative_rejected(self):
        with pytest.raises(GrammarError, match="empty alternative"):
            parse_grammar('S -> "a" | | "b"\n')

    def test_zero_weight_rejected(self):
        with pytest.raises(GrammarError):
            parse_grammar('S -> 0: "a" | "b"\n')

    def test_empty_source_rejected(self):
        with pytest.raises(GrammarError):
            parse_grammar("   \n# only comments\n")

    def test_weight_only_at_the_start_of_an_alternative(self):
        with pytest.raises(GrammarError, match="unexpected '2:'"):
            parse_grammar('S -> "a" 2: "b"\n')
        with pytest.raises(GrammarError, match="unexpected '3:'"):
            parse_grammar('S -> 2: 3: "a"\n')

    def test_rule_head_inside_a_rule_rejected(self):
        with pytest.raises(GrammarError, match="unexpected 'T ->'"):
            parse_grammar('S -> "a" |\nT -> "b"\n')

    def test_blank_and_comment_lines_inside_a_continued_rule(self):
        g = parse_grammar('S -> "a" | # first\n\n   # between\n  2: "b"\nT -> "c"\n')
        assert [a.weight for a in g.rules["S"].alternatives] == [1.0, 2.0]
        assert list(g.rules) == ["S", "T"]

    def test_trailing_bar_at_end_of_source_rejected(self):
        with pytest.raises(GrammarError, match="empty alternative") as err:
            parse_grammar('S -> "a" |\n# done\n')
        assert err.value.line == 1

    @pytest.mark.parametrize(
        "source, line, col",
        [
            ('S -> "a" |\n     "b" )\n', 2, 10),
            ('   S -> "a" ?\n', 1, 13),
            ('S -> "a"\n\n  T = "b"\n', 3, 3),
            ('S -> "a\\q"\n', 1, 8),
            ('S -> "a" |\n  "b" "c\n', 2, 7),
        ],
    )
    def test_errors_give_the_physical_line_and_column(self, source, line, col):
        problem = {
            (2, 10): "unexpected character ')'",
            (1, 13): "unexpected character '?'",
            (3, 3): "expected 'Name [@split|@nosplit] ->'",
            (1, 8): "unknown escape",
            (2, 7): "unterminated string literal",
        }[line, col]
        with pytest.raises(GrammarError, match=re.escape(problem)) as err:
            parse_grammar(source)
        assert (err.value.line, err.value.col) == (line, col)

    def test_lines_end_at_line_feeds_only(self):
        g = parse_grammar('S -> "a\rb" |\r\n  "c\u2028d"\x0c\r\n')
        assert enumerate_strings(g) == ["a\rb", "c\u2028d"]

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_files_with_any_newline_convention_load(self, tmp_path, newline):
        path = tmp_path / "g.cfg"
        path.write_bytes('S -> "a" B |\n  "c"\nB -> "b"\n'.replace("\n", newline).encode())
        assert sorted(enumerate_strings(load_grammar(path))) == ["ab", "c"]


class TestConstruction:
    def test_rules_must_be_defined(self):
        rule = Rule("S", (Alternative((NonTerminalRef("A"),)),))
        with pytest.raises(
            GrammarError, match="^non-terminal 'A' is referenced but never defined$"
        ):
            Grammar(rules={"S": rule}, start_symbol="S")

    def test_nan_weight_rejected(self):
        rule = Rule("S", (Alternative((Terminal("a"),), weight=math.nan),))
        with pytest.raises(GrammarError):
            Grammar(rules={"S": rule}, start_symbol="S")

    def test_infinite_weight_rejected(self):
        rule = Rule("S", (Alternative((Terminal("a"),), weight=math.inf),))
        with pytest.raises(GrammarError):
            Grammar(rules={"S": rule}, start_symbol="S")

    @pytest.mark.parametrize("rules, start, message", [
        ({}, "S", "grammar defines no rules"),
        ({"S": Rule("S", (Alternative((Terminal("a"),)),))}, "T",
         "non-terminal 'T' is referenced but never defined"),
        ({"T": Rule("S", (Alternative((Terminal("a"),)),))}, "T",
         "rule 'S' stored under key 'T'"),
        ({"S": Rule("S", (Alternative((Terminal("a"),)),), splittable="sometimes")}, "S",
         "rule 'S' has invalid splittable state 'sometimes'"),
        ({"S": Rule("S", ())}, "S", "rule 'S' has no alternatives"),
        ({"S": Rule("S", (Alternative(()),))}, "S",
         "rule 'S' has an alternative with no symbols"),
    ], ids=["no_rules", "undefined_start", "rule_under_another_key", "unknown_splittable",
            "no_alternatives", "empty_alternative"])
    def test_a_grammar_built_in_code_is_validated(self, rules, start, message):
        with pytest.raises(GrammarError, match=f"^{re.escape(message)}$"):
            Grammar(rules=rules, start_symbol=start)


# terminal text with every character the DSL escapes or treats specially
_TERMINAL_TEXT = st.text(
    st.one_of(st.characters(), st.sampled_from('\n\r\t\x0b\x0c\x1c\x85\u2028\u2029"\\#|')),
    max_size=6,
)


@st.composite
def dsl_grammars(draw):
    """Acyclic grammars with arbitrary terminal text, float weights and all
    three split annotations."""
    name = st.builds(
        "".join, st.tuples(st.sampled_from(string.ascii_letters),
                           st.text(string.ascii_letters + string.digits + "_", max_size=4))
    )
    names = draw(st.lists(name, min_size=1, max_size=4, unique=True))
    weights = st.one_of(
        st.just(1.0), st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    )
    rules = {}
    for i, name in enumerate(names):
        # references only point at later rules, so the grammar is acyclic
        symbols = st.one_of(
            _TERMINAL_TEXT.map(Terminal),
            *([st.sampled_from(names[i + 1 :]).map(NonTerminalRef)] if i + 1 < len(names) else []),
        )
        alternatives = draw(
            st.lists(st.builds(Alternative, st.lists(symbols, min_size=1, max_size=3).map(tuple),
                               weights), min_size=1, max_size=3)
        )
        splittable = draw(st.sampled_from([SPLIT_AUTO, SPLIT_ALWAYS, SPLIT_NEVER]))
        rules[name] = Rule(name, tuple(alternatives), splittable)
    return Grammar(rules=rules, start_symbol=names[0])


class TestSerialization:
    def test_round_trip_preserves_language_and_fingerprint(self, toy):
        text = serialize_grammar(toy)
        again = parse_grammar(text)
        assert serialize_grammar(again) == text
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

    def test_carriage_return_survives_a_file(self, tmp_path):
        g = Grammar({"S": Rule("S", (Alternative((Terminal("a\rb\r\n"),)),))}, "S")
        path = tmp_path / "cr.cfg"
        path.write_text(serialize_grammar(g), encoding="utf-8")
        assert serialize_grammar(g) == 'S -> "a\\rb\\r\\n"\n'
        assert enumerate_strings(load_grammar(path)) == ["a\rb\r\n"]

    def test_annotations_survive_round_trip(self):
        g = parse_grammar('S @nosplit -> "a" | "b"\n')
        assert parse_grammar(serialize_grammar(g)).rules["S"].splittable == "never"

    @given(dsl_grammars())
    @settings(max_examples=120, deadline=None)
    def test_every_grammar_round_trips(self, g):
        again = parse_grammar(serialize_grammar(g))
        assert again.rules == g.rules
        assert again.start_symbol == g.start_symbol


class TestShippedGrammars:
    # the FNV-1a hashes of the packaged grammars' serialized text, fixed
    # since they shipped
    @pytest.mark.parametrize(
        "name, fingerprint",
        [
            ("toy", "b058cf14a3893ef2"),
            ("pos", "cb387a413d330750"),
            ("aic", "f807ab88d6ec66ef"),
            ("neg", "7e660e528dfffcb2"),
        ],
    )
    def test_fingerprint_is_unchanged(self, request, name, fingerprint):
        text = serialize_grammar(request.getfixturevalue(name))
        assert f"{fnv1a_64(text):016x}" == fingerprint


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


# Most derivations a ``small_grammars()`` grammar has. Every property that
# draws one may enumerate its language, and four nested rules can reach
# 389,017,002 derivations, past any memory; in 3,000 draws none passed 31,643.
SMALL_DERIVATIONS = 100_000


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
    g = _layered_grammar(spec)
    assume(count_derivations(g) <= SMALL_DERIVATIONS)
    return g


@st.composite
def deep_grammars(draw):
    """Validated acyclic grammars of 1,000 to 1,600 rules: a chain deeper than
    the interpreter's recursion limit, each rule ``"a" R<i+1>``, plus with
    some chance side alternatives that end in a terminal or skip ahead. An
    alternative references at most one rule, so strings stay chain-long."""
    n_rules = draw(st.integers(1000, 1600))
    branching = draw(st.sampled_from([0.0, 0.02, 0.5]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    rules = {}
    for i in range(n_rules):
        later = range(i + 1, n_rules)
        alts = [(Terminal("a"), NonTerminalRef(f"R{i + 1}")) if later else (Terminal("b"),)]
        while rng.random() < branching:
            tail = (NonTerminalRef(f"R{rng.choice(later)}"),) if later and rng.random() < 0.5 else ()
            alts.append((Terminal(rng.choice(["b", "c", ""])),) + tail)
        rules[f"R{i}"] = Rule(f"R{i}", tuple(Alternative(a, rng.choice([1.0, 3.0])) for a in alts))
    return Grammar(rules=rules, start_symbol="R0")


# enumerate_strings runs only on grammars with at most this many derivations
# (and refuses those past its budget before building)
ENUMERATION_CAP = 5_000


def _draws(g, n, seed, dedup):
    try:
        return sample(g, n, seed, dedup=dedup).utterances
    except InvalidInputError as exc:
        return ("exhausted", str(exc))


def reference_derive_once(g, rng):
    """The sampler before grammars were lowered: it walks ``Rule`` and
    ``Alternative`` objects and draws each alternative with ``random.choices``."""
    parts = []
    stack = [NonTerminalRef(g.start_symbol)]
    while stack:
        sym = stack.pop()
        if isinstance(sym, Terminal):
            parts.append(sym.text)
            continue
        alternatives = g.rules[sym.name].alternatives
        alt = rng.choices(alternatives, weights=[a.weight for a in alternatives], k=1)[0]
        stack.extend(reversed(alt.symbols))
    return "".join(parts)


class TestSamplingProperties:
    @given(st.one_of(small_grammars(), deep_grammars()), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_derive_once_equals_reference_per_seed(self, g, seed):
        ours, reference = random.Random(seed), random.Random(seed)
        for _ in range(5):
            assert derive_once(g, ours) == reference_derive_once(g, reference)

    @given(small_grammars(), st.integers(1, 6), st.integers(0, 2**16), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_sample_is_deterministic_per_seed(self, g, n, seed, dedup):
        # a fresh copy of the grammar shares no cached state with the first
        copy = parse_grammar(serialize_grammar(g))
        assert _draws(g, n, seed, dedup) == _draws(copy, n, seed, dedup)

    @given(st.one_of(small_grammars(), deep_grammars()))
    @settings(max_examples=40, deadline=None)
    def test_every_grammar_counts_samples_enumerates_and_partitions(self, g):
        total = count_derivations(g)
        assert total >= 1
        (drawn,) = sample(g, 1, seed=0, dedup=False).utterances
        if enumeration_size(g) > grammar.ENUMERATION_BUDGET:  # a long chain
            with pytest.raises(InvalidInputError, match="over the limit of 16777216$"):
                enumerate_strings(g)
        elif total <= ENUMERATION_CAP:
            strings = enumerate_strings(g)
            assert len(strings) == total
            assert drawn in strings
        try:
            parts = partition(g, PartitionConfig(seed=0, min_alternatives_to_split=2))
        except InvalidInputError as exc:
            assert str(exc).endswith("sub-grammar lost its start symbol")
            return
        for sub in parts.sub_grammars.values():
            assert 1 <= count_derivations(sub) <= total


class TestCountingProperties:
    @given(small_grammars())
    @settings(max_examples=60, deadline=None)
    def test_count_equals_enumeration_length(self, g):
        strings = enumerate_strings(g)
        assert count_derivations(g) == len(strings)
        assert len(set(strings)) <= len(strings)
        assert g._figures[g.start_symbol][1] == max(map(len, strings))
        assert enumeration_size(g) >= sum(len(s) + 1 for s in strings)
        # small grammars are often ambiguous: "a" "b" and "ab" derive one string
        assert language(g) == set(strings)

    def test_language_is_none_just_past_the_budget(self, monkeypatch):
        g = parse_grammar('S -> "a" A | A "a"\nA -> "a" | "b"\n')
        size = enumeration_size(g)
        monkeypatch.setattr(grammar, "ENUMERATION_BUDGET", size)
        assert language(g) == {"aa", "ab", "ba"}
        monkeypatch.setattr(grammar, "ENUMERATION_BUDGET", size - 1)
        assert language(g) is None

    def test_enumeration_size_counts_every_string_a_chain_builds(self):
        g = parse_grammar("".join(f'R{i} -> "a" R{i + 1}\n' for i in range(100)) + 'R100 -> "b"\n')
        # rule R<i> derives one string of 101 - i characters
        assert enumeration_size(g) == sum(length + 1 for length in range(1, 102))

    def test_enumerating_past_the_budget_is_refused_before_building(self, tmp_path):
        # the smallest doubling chain past the budget: were the refusal lifted,
        # enumerating it would build 2**24 characters, not exhaust memory
        path = tmp_path / "doubling.cfg"
        path.write_text("".join(f"R{i} -> R{i + 1} R{i + 1}\n" for i in range(23)) + 'R23 -> "a"\n')
        g = load_grammar(str(path))
        # rule R<i> derives one string of 2**(23 - i) characters
        assert enumeration_size(g) == sum(2**k + 1 for k in range(24)) == 16777239
        refused = (
            f"^{re.escape(str(path))}: enumerating the language takes 16777239 characters, "
            "over the limit of 16777216$"
        )
        with pytest.raises(InvalidInputError, match=refused):
            enumerate_strings(g)
        assert language(g) is None

    def test_longest_length_of_a_chain_too_long_to_enumerate(self):
        # counted, never built
        doubling = "".join(f"R{i} -> R{i + 1} R{i + 1}\n" for i in range(40)) + 'R40 -> "ab"\n'
        g = parse_grammar(doubling)
        assert g._figures[g.start_symbol] == (1, 2**41)

    def test_one_walk_over_the_rules_serves_every_count(self, monkeypatch):
        walk, walks = grammar._reachable_postorder, []

        def counted(*args):
            walks.append(args)
            return walk(*args)

        monkeypatch.setattr(grammar, "_reachable_postorder", counted)
        g = parse_grammar('S -> "a" A | A "b"\nA -> "a" | "b"\n')
        assert language(g) == {"aa", "ab", "bb"}
        assert sorted(enumerate_strings(g)) == ["aa", "ab", "ab", "bb"]
        # A: 2 derivations × (1 + 1); S: 4 derivations × (2 + 1)
        assert enumeration_size(g) == 16
        assert count_derivations(g) == 4
        # asked for its derivations, sample reads the language again
        assert sorted(sample(g, 4, seed=0).utterances) == ["aa", "ab", "bb"]
        assert len(walks) == 1


def _references(rule):
    return {sym.name for alt in rule.alternatives for sym in alt.symbols
            if isinstance(sym, NonTerminalRef)}


class TestRuleOrderProperties:
    @given(st.one_of(small_grammars(), deep_grammars()))
    @settings(max_examples=40, deadline=None)
    def test_postorder_lists_each_rule_once_after_its_references(self, g):
        assert sorted(g._postorder) == sorted(g.rules)
        position = {name: i for i, name in enumerate(g._postorder)}
        for name, rule in g.rules.items():
            assert all(position[ref] < position[name] for ref in _references(rule))

    @given(st.one_of(small_grammars(), deep_grammars()), st.data())
    @settings(max_examples=40, deadline=None)
    def test_one_back_reference_is_reported_as_a_closed_walk(self, g, data):
        # a rule reachable from ``target`` gains an alternative that references
        # ``target``, which closes a cycle
        target = data.draw(st.sampled_from(list(g.rules)))
        reachable, todo = {target}, [target]
        while todo:
            for ref in _references(g.rules[todo.pop()]):
                if ref not in reachable:
                    reachable.add(ref)
                    todo.append(ref)
        back = data.draw(st.sampled_from(sorted(reachable)))
        rules = dict(g.rules)
        old = rules[back]
        rules[back] = Rule(
            back, old.alternatives + (Alternative((NonTerminalRef(target),)),), old.splittable
        )
        with pytest.raises(GrammarError, match="^grammar contains a cycle: ") as err:
            Grammar(rules=rules, start_symbol=g.start_symbol)
        path = str(err.value).removeprefix("grammar contains a cycle: ").split(" -> ")
        assert len(path) >= 2 and path[0] == path[-1]
        assert all(b in _references(rules[a]) for a, b in zip(path, path[1:]))


class TestDeepGrammars:
    # 1,501 rules in a chain: deeper than the interpreter's recursion limit
    CHAIN = "".join(f'R{i} -> "a" R{i + 1}\n' for i in range(1500)) + 'R1500 -> "b"\n'

    def test_chain_grammar_counts_and_enumerates(self):
        g = parse_grammar(self.CHAIN)
        assert count_derivations(g) == 1
        assert enumerate_strings(g) == ["a" * 1500 + "b"]

    def test_chain_grammar_samples(self):
        g = parse_grammar(self.CHAIN)
        assert sample(g, 1, seed=0).utterances == ("a" * 1500 + "b",)

    def test_chain_grammar_partitions(self):
        g = parse_grammar(self.CHAIN)
        parts = partition(g, PartitionConfig(seed=0))
        for sub in parts.sub_grammars.values():
            assert serialize_grammar(sub) == self.CHAIN

    def test_four_way_chain_partitions(self):
        source = "".join(
            f'R{i} -> "a" R{i + 1} | "b" R{i + 1} | "c" R{i + 1} | "d" R{i + 1}\n'
            for i in range(1500)
        ) + 'R1500 -> "e"\n'
        g = parse_grammar(source)
        parts = partition(g, PartitionConfig(seed=0))
        for split, sub in parts.sub_grammars.items():
            assert len(sub.rules) == 1501
            kept = [
                sum(where in ("shared", split) for where in parts.assignment[name])
                for name in g.rules
            ]
            assert count_derivations(sub) == math.prod(kept)
