import hashlib
import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ruaguard import generation
from ruaguard.errors import InvalidInputError, TargetNotFoundWarning
from ruaguard.generation import (
    DEFAULT_ORIGINAL_WEIGHT,
    DRAWS_PER_STRING,
    ModifierSpec,
    apply_modifier,
    sample,
)
from ruaguard.grammar import (
    NonTerminalRef,
    count_derivations,
    derive_once,
    enumerate_strings,
    parse_grammar,
    serialize_grammar,
)
from ruaguard.matching import member
from test_grammar import small_grammars


def chi_squared_pvalue(counts, expected):
    """Pearson chi-squared p-value for two categories (one degree of freedom)."""
    assert len(counts) == len(expected) == 2
    statistic = sum((c - e) ** 2 / e for c, e in zip(counts, expected))
    return math.erfc(math.sqrt(statistic / 2))


class TestSampling:
    def test_deterministic_per_seed(self, pos):
        a = sample(pos, 25, seed=3)
        b = sample(pos, 25, seed=3)
        c = sample(pos, 25, seed=4)
        assert a.utterances == b.utterances
        assert a.utterances != c.utterances

    def test_dedup_yields_distinct_strings(self, toy):
        batch = sample(toy, 12, seed=0)
        assert len(set(batch.utterances)) == 12
        assert set(batch.utterances) == set(enumerate_strings(toy))

    def test_dedup_returns_short_when_language_is_smaller(self, toy):
        batch = sample(toy, 40, seed=0)
        assert len(batch.utterances) == 12

    def test_no_dedup_keeps_duplicates(self, toy):
        batch = sample(toy, 200, seed=0, dedup=False)
        assert len(batch.utterances) == 200
        assert len(set(batch.utterances)) < 200
        assert all(member(toy, u) for u in batch.utterances)

    def test_exhaustion_raises_when_language_is_large_enough(self):
        g = parse_grammar('S -> 1000000: "a" | "b" | "c" | "d"\n')
        # fewer than the 4 requested
        found_fewer = "^found only [0-3] distinct strings while 4 were requested$"
        with pytest.raises(InvalidInputError, match=found_fewer):
            sample(g, 4, seed=0)

    def test_weighted_frequencies_match_chi_squared(self):
        g = parse_grammar('S -> 3: "a" | 1: "b"\n')
        batch = sample(g, 10_000, seed=5, dedup=False)
        counts = [batch.utterances.count("a"), batch.utterances.count("b")]
        assert chi_squared_pvalue(counts, [7500, 2500]) > 1e-3

    @given(small_grammars(), st.integers(0, 5), st.integers(0, 2**16))
    @example(parse_grammar('S -> "a" | "a"\n'), 0, 0)
    @example(parse_grammar('S -> A B\nA -> "a" | ""\nB -> "a" | ""\n'), 1, 7)
    @settings(max_examples=60, deadline=None)
    def test_stops_drawing_once_the_language_is_exhausted(self, g, above, seed):
        derivations = count_derivations(g)
        assume(derivations <= 40)
        n = derivations + above
        # the full budget of draws, each string kept where it first shows
        rng = random.Random(seed)
        first_drawn = {}
        for draw in range(1, DRAWS_PER_STRING * n + 1):
            first_drawn.setdefault(derive_once(g, rng), draw)
        calls = []

        def counted(grammar, rng):
            calls.append(None)
            return derive_once(grammar, rng)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(generation, "derive_once", counted)
            batch = sample(g, n, seed)
        assert batch.utterances == tuple(first_drawn)
        # drawing stops at the language's last string, though an ambiguous
        # grammar holds fewer strings than derivations
        exhausted = len(first_drawn) == len(set(enumerate_strings(g)))
        assert len(calls) == (max(first_drawn.values()) if exhausted else DRAWS_PER_STRING * n)

    def test_an_ambiguous_language_asked_for_its_derivations_is_returned_whole(self):
        g = parse_grammar('S -> "a" | "a" | "b"\n')
        assert sorted(sample(g, 3, seed=0).utterances) == ["a", "b"]

    def test_an_ambiguous_language_asked_below_its_derivations_is_returned_whole(self):
        # three derivations, one string: asked for two, the one string is all there is
        g = parse_grammar('S -> "a" | "a" | "a"\n')
        assert sample(g, 2, seed=0).utterances == ("a",)
        g = parse_grammar('S -> 3: "a" | 3: "a" | "b" | "b"\n')
        assert sorted(sample(g, 3, seed=0).utterances) == ["a", "b"]

    def test_an_ambiguous_language_is_not_drawn_past_its_last_string(self, monkeypatch):
        calls = []

        def counted(grammar, rng):
            calls.append(None)
            return derive_once(grammar, rng)

        monkeypatch.setattr(generation, "derive_once", counted)
        assert sample(parse_grammar('S -> "a" | "a"\n'), 20_000, seed=0).utterances == ("a",)
        assert len(calls) == 1

    @pytest.mark.parametrize("dedup", [True, False])
    def test_a_grammar_past_the_length_cap_is_refused_before_drawing(self, dedup, monkeypatch):
        g = parse_grammar('S -> "ab" | A\nA -> "abc"\n')
        monkeypatch.setattr(generation, "ENUMERATION_BUDGET", 3)
        assert set(sample(g, 2, seed=0, dedup=dedup).utterances) <= {"ab", "abc"}
        monkeypatch.setattr(generation, "ENUMERATION_BUDGET", 2)
        # refused before the first draw
        monkeypatch.setattr(generation, "derive_once", None)
        too_long = "^the longest string is 3 characters, over the limit of 2$"
        with pytest.raises(InvalidInputError, match=too_long):
            sample(g, 2, seed=0, dedup=dedup)

    def test_n_must_be_positive(self, toy):
        with pytest.raises(ValueError):
            sample(toy, 0, seed=0)

    # sha256 of 500 draws with seed 7: a rewrite of the sampler must keep each
    # seed's draws
    DIGESTS = {
        "pos": "22717178862edb2d8155ad0b03fedb0452e3d9f64e061880646951f63d845faf",
        "aic": "693c444f57e8ed89a0a4ffd1415cd89e1c2b5e215faa2d36e456a243c29bc736",
        "neg": "5409d97d3df893a09d9b1f57954bfdf71e2a53f0081df82b922f31941f904cf2",
    }

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_draws_pinned_per_seed(self, request, name):
        g = request.getfixturevalue(name)
        text = "\n".join(sample(g, 500, seed=7, dedup=False).utterances)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == self.DIGESTS[name]


class TestModifiers:
    def test_variant_added_to_language(self, toy):
        spec = ModifierSpec(target="robot", variants=(("robo", 1.0),))
        modified = apply_modifier(toy, spec)
        strings = set(enumerate_strings(modified))
        assert "are you a robo" in strings
        assert "are you a robot" in strings
        assert count_derivations(modified) == 14

    def test_original_language_untouched(self, toy):
        before = set(enumerate_strings(toy))
        apply_modifier(toy, ModifierSpec(target="robot", variants=(("robo", 1.0),)))
        assert set(enumerate_strings(toy)) == before

    def test_original_to_variant_ratio_is_eight_to_one(self):
        g = parse_grammar('S -> "robot"\n')
        spec = ModifierSpec(target="robot", variants=(("robo", 1.0),))
        assert spec.original_weight == DEFAULT_ORIGINAL_WEIGHT == 8.0
        modified = apply_modifier(g, spec)
        batch = sample(modified, 9_000, seed=2, dedup=False)
        counts = [batch.utterances.count("robot"), batch.utterances.count("robo")]
        assert chi_squared_pvalue(counts, [8_000, 1_000]) > 1e-3

    def test_multiple_variants(self):
        g = parse_grammar('S -> "are you a robot"\n')
        spec = ModifierSpec(
            target="robot", variants=(("robots", 2.0), ("bot", 1.0))
        )
        strings = set(enumerate_strings(apply_modifier(g, spec)))
        assert strings == {"are you a robot", "are you a robots", "are you a bot"}

    def test_target_must_match_whole_token(self):
        g = parse_grammar('S -> "robots are fun"\n')
        with pytest.warns(TargetNotFoundWarning):
            modified = apply_modifier(
                g, ModifierSpec(target="robot", variants=(("robo", 1.0),))
            )
        assert serialize_grammar(modified) == serialize_grammar(g)

    def test_missing_target_warns_and_returns_equivalent_grammar(self, toy):
        with pytest.warns(TargetNotFoundWarning):
            modified = apply_modifier(
                toy, ModifierSpec(target="zebra", variants=(("z", 1.0),))
            )
        assert serialize_grammar(modified) == serialize_grammar(toy)

    def test_text_after_the_last_hit_stays_a_terminal(self):
        g = parse_grammar('S -> "robot here"\n')
        modified = apply_modifier(g, ModifierSpec(target="robot", variants=(("robo", 1.0),)))
        assert serialize_grammar(modified) == (
            'S -> Mod_robot " here"\nMod_robot -> 8.0: "robot" | "robo"\n'
        )

    def test_fresh_name_counts_past_taken_names(self):
        g = parse_grammar('S -> "a robot" Mod_robot Mod_robot2\nMod_robot -> "x"\nMod_robot2 -> "y"\n')
        modified = apply_modifier(g, ModifierSpec(target="robot", variants=(("robo", 1.0),)))
        assert modified.rules["S"].alternatives[0].symbols[1] == NonTerminalRef("Mod_robot3")
        assert set(enumerate_strings(modified)) == {"a robotxy", "a roboxy"}

    def test_auto_names_do_not_collide_on_repeat(self, toy):
        spec = ModifierSpec(target="robot", variants=(("r0bot", 1.0),))
        once = apply_modifier(toy, spec)
        twice = apply_modifier(once, ModifierSpec(target="human", variants=(("hooman", 1.0),)))
        strings = set(enumerate_strings(twice))
        assert {"are you a r0bot", "are you a hooman"} <= strings

    def test_multi_token_target_rejected(self):
        with pytest.raises(ValueError):
            ModifierSpec(target="real person", variants=(("rp", 1.0),))

    def test_variant_weight_must_be_below_original(self):
        with pytest.raises(ValueError):
            ModifierSpec(target="robot", variants=(("robo", 9.0),))

    def test_a_modifier_needs_a_variant(self):
        with pytest.raises(ValueError, match="^modifier needs at least one variant$"):
            ModifierSpec(target="robot", variants=())

    @pytest.mark.parametrize("weight", [0.0, -1.0])
    def test_variant_weight_must_be_positive(self, weight):
        with pytest.raises(ValueError, match="^variant weights must be positive$"):
            ModifierSpec(target="robot", variants=(("robo", 1.0), ("bot", weight)))
