import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruaguard.errors import DatasetFormatError, InvalidInputError
from ruaguard.grammar import Terminal, enumerate_strings, parse_grammar, serialize_grammar
from ruaguard.partition import (
    SPLITS,
    PartitionConfig,
    PartitionedGrammar,
    emit_split_datasets,
    format_manifest,
    load_partition,
    partition,
)
from ruaguard.matching import member
from test_grammar import small_grammars


def _rule_of_weights(weights, annotation=""):
    body = " | ".join(f'{w}: "t{i}"' for i, w in enumerate(weights))
    return parse_grammar(f"S{annotation} -> {body}\n")


def _shared(parts):
    return tuple(i for i, where in enumerate(parts.assignment["S"]) if where == "shared")


def _exclusive(parts):
    return {i: where for i, where in enumerate(parts.assignment["S"]) if where != "shared"}


def _language(g, allowed):
    """The strings ``g`` derives using only the alternatives ``allowed(rule, index)``."""
    strings: dict[str, set[str]] = {}

    def of(name):
        if name not in strings:
            strings[name] = {
                "".join(parts)
                for i, alt in enumerate(g.rules[name].alternatives)
                if allowed(name, i)
                for parts in itertools.product(
                    *({s.text} if isinstance(s, Terminal) else of(s.name) for s in alt.symbols)
                )
            }
        return strings[name]

    return of(g.start_symbol)


class TestSharedPrefix:
    def test_descending_weights_stop_at_first_reaching_p(self):
        g = _rule_of_weights([0.30, 0.25, 0.20, 0.15, 0.10])
        parts = partition(g, PartitionConfig(p=0.25, seed=0))
        assert _shared(parts) == (0,)
        assert sorted(_exclusive(parts)) == [1, 2, 3, 4]

    def test_p_099_on_uniform_four_way_rule_shares_everything(self):
        g = _rule_of_weights([1, 1, 1, 1])
        parts = partition(g, PartitionConfig(p=0.99, seed=0))
        assert parts.assignment["S"] == ("shared",) * 4

    def test_uniform_ten_way_rule_shares_three(self):
        g = _rule_of_weights([1] * 10)
        parts = partition(g, PartitionConfig(p=0.25, seed=0))
        assert len(_shared(parts)) == 3
        assert len(_exclusive(parts)) == 7

    def test_float_noise_near_boundary_is_tolerated(self):
        g = _rule_of_weights([1] * 6)
        parts = partition(g, PartitionConfig(p=0.5, seed=0))
        assert len(_shared(parts)) == 3

    def test_ties_ranked_by_original_position(self):
        g = _rule_of_weights([1, 1, 1, 1, 1])
        parts = partition(g, PartitionConfig(p=0.4, seed=0))
        assert _shared(parts) == (0, 1)

    def test_weights_ranked_not_positional(self):
        g = _rule_of_weights([1, 5, 1, 1])
        parts = partition(g, PartitionConfig(p=0.5, seed=0))
        assert _shared(parts) == (1,)


class TestEligibility:
    def test_below_threshold_rules_fully_shared(self):
        g = parse_grammar('S -> "a" | "b" | "c"\n')
        parts = partition(g, PartitionConfig(seed=0))
        assert _shared(parts) == (0, 1, 2)

    def test_nosplit_annotation_wins_over_size(self):
        g = _rule_of_weights([1] * 10, annotation=" @nosplit")
        parts = partition(g, PartitionConfig(seed=0))
        assert _shared(parts) == tuple(range(10))

    def test_split_annotation_wins_over_threshold(self):
        g = parse_grammar('S @split -> "a" | "b"\n')
        parts = partition(g, PartitionConfig(p=0.5, seed=0))
        assert _shared(parts) == (0,)
        assert len(_exclusive(parts)) == 1


class TestLeakage:
    def test_exclusive_alternatives_land_in_exactly_one_split(self):
        g = _rule_of_weights([1] * 10)
        parts = partition(g, PartitionConfig(p=0.25, seed=0))
        languages = {
            split: set(enumerate_strings(sub))
            for split, sub in parts.sub_grammars.items()
        }
        for idx in _shared(parts):
            assert all(f"t{idx}" in lang for lang in languages.values())
        for idx, split in _exclusive(parts).items():
            holders = [s for s, lang in languages.items() if f"t{idx}" in lang]
            assert holders == [split]

    def test_split_languages_cover_the_source_language(self):
        g = _rule_of_weights([1] * 10)
        parts = partition(g, PartitionConfig(p=0.25, seed=3))
        union = set()
        for sub in parts.sub_grammars.values():
            union |= set(enumerate_strings(sub))
        assert union == set(enumerate_strings(g))

    def test_assignment_frequencies_track_fractions(self):
        g = _rule_of_weights([1] * 400)
        parts = partition(g, PartitionConfig(p=0.005, seed=8))
        counts = {s: 0 for s in SPLITS}
        for split in _exclusive(parts).values():
            counts[split] += 1
        assert counts["train"] > counts["val"]
        assert counts["train"] > counts["test"]
        assert all(c > 0 for c in counts.values())

    def test_deterministic_per_seed(self, pos):
        a = partition(pos, PartitionConfig(seed=5))
        b = partition(pos, PartitionConfig(seed=5))
        c = partition(pos, PartitionConfig(seed=6))
        assert format_manifest(a) == format_manifest(b)
        assert format_manifest(a) != format_manifest(c)

    @given(
        small_grammars(),
        st.integers(0, 2**16),
        st.sampled_from([0.1, 0.25, 0.5, 0.9]),
    )
    @settings(max_examples=150, deadline=None)
    def test_exclusive_only_strings_never_leak(self, g, seed, p):
        parts = partition(g, PartitionConfig(p=p, seed=seed, min_alternatives_to_split=2))
        languages = {s: set(enumerate_strings(sub)) for s, sub in parts.sub_grammars.items()}
        for split in SPLITS:
            # a split's language is what its shared and own alternatives derive
            assert languages[split] == _language(
                g, lambda name, i: parts.assignment[name][i] in ("shared", split)
            )
            # strings that need one of the split's exclusive alternatives
            only_here = languages[split] - _language(
                g, lambda name, i: parts.assignment[name][i] != split
            )
            for other in SPLITS:
                if other != split:
                    assert not only_here & languages[other]

    def test_real_grammar_sub_languages_stay_inside_source(self, pos):
        parts = partition(pos, PartitionConfig(seed=0))
        for sub in parts.sub_grammars.values():
            for s in enumerate_strings(sub)[:200]:
                assert member(pos, s)


class TestManifest:
    def test_round_trip_reproduces_identical_sub_grammars(self, pos):
        parts = partition(pos, PartitionConfig(seed=11))
        again = load_partition(pos, format_manifest(parts))
        assert isinstance(again, PartitionedGrammar)
        assert again.assignment == parts.assignment
        for split in SPLITS:
            assert serialize_grammar(again.sub_grammars[split]) == serialize_grammar(
                parts.sub_grammars[split]
            )

    @given(
        small_grammars(),
        st.integers(0, 2**16),
        st.floats(0.01, 0.99),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_any_partition_round_trips_in_any_row_order(self, g, seed, p, rng):
        parts = partition(g, PartitionConfig(p=p, seed=seed, min_alternatives_to_split=2))
        assert list(parts.assignment) == list(g.rules)
        for name, rule in g.rules.items():
            assert len(parts.assignment[name]) == len(rule.alternatives)
            assert set(parts.assignment[name]) <= {"shared", *SPLITS}
        manifest = format_manifest(parts)
        header, *rows = manifest.splitlines()
        rng.shuffle(rows)
        for text in (manifest, "\n".join([header, *rows]) + "\n"):
            again = load_partition(g, text)
            assert again.assignment == parts.assignment
            for split in SPLITS:
                assert serialize_grammar(again.sub_grammars[split]) == serialize_grammar(
                    parts.sub_grammars[split]
                )

    def test_header_required(self, toy):
        with pytest.raises(DatasetFormatError):
            load_partition(toy, "rule\talt\tassignment\nS\t0\tshared\n")

    def test_unknown_rule_rejected(self):
        g = parse_grammar('S -> "a"\n')
        text = "rule\talt_index\tassignment\nS\t0\tshared\nX\t0\tshared\n"
        with pytest.raises(DatasetFormatError):
            load_partition(g, text)

    def test_out_of_range_index_rejected(self):
        g = parse_grammar('S -> "a"\n')
        text = "rule\talt_index\tassignment\nS\t1\tshared\n"
        with pytest.raises(DatasetFormatError):
            load_partition(g, text)

    def test_duplicate_row_rejected(self):
        g = parse_grammar('S -> "a" | "b"\n')
        text = "rule\talt_index\tassignment\nS\t0\tshared\nS\t0\ttrain\nS\t1\tshared\n"
        with pytest.raises(DatasetFormatError):
            load_partition(g, text)

    def test_unknown_assignment_rejected(self):
        g = parse_grammar('S -> "a"\n')
        text = "rule\talt_index\tassignment\nS\t0\taddtest\n"
        with pytest.raises(DatasetFormatError):
            load_partition(g, text)

    def test_partial_coverage_rejected(self):
        g = parse_grammar('S -> "a" | "b"\n')
        text = "rule\talt_index\tassignment\nS\t0\tshared\n"
        with pytest.raises(DatasetFormatError):
            load_partition(g, text)

    def test_empty_split_surfaces_through_manifest(self):
        g = parse_grammar('S -> "a" | "b"\n')
        text = "rule\talt_index\tassignment\nS\t0\ttrain\nS\t1\ttrain\n"
        with pytest.raises(InvalidInputError, match="^the 'val' sub-grammar lost its start symbol$"):
            load_partition(g, text)

    def test_manifest_can_prune_referenced_rules_per_split(self):
        g = parse_grammar('S -> A | "s"\nA -> "a1" | "a2"\n')
        text = (
            "rule\talt_index\tassignment\n"
            "S\t0\tshared\nS\t1\tshared\n"
            "A\t0\ttrain\nA\t1\ttrain\n"
        )
        parts = load_partition(g, text)
        assert sorted(enumerate_strings(parts.sub_grammars["train"])) == ["a1", "a2", "s"]
        assert enumerate_strings(parts.sub_grammars["val"]) == ["s"]
        assert "A" not in parts.sub_grammars["val"].rules


class TestEmitDatasets:
    def test_batches_are_tagged_and_in_language(self, aic):
        parts = partition(aic, PartitionConfig(seed=0))
        batches = emit_split_datasets(parts, (60, 25, 25), seed=1)
        assert set(batches) == set(SPLITS)
        for split, batch in batches.items():
            assert len(batch.utterances) == len(set(batch.utterances))
            sub = parts.sub_grammars[split]
            assert all(member(sub, u) for u in batch.utterances)

    def test_split_samples_never_leak_exclusive_strings(self):
        g = _rule_of_weights([1] * 10)
        parts = partition(g, PartitionConfig(p=0.25, seed=2))
        batches = emit_split_datasets(parts, (4, 4, 4), seed=0)
        for split, batch in batches.items():
            for other in SPLITS:
                if other == split:
                    continue
                other_exclusive = {
                    f"t{i}" for i, s in enumerate(parts.assignment["S"]) if s == other
                }
                assert not (set(batch.utterances) & other_exclusive)

    def test_a_short_split_warns_with_both_counts(self):
        parts = partition(_rule_of_weights([1] * 10), PartitionConfig(p=0.25, seed=2))
        held = {split: len(set(enumerate_strings(parts.sub_grammars[split]))) for split in SPLITS}
        with pytest.warns(UserWarning) as caught:
            batches = emit_split_datasets(parts, (4, 4, 20), seed=0)
        assert [str(w.message) for w in caught] == [
            f"the test split got {held['test']} rows while 20 were asked"
        ]
        assert len(batches["test"].utterances) == held["test"] < 20

    def test_the_standard_splits_hold_what_was_asked(self, standard_dataset):
        # the fixture turns a shortfall warning into an error
        assert [len(standard_dataset[split]) for split in SPLITS] == [4760, 1020, 1020]

    def test_shared_alternatives_put_a_third_of_the_standard_test_rows_in_train(
        self, standard_dataset
    ):
        # only strings that need an exclusive alternative are held out; README
        # states this figure
        train = {row.text for row in standard_dataset["train"]}
        in_train = sum(row.text in train for row in standard_dataset["test"])
        assert in_train == 331

    def test_counts_must_be_positive(self, toy):
        parts = partition(toy, PartitionConfig(seed=0))
        with pytest.raises(ValueError):
            emit_split_datasets(parts, (5, 0, 5), seed=0)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p": 0.0},
            {"p": 1.0},
            {"split_fractions": (0.5, 0.5, 0.5)},
            {"split_fractions": (0.7, 0.3, 0.0)},
            {"min_alternatives_to_split": 1},
        ],
    )
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PartitionConfig(**kwargs)
