import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruaguard.dataset import CLASS_ORDER, Label, one_hot_prediction
from ruaguard.errors import InvalidInputError
from ruaguard.guard import (
    AIC_POLICIES,
    RESPONSE_PRESETS,
    DisclosureConfig,
    GuardDecision,
    compose_response,
    decision_to_json,
    guard,
    load_guard_config,
    parse_guard_config,
)
from ruaguard.recognizer import RecognizerModel
from ruaguard.grammar import parse_grammar


class FixedClassifier:
    def __init__(self, label):
        self.label = label

    def predict(self, text):
        return one_hot_prediction(text, self.label)


class TestCompose:
    def test_confirmation_only(self):
        assert compose_response(RESPONSE_PRESETS["cc"]) == "I am a chatbot."

    def test_with_maker(self):
        assert (
            compose_response(RESPONSE_PRESETS["cc_wm"])
            == "I am a chatbot made by Example.com."
        )

    def test_with_purpose(self):
        assert compose_response(RESPONSE_PRESETS["cc_p"]) == (
            "I am a chatbot. I am designed to help you get things done."
        )

    def test_full_disclosure(self):
        assert compose_response(RESPONSE_PRESETS["cc_wm_p_hr"]) == (
            "I am a chatbot made by Example.com. "
            "I am designed to help you get things done. "
            "If I say anything that seems wrong, you can report it to "
            'Example.com by saying "report problem" or by going to '
            "Example.com/bot-issue."
        )

    def test_component_order_is_fixed(self):
        cfg = DisclosureConfig(
            clear_confirm="AA.", who_makes="BB.", purpose="CC.", how_report="DD."
        )
        assert compose_response(cfg) == "AA. BB. CC. DD."

    def test_presets_all_compose_distinct_responses(self):
        responses = {name: compose_response(cfg) for name, cfg in RESPONSE_PRESETS.items()}
        assert len(set(responses.values())) == len(RESPONSE_PRESETS)
        for text in responses.values():
            assert text.strip()

    def test_missing_confirmation_rejected(self):
        empty = "^clear_confirm must be a non-empty string$"
        with pytest.raises(InvalidInputError, match=empty):
            DisclosureConfig(clear_confirm="")
        with pytest.raises(InvalidInputError, match=empty):
            DisclosureConfig(clear_confirm="   ")
        # compose_response checks no config again: none can lose its confirmation
        cfg = DisclosureConfig(clear_confirm="ok")
        with pytest.raises(InvalidInputError, match=empty):
            dataclasses.replace(cfg, clear_confirm=" ")
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.clear_confirm = ""

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            DisclosureConfig(clear_confirm="ok", aic_policy="escalate")


class TestGuardDecision:
    CFG = RESPONSE_PRESETS["cc"]

    def test_positive_gets_disclosure(self):
        decision = guard("are you a robot", FixedClassifier(Label.POS), self.CFG)
        assert decision.action == "respond"
        assert decision.response == "I am a chatbot."
        assert decision.label is Label.POS

    def test_negative_passes_through(self):
        decision = guard("what time is it", FixedClassifier(Label.NEG), self.CFG)
        assert decision.action == "pass"
        assert decision.response is None

    def test_ambiguous_default_passes_through(self):
        decision = guard("you sound robotic", FixedClassifier(Label.AIC), self.CFG)
        assert decision.action == "pass"
        assert decision.response is None

    def test_ambiguous_clarify_policy_responds(self):
        cfg = DisclosureConfig(clear_confirm="I am a chatbot.", aic_policy="clarify")
        decision = guard("you sound robotic", FixedClassifier(Label.AIC), cfg)
        assert decision.action == "respond"
        assert decision.response == "I am a chatbot."

    def test_classifier_id_defaults_to_type_name(self):
        decision = guard("x", FixedClassifier(Label.NEG), self.CFG)
        assert decision.classifier_id == "FixedClassifier"

    def test_one_config_keeps_each_classifier_types_own_decisions(self):
        class OtherClassifier(FixedClassifier):
            pass

        cfg = DisclosureConfig(clear_confirm="I am a chatbot.")
        for _ in range(2):  # the second pass reads the decisions the first one made
            for label in CLASS_ORDER:
                first = guard("x", FixedClassifier(label), cfg)
                other = guard("x", OtherClassifier(label), cfg)
                assert first.classifier_id == "FixedClassifier"
                assert other.classifier_id == "OtherClassifier"
                assert (first.label, first.action) == (other.label, other.action)

    def test_a_replaced_config_decides_afresh(self):
        cfg = DisclosureConfig(clear_confirm="I am a chatbot.")
        assert guard("you sound robotic", FixedClassifier(Label.AIC), cfg).action == "pass"
        clarify = dataclasses.replace(cfg, aic_policy="clarify")
        decision = guard("you sound robotic", FixedClassifier(Label.AIC), clarify)
        assert (decision.action, decision.response) == ("respond", "I am a chatbot.")
        assert guard("you sound robotic", FixedClassifier(Label.AIC), cfg).action == "pass"
        # the decisions a config holds are not part of its value
        assert cfg == DisclosureConfig(clear_confirm="I am a chatbot.")
        assert hash(cfg) == hash(DisclosureConfig(clear_confirm="I am a chatbot."))
        assert repr(cfg) == repr(DisclosureConfig(clear_confirm="I am a chatbot."))

    def test_with_grammar_recognizer(self):
        pos = parse_grammar('S -> "are you a robot"')
        aic = parse_grammar('S -> "you sound robotic"')
        model = RecognizerModel(pos_grammar=pos, aic_grammar=aic)
        asked = guard("Are you a robot?", model, self.CFG)
        assert asked.action == "respond"
        assert asked.response == "I am a chatbot."
        ambiguous = guard("you sound robotic", model, self.CFG)
        assert ambiguous.action == "pass"
        other = guard("how is the weather", model, self.CFG)
        assert other.action == "pass"
        assert other.label is Label.NEG


class TestDecisionJson:
    def test_fields(self):
        decision = GuardDecision(
            label=Label.POS, action="respond", response="I am a chatbot.",
            classifier_id="stub",
        )
        payload = json.loads(decision_to_json(decision, text="hello"))
        assert payload == {
            "label": "p",
            "action": "respond",
            "response": "I am a chatbot.",
            "classifier": "stub",
            "text": "hello",
        }

    def test_hand_built_and_replaced_decisions_serialise_as_one_dumps(self):
        decision = GuardDecision(
            label=Label.POS, action="respond", response="A.", classifier_id="stub"
        )
        changed = dataclasses.replace(decision, response="B.")
        for _ in range(2):
            for d in (decision, changed):
                for text in ("hello", 'say "hi"'):
                    assert decision_to_json(d, text) == full_payload_line(d, text)
        assert decision == GuardDecision(
            label=Label.POS, action="respond", response="A.", classifier_id="stub"
        )

    def test_optional_text_included(self):
        decision = GuardDecision(
            label=Label.NEG, action="pass", response=None, classifier_id="stub"
        )
        payload = json.loads(decision_to_json(decision, text="hello"))
        assert payload["text"] == "hello"
        assert payload["response"] is None


def full_payload_line(decision, text):
    """The JSON line of a decision as one ``json.dumps`` of every key."""
    return json.dumps({
        "label": decision.label.value,
        "action": decision.action,
        "response": decision.response,
        "classifier": decision.classifier_id,
        "text": text,
    }, sort_keys=True)


def expected_decision(label, cfg):
    respond = label is Label.POS or (label is Label.AIC and cfg.aic_policy == "clarify")
    return GuardDecision(
        label=label,
        action="respond" if respond else "pass",
        response=compose_response(cfg) if respond else None,
        classifier_id="FixedClassifier",
    )


# Every preset under both policies, so that one run alternates between them.
CONFIGS = [
    dataclasses.replace(cfg, aic_policy=policy)
    for cfg in RESPONSE_PRESETS.values()
    for policy in AIC_POLICIES
]

# Quotes, backslashes, non-ASCII, NUL, control characters and lone surrogates.
_AWKWARD = '"\\\x00\x1f\x7f/é€🤖\u2028\ud800\udcff'
TEXTS = st.text(st.one_of(st.characters(exclude_categories=()), st.sampled_from(_AWKWARD)))


class TestDecisionJsonBytes:
    @given(st.lists(
        st.tuples(st.sampled_from(CONFIGS), st.sampled_from(CLASS_ORDER), TEXTS),
        min_size=1, max_size=12,
    ))
    @settings(max_examples=60, deadline=None)
    def test_guard_lines_equal_one_dumps_of_the_payload(self, steps):
        for cfg, label, text in steps:
            decision = guard(text, FixedClassifier(label), cfg)
            assert decision == expected_decision(label, cfg)
            assert decision_to_json(decision, text) == full_payload_line(decision, text)

    @given(st.lists(st.builds(
        GuardDecision,
        label=st.sampled_from(CLASS_ORDER),
        action=st.sampled_from(["respond", "pass"]),
        response=st.none() | TEXTS,
        classifier_id=TEXTS,
    ), min_size=1, max_size=6), TEXTS)
    @settings(max_examples=50, deadline=None)
    def test_any_decision_equals_one_dumps_of_the_payload(self, decisions, text):
        for decision in decisions:
            assert decision_to_json(decision, text) == full_payload_line(decision, text)

    @given(st.sampled_from(CONFIGS), st.sampled_from(CLASS_ORDER), st.text(), TEXTS)
    @settings(max_examples=100, deadline=None)
    def test_text_is_encoded_as_json_dumps_encodes_it(self, cfg, label, plain, awkward):
        decision = guard("x", FixedClassifier(label), cfg)
        for text in (plain, awkward):
            assert decision_to_json(decision, text) == decision._json_head + json.dumps(text) + "}"

    def test_every_preset_policy_and_label_in_turn(self):
        texts = ['say "hi"', "back\\slash", "naïve 🤖", "nul\x00", "\udcff", ""]
        for _ in range(2):
            for cfg in CONFIGS:
                for label in CLASS_ORDER:
                    for text in texts:
                        decision = guard(text, FixedClassifier(label), cfg)
                        assert decision == expected_decision(label, cfg)
                        line = decision_to_json(decision, text)
                        assert line == full_payload_line(decision, text)

    def test_exact_bytes_of_a_line(self):
        decision = guard("are you a robot?", FixedClassifier(Label.POS), RESPONSE_PRESETS["cc"])
        assert decision_to_json(decision, "are you a robot?") == (
            '{"action": "respond", "classifier": "FixedClassifier", "label": "p", '
            '"response": "I am a chatbot.", "text": "are you a robot?"}'
        )


class TestConfigFile:
    def test_parse_with_comments(self):
        cfg = parse_guard_config(
            "# guard settings\n"
            "clear_confirm = I am a chatbot.\n"
            "\n"
            "purpose = I help with questions.\n"
            "aic_policy = clarify\n"
        )
        assert cfg.clear_confirm == "I am a chatbot."
        assert cfg.purpose == "I help with questions."
        assert cfg.who_makes is None
        assert cfg.aic_policy == "clarify"

    def test_value_may_contain_equals(self):
        cfg = parse_guard_config("clear_confirm = x = y\n")
        assert cfg.clear_confirm == "x = y"

    def test_hash_inside_a_value_is_kept(self):
        cfg = parse_guard_config(
            "  # report link\nclear_confirm = I am a bot.\nhow_report = see example.com/#help\n"
        )
        assert cfg.how_report == "see example.com/#help"

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown guard config key"):
            parse_guard_config("clear_confirm = ok\nshout = yes\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_guard_config("clear_confirm\n")

    def test_confirmation_required(self):
        with pytest.raises(InvalidInputError, match="^guard config must set clear_confirm$"):
            parse_guard_config("purpose = helping\n")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "guard.cfg"
        path.write_text("clear_confirm = I am a bot.\naic_policy = clarify\n")
        cfg = load_guard_config(path)
        assert cfg.clear_confirm == "I am a bot."
        assert cfg.aic_policy == "clarify"
