"""Disclosure responses and the runtime guard decision.

A disclosure response is composed from up to four parts, always in this
order: a clear confirmation of being non-human (required), who makes the
system, its purpose, and how to report problems. The guard classifies an
incoming utterance and responds with the composed disclosure on a clear
ask; ambiguous cases follow the configured policy and clear negatives
always pass through untouched.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

from .dataset import Label
from .errors import InvalidInputError
from .text import parse_key_values, read_text

AIC_POLICIES = ("clarify", "pass_through")


@dataclass(frozen=True)
class DisclosureConfig:
    clear_confirm: str
    who_makes: str | None = None
    purpose: str | None = None
    how_report: str | None = None
    aic_policy: str = "pass_through"
    # (label, classifier id) -> the GuardDecision ``guard`` returns for them,
    # filled as they are met. Keeping it here spares every decision hashing
    # the config; a config is frozen, so its decisions never go stale.
    _decisions: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.clear_confirm or not self.clear_confirm.strip():
            raise InvalidInputError("clear_confirm must be a non-empty string")
        if self.aic_policy not in AIC_POLICIES:
            raise InvalidInputError(f"aic_policy must be one of {AIC_POLICIES}")


@dataclass(frozen=True)
class GuardDecision:
    label: Label
    action: str  # "respond" or "pass"
    response: str | None
    classifier_id: str

    @functools.cached_property
    def _json_head(self) -> str:
        """The decision's JSON line up to its text's value: sorted, "text" is
        the last key. Built on first use, then read from the instance."""
        payload = {
            "label": self.label.value,
            "action": self.action,
            "response": self.response,
            "classifier": self.classifier_id,
            "text": None,
        }
        return json.dumps(payload, sort_keys=True).removesuffix("null}")


def compose_response(cfg: DisclosureConfig) -> str:
    """Join the present components, in fixed order, with single spaces."""
    parts = [cfg.clear_confirm]
    for extra in (cfg.who_makes, cfg.purpose, cfg.how_report):
        if extra:
            parts.append(extra)
    return " ".join(parts)


def guard(utterance: str, classifier, cfg: DisclosureConfig) -> GuardDecision:
    """Label ``utterance`` and decide whether to emit the disclosure. The
    classifier is asked only for its label (``classifier.label``), never for
    a Prediction's scores."""
    key = (classifier.label(utterance), type(classifier).__name__)
    decision = cfg._decisions.get(key)
    if decision is None:
        decision = cfg._decisions[key] = _decide(*key, cfg)
    return decision


def _decide(label: Label, classifier_id: str, cfg: DisclosureConfig) -> GuardDecision:
    """The decision on ``label``, composed once per label, classifier and config."""
    respond = label is Label.POS or (
        label is Label.AIC and cfg.aic_policy == "clarify"
    )
    return GuardDecision(
        label=label,
        action="respond" if respond else "pass",
        response=compose_response(cfg) if respond else None,
        classifier_id=classifier_id,
    )


def decision_to_json(decision: GuardDecision, text: str) -> str:
    """The decision and its text as one JSON object with sorted keys. The
    text is encoded as ``json.dumps(text)`` encodes a str by default."""
    return decision._json_head + encode_basestring_ascii(text) + "}"


# Named configurations reproducing the studied response wordings.
RESPONSE_PRESETS: dict[str, DisclosureConfig] = {
    "cc": DisclosureConfig(clear_confirm="I am a chatbot."),
    "cc_wm": DisclosureConfig(
        clear_confirm="I am a chatbot",
        who_makes="made by Example.com.",
    ),
    "cc_p": DisclosureConfig(
        clear_confirm="I am a chatbot.",
        purpose="I am designed to help you get things done.",
    ),
    "cc_wm_p": DisclosureConfig(
        clear_confirm="I am a chatbot",
        who_makes="made by Example.com.",
        purpose="I am designed to help you get things done.",
    ),
    "cc_wm_p_hr": DisclosureConfig(
        clear_confirm="I am a chatbot",
        who_makes="made by Example.com.",
        purpose="I am designed to help you get things done.",
        how_report=(
            "If I say anything that seems wrong, you can report it to "
            'Example.com by saying "report problem" or by going to '
            "Example.com/bot-issue."
        ),
    ),
    "cc_ai": DisclosureConfig(clear_confirm="I am an A.I."),
    "cc_extra": DisclosureConfig(clear_confirm="I'm not a person. I'm an A.I."),
    "cc_p_alt": DisclosureConfig(
        clear_confirm="I am a chatbot.",
        purpose="I am designed to help you with your insurance policy.",
    ),
}

_CONFIG_KEYS = ("clear_confirm", "who_makes", "purpose", "how_report", "aic_policy")


def parse_guard_config(text: str) -> DisclosureConfig:
    """Read a guard config in the ``parse_key_values`` format."""
    values = parse_key_values(text, _CONFIG_KEYS, "guard config")
    if "clear_confirm" not in values:
        raise InvalidInputError("guard config must set clear_confirm")
    return DisclosureConfig(**values)


def load_guard_config(path) -> DisclosureConfig:
    return parse_guard_config(read_text(path))
