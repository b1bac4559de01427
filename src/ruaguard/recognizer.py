"""Grammar-membership intent classifier.

Decides whether an utterance clearly asks if the system is human (p), is
ambiguous-if-clarified (a), or neither (n), by testing candidate spans for
membership in a positive and an ambiguous grammar. Besides the full
utterance, the heuristics also try the last sentence and every sentence
ending in a question mark, each with and without its trailing punctuation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .dataset import Label, Prediction, one_hot_prediction
from .grammar import Grammar, load_grammar
from .matching import member
from .text import normalize

_SENTENCE_SPLIT_RE = re.compile(r"(?<=[.?!])\s+")
_TRAILING_PUNCT = (".", "?", "!")


def split_sentences(text: str) -> list[str]:
    """Split on sentence-final punctuation followed by space, keeping it."""
    return [part for part in _SENTENCE_SPLIT_RE.split(text) if part]


@dataclass(eq=False)
class RecognizerModel:
    pos_grammar: Grammar
    aic_grammar: Grammar

    def predict(self, text: str) -> Prediction:
        return one_hot_prediction(text, classify(self, text))

    def predict_batch(self, texts: list[str]) -> list[Prediction]:
        return [self.predict(text) for text in texts]


def load_recognizer(pos_path, aic_path) -> RecognizerModel:
    return RecognizerModel(
        pos_grammar=load_grammar(pos_path),
        aic_grammar=load_grammar(aic_path),
    )


def _candidates(norm: str) -> list[str]:
    # norm is non-empty, so it holds at least one sentence
    sentences = split_sentences(norm)
    spans = [norm, sentences[-1]]
    spans.extend(s for s in sentences if s.endswith("?"))
    out: dict[str, None] = {}
    for span in spans:
        out[span] = None
        if span.endswith(_TRAILING_PUNCT):
            bare = span[:-1].rstrip()
            if bare:
                out[bare] = None
    return list(out)


def classify(model: RecognizerModel, text: str) -> Label:
    """Label ``text``; precedence is p over a over n, empty input is n."""
    norm = normalize(text)
    if not norm:
        return Label.NEG
    candidates = _candidates(norm)
    if any(member(model.pos_grammar, c) for c in candidates):
        return Label.POS
    if any(member(model.aic_grammar, c) for c in candidates):
        return Label.AIC
    return Label.NEG
