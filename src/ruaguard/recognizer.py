"""Grammar-membership intent classifier.

Decides whether an utterance clearly asks if the system is human (p), is
ambiguous-if-clarified (a), or neither (n), by testing candidate spans for
membership in a positive and an ambiguous grammar. Besides the full
utterance, the heuristics also try the last sentence and every sentence
ending in a question mark, each with and without its trailing punctuation.

One text (``predict``, and so ``guard``) is decided by the matcher's
memoized search. A batch (``predict_batch``, and so ``evaluate`` and
``probe``) looks its candidates up in one ``{string: label}`` table over
both grammars' languages, built for the call and dropped after it, when
the batch is large enough to pay for building it; otherwise it is searched
text by text too. Both give the same labels.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .dataset import Label, Prediction, one_hot_prediction
from .grammar import (
    ENUMERATION_BUDGET,
    Grammar,
    enumerate_strings,
    enumeration_size,
    load_grammar,
)
from .matching import member
from .text import normalize

_SENTENCE_SPLIT_RE = re.compile(r"(?<=[.?!])\s+")
_TRAILING_PUNCT = (".", "?", "!")

# Searching one text costs about as much as enumerating this many characters
# of enumeration_size (about 80 µs against about 3 ns, on pos and aic), so a
# batch takes the table once its texts would cost more to search than the
# table to build: from 58 texts on pos and aic (1.9M characters).
SEARCH_CHARS = 2**15


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
        """Each text's ``predict``, looked up in a table of both languages
        when the batch pays for building it, else searched."""
        size = enumeration_size(self.pos_grammar) + enumeration_size(self.aic_grammar)
        if size > min(ENUMERATION_BUDGET, SEARCH_CHARS * len(texts)):
            return [self.predict(text) for text in texts]
        # pos after aic, so a string in both languages is labelled p
        table = dict.fromkeys(enumerate_strings(self.aic_grammar), Label.AIC)
        table.update(dict.fromkeys(enumerate_strings(self.pos_grammar), Label.POS))
        return [one_hot_prediction(text, _look_up(table, text)) for text in texts]


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


def _look_up(table: dict[str, Label], text: str) -> Label:
    """``classify``'s label for ``text``, its candidates looked up in ``table``."""
    norm = normalize(text)
    if not norm:
        return Label.NEG
    label = Label.NEG
    for candidate in _candidates(norm):
        found = table.get(candidate)
        if found is Label.POS:
            return found
        if found is not None:
            label = found
    return label
