"""Grammar-membership intent classifier.

Decides whether an utterance clearly asks if the system is human (p), is
ambiguous-if-clarified (a), or neither (n), by testing candidate spans for
membership in a positive and an ambiguous grammar. Besides the full
utterance, the heuristics also try the last sentence and every sentence
ending in a question mark, each with and without its trailing punctuation.

One rule labels every text (``classify``): p over a over n, by whether a
candidate is in each language. ``predict``, and so ``guard``, asks the
matcher's memoized search. ``predict_batch``, and so ``evaluate`` and
``probe``, asks two sets from ``grammar.language`` when both grammars fit
its budget, built for the call and dropped after it; otherwise it calls
``predict`` on each text. Both give the same labels.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

from .dataset import Label, Prediction, one_hot_prediction
from .grammar import Grammar, language
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
        in_pos = functools.partial(member, self.pos_grammar)
        in_aic = functools.partial(member, self.aic_grammar)
        return one_hot_prediction(text, classify(text, in_pos, in_aic))

    def predict_batch(self, texts: list[str]) -> list[Prediction]:
        """Each text's ``predict``, from the two languages when both fit
        the budget, else searched."""
        pos = language(self.pos_grammar)
        # aic is None too when pos is: a searched batch enumerates neither
        aic = None if pos is None else language(self.aic_grammar)
        if aic is None:
            return [self.predict(text) for text in texts]
        return [
            one_hot_prediction(text, classify(text, pos.__contains__, aic.__contains__))
            for text in texts
        ]


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


def classify(text: str, in_pos, in_aic) -> Label:
    """Label ``text`` by whether a candidate span is in each language:
    precedence is p over a over n, and a blank text is n."""
    norm = normalize(text)
    if not norm:
        return Label.NEG
    candidates = _candidates(norm)
    if any(map(in_pos, candidates)):
        return Label.POS
    if any(map(in_aic, candidates)):
        return Label.AIC
    return Label.NEG
