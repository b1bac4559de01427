"""Metrics, probe recall, and hard-negative mining.

Metrics over the p/a/n labels:

- weighted precision P_w: positive-prediction precision with 0.25 partial
  credit when a gold-a example is predicted p; with nothing predicted p it
  is 1.0, and the report flags it as vacuous
- recall R over gold-p only
- three-class accuracy
- M, the geometric mean of the three

Mining selects negative candidates from a corpus either uniformly or
weighted by the maximum TF-IDF cosine against the positive examples
(exponential-sort sampling without replacement).
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass

from .dataset import (
    CLASS_INDEX,
    CLASS_ORDER,
    Label,
    LabeledUtterance,
)
from .errors import InvalidInputError, RuaGuardError
from .features import best_rows, fit_tfidf, vectorize_many
from .text import format_tsv

_POS, _AIC = CLASS_INDEX[Label.POS], CLASS_INDEX[Label.AIC]


@dataclass(frozen=True)
class MetricsReport:
    p_w: float
    r: float
    acc: float
    m: float
    confusion: tuple  # 3x3 counts, rows gold, columns predicted, class order
    n: int
    vacuous_precision: bool = False


def _confusion(predicted: list[Label], gold: list[Label]) -> list[list[int]]:
    """3x3 counts, rows gold, columns predicted, in class order."""
    if len(predicted) != len(gold):
        raise RuaGuardError(f"{len(predicted)} predictions vs {len(gold)} gold labels")
    confusion = [[0, 0, 0] for _ in CLASS_ORDER]
    for p, y in zip(predicted, gold):
        confusion[CLASS_INDEX[y]][CLASS_INDEX[p]] += 1
    return confusion


def _precision_w(confusion) -> float | None:
    """P_w of a confusion, or None when nothing is predicted p."""
    pred_pos = sum(row[_POS] for row in confusion)
    if pred_pos == 0:
        return None
    return (confusion[_POS][_POS] + 0.25 * confusion[_AIC][_POS]) / pred_pos


def _recall(confusion) -> float:
    gold_pos = sum(confusion[_POS])
    if gold_pos == 0:
        raise InvalidInputError("no gold-positive examples; recall undefined")
    return confusion[_POS][_POS] / gold_pos


def geometric_mean(p_w: float, r: float, acc: float) -> float:
    return (p_w * r * acc) ** (1.0 / 3.0)


def evaluate(model, data: list[LabeledUtterance]) -> MetricsReport:
    """Score ``model`` on ``data`` by its ``predict_batch``."""
    if not data:
        raise InvalidInputError("no evaluation rows")
    preds = model.predict_batch([row.text for row in data])
    confusion = _confusion([p.label for p in preds], [row.label for row in data])
    r = _recall(confusion)
    p_w = _precision_w(confusion)
    vacuous = p_w is None
    if vacuous:
        p_w = 1.0
    acc = sum(confusion[i][i] for i in range(3)) / len(data)
    return MetricsReport(
        p_w=p_w,
        r=r,
        acc=acc,
        m=geometric_mean(p_w, r, acc),
        confusion=tuple(tuple(row) for row in confusion),
        n=len(data),
        vacuous_precision=vacuous,
    )


def format_report(report: MetricsReport) -> str:
    values = (report.p_w, report.r, report.acc, report.m)
    return format_tsv(("P_w", "R", "Acc", "M"), [[f"{value * 100:.1f}" for value in values]])


def report_audit_json(report: MetricsReport, **extra) -> str:
    payload = {
        "P_w": report.p_w,
        "R": report.r,
        "Acc": report.acc,
        "M": report.m,
        "n": report.n,
        "confusion": [list(row) for row in report.confusion],
        "class_order": [c.value for c in CLASS_ORDER],
        "vacuous_precision": report.vacuous_precision,
    }
    payload.update(extra)
    return json.dumps(payload, sort_keys=True)


# ---------------------------------------------------------------------------
# Probe recall


@dataclass(frozen=True)
class ProbeReport:
    fraction: float
    verdicts: tuple  # (text, predicted label value, detected) per probe


def probe_recall(model, probes: list[str]) -> ProbeReport:
    """Fraction of probe texts classified p, with a per-probe audit table."""
    if not probes:
        raise InvalidInputError("no probes")
    preds = model.predict_batch(probes)
    verdicts = tuple(
        (text, pred.label.value, pred.label is Label.POS)
        for text, pred in zip(probes, preds)
    )
    detected = sum(1 for _, _, hit in verdicts if hit)
    return ProbeReport(fraction=detected / len(probes), verdicts=verdicts)


# ---------------------------------------------------------------------------
# Hard-negative mining


@dataclass(frozen=True)
class MinedNegatives:
    utterances: tuple  # (text, source, score or None)
    method: str


def _not_enough(available: int, requested: int) -> InvalidInputError:
    return InvalidInputError(f"only {available} candidates available for {requested} requested")


def mine_negatives(
    corpus: list[str],
    positives: list[str],
    n: int,
    method: str = "tfidf_weighted",
    seed: int = 0,
    corpus_name: str = "corpus",
) -> MinedNegatives:
    """Pick ``n`` distinct corpus lines, uniformly or TF-IDF-similarity weighted.

    Weighted scores are max cosine against any positive, by ``best_rows``, one
    block of corpus lines at a time; zero-score lines are never selected, and
    having fewer than ``n`` scorable lines raises InvalidInputError.
    """
    if not corpus:
        raise InvalidInputError("mining corpus is empty")
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > len(corpus):
        raise _not_enough(len(corpus), n)
    rng = random.Random(seed)
    if method == "random":
        picked = rng.sample(range(len(corpus)), n)
        utterances = tuple((corpus[i], corpus_name, None) for i in picked)
        return MinedNegatives(utterances=utterances, method=method)
    if method != "tfidf_weighted":
        raise ValueError(f"unknown mining method {method!r}")
    if not positives:
        raise InvalidInputError("no positive examples to weight against")
    vocab = fit_tfidf(list(corpus) + list(positives))
    # vectorize_many is looked up here, so a wrapped module attribute sees every block
    rows_of = functools.partial(vectorize_many, vocab)
    P = rows_of(list(positives))
    scores = best_rows(rows_of, corpus, P, P.any(axis=0))[1].tolist()
    # exponential-sort weighted sampling without replacement:
    # key = -ln(u)/score, the n smallest keys win; zero scores are excluded
    keyed = []
    for i, score in enumerate(scores):
        u = rng.random()
        if score > 0.0:
            keyed.append((-math.log(u) / score, i))
    if len(keyed) < n:
        raise _not_enough(len(keyed), n)
    keyed.sort()
    utterances = tuple((corpus[i], corpus_name, scores[i]) for _, i in keyed[:n])
    return MinedNegatives(utterances=utterances, method="tfidf_weighted")


def format_mined_candidates(mined: MinedNegatives) -> str:
    """Triage TSV for manual review; scores blank for the random method."""
    return format_tsv(("text", "score", "source"), (
        (text, "" if score is None else f"{score:.6f}", source)
        for text, source, score in mined.utterances
    ))


def mined_to_rows(mined: MinedNegatives, split: str = "none") -> list[LabeledUtterance]:
    """Reviewed candidates become negative-labeled dataset rows."""
    return [
        LabeledUtterance(text=text, label=Label.NEG, split=split, source=source)
        for text, source, _ in mined.utterances
    ]
