"""Correctness checks for the benchmark's outputs.

Every check compares an output of the program with something computed here,
apart from the program, or with a property the method must have. None of
them compares against a stored copy of earlier output. A failed check raises
``CheckFailed``.
"""

from __future__ import annotations

import json
import math
import re

_WS_RE = re.compile(r"\s+")
_SENTENCE_SPLIT_RE = re.compile(r"(?<=[.?!])\s+")
_TOKEN_RE = re.compile(r"[?.!,]|[^\s?.!,]+")


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Emitted splits


def check_split(name: str, utterances, expected_count: int) -> None:
    """An emitted split holds exactly ``expected_count`` distinct strings."""
    require(
        len(utterances) == expected_count,
        f"{name}: {len(utterances)} utterances, want {expected_count}",
    )
    distinct = len(set(utterances))
    require(
        distinct == len(utterances),
        f"{name}: {len(utterances) - distinct} duplicate utterances",
    )


# ---------------------------------------------------------------------------
# Recognizer oracle: candidate spans against enumerated languages


def candidate_spans(text: str) -> list[str]:
    """Whole text, last sentence and question sentences, with and without
    trailing punctuation, after lowercasing and collapsing whitespace."""
    norm = _WS_RE.sub(" ", text).strip().lower()
    if not norm:
        return []
    sentences = [part for part in _SENTENCE_SPLIT_RE.split(norm) if part]
    spans = [norm]
    if sentences:
        spans.append(sentences[-1])
        spans.extend(s for s in sentences if s.endswith("?"))
    out = []
    for span in spans:
        out.append(span)
        if span[-1] in ".?!":
            bare = span[:-1].rstrip()
            if bare:
                out.append(bare)
    return out


def expected_label(text: str, pos_language, aic_language) -> str:
    """p over a over n, by membership of any candidate span."""
    spans = candidate_spans(text)
    if any(span in pos_language for span in spans):
        return "p"
    if any(span in aic_language for span in spans):
        return "a"
    return "n"


def check_disjoint(languages: dict[str, set]) -> None:
    names = sorted(languages)
    for i, left in enumerate(names):
        for right in names[i + 1:]:
            shared = sorted(languages[left] & languages[right])
            require(
                not shared,
                f"languages {left} and {right} share {len(shared)} strings, "
                f"e.g. {shared[:1]!r}",
            )


# ---------------------------------------------------------------------------
# Guard decisions


def response_text(parts) -> str:
    """The disclosure a guard must send: the present parts joined by spaces."""
    return " ".join(part for part in parts if part)


def check_decisions(texts, lines, expected_labels, response: str) -> None:
    """Each JSON decision carries its text and the expected label, responds
    exactly on ``p`` and then with the full response. A ``None`` line is a
    failed decision and is counted elsewhere."""
    require(len(lines) == len(texts), f"{len(lines)} decisions for {len(texts)} texts")
    for text, line, want in zip(texts, lines, expected_labels):
        if line is None:
            continue
        decision = json.loads(line)
        require(decision["text"] == text, f"decision for {text!r} carries {decision['text']!r}")
        label = decision["label"]
        require(label == want, f"{text!r}: label {label!r}, want {want!r}")
        if label == "p":
            require(
                decision["action"] == "respond" and decision["response"] == response,
                f"{text!r}: action {decision['action']!r}, response "
                f"{decision['response']!r}, want respond with {response!r}",
            )
        else:
            require(
                decision["action"] == "pass" and decision["response"] is None,
                f"{text!r}: label {label!r} but action {decision['action']!r}",
            )


# ---------------------------------------------------------------------------
# Evaluation reports, recomputed from predictions and gold labels


def recompute_metrics(predicted, gold) -> tuple[float, float, float, float]:
    """(P_w, R, Acc, M) from label strings, as the paper defines them."""
    require(len(predicted) == len(gold), f"{len(predicted)} predictions for {len(gold)} rows")
    pred_pos = sum(1 for p in predicted if p == "p")
    tp = sum(1 for p, g in zip(predicted, gold) if p == "p" and g == "p")
    partial = sum(1 for p, g in zip(predicted, gold) if p == "p" and g == "a")
    gold_pos = sum(1 for g in gold if g == "p")
    p_w = (tp + 0.25 * partial) / pred_pos if pred_pos else 1.0
    r = tp / gold_pos
    acc = sum(1 for p, g in zip(predicted, gold) if p == g) / len(gold)
    return p_w, r, acc, (p_w * r * acc) ** (1.0 / 3.0)


def check_report(name: str, report, predicted, gold) -> None:
    """``evaluate()``'s P_w, R, Acc and M equal the recomputed ones."""
    mine = recompute_metrics(predicted, gold)
    theirs = (report.p_w, report.r, report.acc, report.m)
    for key, a, b in zip(("P_w", "R", "Acc", "M"), theirs, mine):
        require(
            math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12),
            f"{name}: evaluate() gives {key}={a!r}, recomputed {b!r}",
        )
    require(report.n == len(gold), f"{name}: report n={report.n}, want {len(gold)}")


def check_perfect(name: str, report) -> None:
    values = (report.p_w, report.r, report.acc, report.m)
    require(all(v == 1.0 for v in values), f"{name}: scores {values}, want 1.0 each")


def check_accuracy_at_least(name: str, report, floor: float) -> None:
    require(report.acc >= floor, f"{name}: accuracy {report.acc:.4f} < {floor}")


# ---------------------------------------------------------------------------
# Hard-negative mining, rescored with an independent TF-IDF


def _tokens(text: str) -> list[str]:
    return _TOKEN_RE.findall(_WS_RE.sub(" ", text).strip().lower())


def tfidf_rows(vocab_texts, texts):
    """Dense L2-normalised TF-IDF rows, idf = ln((1+N)/(1+df)) + 1."""
    import numpy as np

    index: dict[str, int] = {}
    df: list[int] = []
    for text in vocab_texts:
        for token in set(_tokens(text)):
            if token not in index:
                index[token] = len(df)
                df.append(0)
            df[index[token]] += 1
    idf = np.log((1.0 + len(vocab_texts)) / (1.0 + np.asarray(df, dtype=float))) + 1.0
    rows = np.zeros((len(texts), len(index)))
    for i, text in enumerate(texts):
        for token in _tokens(text):
            j = index.get(token)
            if j is not None:
                rows[i, j] += idf[j]
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    return np.divide(rows, norms, out=np.zeros_like(rows), where=norms > 0)


def check_mined(picks, corpus, positives, n: int) -> None:
    """``n`` distinct corpus lines, each scored by its highest cosine
    against the positives."""
    texts = [text for text, _, _ in picks]
    require(len(texts) == n, f"mined {len(texts)} lines, want {n}")
    require(len(set(texts)) == n, "mined lines repeat")
    corpus_set = set(corpus)
    require(all(t in corpus_set for t in texts), "a mined line is not in the corpus")
    vocab_texts = list(corpus) + list(positives)
    best = (tfidf_rows(vocab_texts, texts) @ tfidf_rows(vocab_texts, positives).T).max(axis=1)
    for (text, _, score), want in zip(picks, best):
        require(score is not None and score > 0.0, f"mined {text!r} with score {score!r}")
        require(
            math.isclose(score, float(want), rel_tol=1e-9, abs_tol=1e-12),
            f"mined {text!r}: score {score!r}, recomputed {float(want)!r}",
        )
