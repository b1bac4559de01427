"""Labeled-utterance records and their TSV file format.

Labels: p = clearly asks whether the system is human, a = ambiguous if
clarified (a scripted clarification may be inappropriate), n = clearly not
asking. Files are UTF-8 TSV with a required header row
``text<TAB>label<TAB>split<TAB>source``. Rows end at "\n", "\r\n" or "\r"
only, and blank rows are skipped; the grammar DSL alone ends lines at "\n"
only. Writing then reading a file this module produced is byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .errors import DatasetFormatError, InvalidInputError
from .text import format_tsv, parse_file, tsv_rows

SPLIT_VALUES = ("train", "val", "test", "addtest", "none")


class Label(str, Enum):
    POS = "p"
    AIC = "a"
    NEG = "n"


CLASS_ORDER = (Label.POS, Label.AIC, Label.NEG)
CLASS_INDEX = {label: i for i, label in enumerate(CLASS_ORDER)}

_HEADER = ("text", "label", "split", "source")


@dataclass(frozen=True)
class LabeledUtterance:
    text: str
    label: Label
    split: str = "none"
    source: str = "grammar"

    def __post_init__(self):
        # keep the TSV format unambiguous: cell text never contains tab/newline
        cleaned = (
            self.text.replace("\t", " ").replace("\n", " ").replace("\r", " ")
        )
        if cleaned != self.text:
            object.__setattr__(self, "text", cleaned)
        if not cleaned.strip():
            raise InvalidInputError("utterance text is empty")
        if not isinstance(self.label, Label):
            object.__setattr__(self, "label", Label(self.label))
        if self.split not in SPLIT_VALUES:
            raise ValueError(f"unknown split {self.split!r}")


class Prediction(NamedTuple):
    """One classifier output: immutable, compared and hashed by value. A
    named tuple builds in about half the time of a frozen dataclass, and
    every guard decision builds one."""

    text: str
    label: Label
    scores: tuple[float, float, float]  # per class, in CLASS_ORDER


def prediction_from_scores(text: str, scores) -> Prediction:
    """Build a Prediction whose label is the argmax, ties broken by class order."""
    values = tuple(map(float, scores))
    if len(values) != len(CLASS_ORDER):
        raise ValueError("need one score per class")
    best = 0
    for i in range(1, len(values)):
        if values[i] > values[best]:
            best = i
    return Prediction(text, CLASS_ORDER[best], values)


_ONE_HOT_SCORES = {
    label: tuple(1.0 if cls is label else 0.0 for cls in CLASS_ORDER) for label in CLASS_ORDER
}


def one_hot_prediction(text: str, label: Label) -> Prediction:
    return Prediction(text, label, _ONE_HOT_SCORES[label])


def format_dataset(rows: list[LabeledUtterance]) -> str:
    return format_tsv(_HEADER, ((r.text, r.label.value, r.split, r.source) for r in rows))


def parse_dataset(text: str) -> list[LabeledUtterance]:
    rows: list[LabeledUtterance] = []
    for lineno, (utterance_text, label_text, split, source) in tsv_rows(text, _HEADER):
        try:
            label = Label(label_text)
        except ValueError:
            raise DatasetFormatError(f"unknown label {label_text!r}", lineno) from None
        if split not in SPLIT_VALUES:
            raise DatasetFormatError(f"unknown split {split!r}", lineno)
        try:
            rows.append(LabeledUtterance(utterance_text, label, split, source))
        except InvalidInputError:
            raise DatasetFormatError("empty utterance text", lineno) from None
    return rows


def read_dataset(path) -> list[LabeledUtterance]:
    return parse_file(path, parse_dataset)


def filter_split(rows: list[LabeledUtterance], split: str) -> list[LabeledUtterance]:
    if split not in SPLIT_VALUES:
        raise ValueError(f"unknown split {split!r}")
    return [row for row in rows if row.split == split]


def label_distribution(rows: list[LabeledUtterance]) -> dict[Label, float]:
    """Fraction of rows per label, in class order."""
    if not rows:
        raise ValueError("no rows")
    counts = {label: 0 for label in CLASS_ORDER}
    for row in rows:
        counts[row.label] += 1
    return {label: counts[label] / len(rows) for label in CLASS_ORDER}
