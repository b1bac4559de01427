"""Tests of the benchmark itself: each check fails on a deliberately wrong
output, and the command prints exactly the metrics BENCHMARK.json declares.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from checks import (
    CheckFailed,
    check_decisions,
    check_mined,
    check_perfect,
    check_report,
    check_split,
    expected_label,
)
from speed import REF_NS, Timeline
from workloads import PRESET, R, Recorded, expected_response, load_grammars

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def recognizer():
    grammars = load_grammars(("pos", "aic"))
    return R.recognizer.RecognizerModel(grammars["pos"], grammars["aic"])


@pytest.fixture(scope="module")
def languages():
    grammars = load_grammars(("pos", "aic"))
    return {name: set(R.grammar.enumerate_strings(g)) for name, g in grammars.items()}


def _rows():
    texts = [("are you a robot", "p"), ("am i talking to a real person", "p"),
             ("you sound like a robot", "a"), ("do you like dogs", "n"),
             ("are you a morning person", "n")]
    return [R.dataset.LabeledUtterance(text, label) for text, label in texts]


class _FlipOne:
    """Stub classifier: the gold label everywhere except the first row."""

    def __init__(self, rows, flip: bool):
        self.gold = {row.text: row.label for row in rows}
        self.first = rows[0].text if flip else None

    def predict_batch(self, texts):
        labels = [R.dataset.Label.NEG if t == self.first else self.gold[t] for t in texts]
        return [R.dataset.one_hot_prediction(t, lab) for t, lab in zip(texts, labels)]


def test_split_check_rejects_a_duplicate():
    check_split("ok", ("a", "b", "c"), 3)
    with pytest.raises(CheckFailed, match="duplicate"):
        check_split("dup", ("a", "b", "a"), 3)
    with pytest.raises(CheckFailed, match="want 4"):
        check_split("short", ("a", "b", "c"), 4)


def test_report_checks_reject_a_flipped_label():
    rows = _rows()
    gold = [row.label.value for row in rows]
    honest = Recorded(_FlipOne(rows, flip=False))
    report = R.evaluation.evaluate(honest, rows)
    check_report("honest", report, honest.labels, gold)
    check_perfect("honest", report)

    flipped = Recorded(_FlipOne(rows, flip=True))
    report = R.evaluation.evaluate(flipped, rows)
    check_report("flipped", report, flipped.labels, gold)
    with pytest.raises(CheckFailed, match="want 1.0"):
        check_perfect("flipped", report)
    # a report that does not match the predictions it was made from
    with pytest.raises(CheckFailed, match="evaluate\\(\\) gives"):
        check_report("mismatch", report, honest.labels, gold)


def _decisions(texts, classifier):
    cfg = R.guard.RESPONSE_PRESETS[PRESET]
    return [R.guard.decision_to_json(R.guard.guard(t, classifier, cfg), text=t) for t in texts]


def test_decision_check_rejects_a_flipped_label_or_a_missing_part(recognizer, languages):
    texts = ["are you a robot?", "hold on. are you a robot", "you sound like a robot",
             "do you like dogs", "are u a robot"]
    labels = [expected_label(t, languages["pos"], languages["aic"]) for t in texts]
    assert labels == ["p", "p", "a", "n", "n"]
    lines = _decisions(texts, recognizer)
    check_decisions(texts, lines, labels, expected_response())

    with pytest.raises(CheckFailed, match="label"):
        check_decisions(texts, lines, ["a"] + labels[1:], expected_response())

    first = json.loads(lines[0])
    cfg = R.guard.RESPONSE_PRESETS[PRESET]
    first["response"] = " ".join((cfg.clear_confirm, cfg.who_makes, cfg.purpose))
    short = [json.dumps(first, sort_keys=True)] + lines[1:]
    with pytest.raises(CheckFailed, match="want respond"):
        check_decisions(texts, short, labels, expected_response())


def test_mining_check_rejects_a_wrong_score():
    corpus = ["do you like robots", "i love dogs", "tell me about people",
              "are you a morning person", "what do you think about computers"]
    positives = ["are you a robot", "are you a real person", "am i talking to a computer"]
    mined = R.evaluation.mine_negatives(corpus, positives, 3, "tfidf_weighted", seed=1)
    check_mined(mined.utterances, corpus, positives, 3)
    text, source, score = mined.utterances[0]
    wrong = ((text, source, score * 1.01),) + mined.utterances[1:]
    with pytest.raises(CheckFailed, match="recomputed"):
        check_mined(wrong, corpus, positives, 3)


def test_timeline_scales_clock_time_by_the_sampled_speed():
    at = [i * 10_000_000 for i in range(50)]  # a sample every 10 ms
    steady = Timeline(at, [REF_NS] * 50)
    assert steady.span_ns(at[3], at[40]) == pytest.approx(at[40] - at[3])
    # the reference loop ran at half speed for the second half: an interval
    # there counts half its clock time, one across the change in between
    halved = Timeline(at, [REF_NS] * 25 + [2 * REF_NS] * 25)
    assert halved.span_ns(at[2], at[12]) == pytest.approx(at[12] - at[2])
    assert halved.span_ns(at[37], at[47]) == pytest.approx((at[47] - at[37]) / 2)
    assert (at[47] - at[2]) / 2 < halved.span_ns(at[2], at[47]) < at[47] - at[2]
    # before the first sample and after the last, the nearest speed holds
    assert halved.span_ns(at[0] - 1000, at[0]) == pytest.approx(1000)
    assert halved.span_ns(at[-1], at[-1] + 1000) == pytest.approx(500)


def _bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    done = _bench("--workload", "guard_recognizer", "--seed", "3", "--seconds", "1",
                  "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[section]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "typo_sweep", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
