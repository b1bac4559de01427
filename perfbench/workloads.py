"""The three workloads: what each sets up, times and checks.

Each workload has four steps. ``setup`` loads what a user would load before
the first request and makes one warm-up decision. ``prepare`` builds the
inputs from the seed, outside any timing. ``round`` does one whole round of
timed work and returns its outputs. ``check`` compares those outputs with
the benchmark's own computations and raises ``CheckFailed`` on a mismatch.

Calls into ruaguard go through ``R.<module>.<name>``, looked up at call
time, so that the traced run sees them.
"""

from __future__ import annotations

import importlib
import importlib.resources
import json
import random
import statistics
import time
from array import array
from dataclasses import dataclass, field

from speed import PROBE
from checks import (
    check_accuracy_at_least,
    check_decisions,
    check_disjoint,
    check_mined,
    check_perfect,
    check_report,
    check_split,
    expected_label,
    require,
    response_text,
)


class _Modules:
    """``R.guard`` is the module ``ruaguard.guard``, not the function the
    package re-exports under the same name."""

    def __getattr__(self, name):
        return importlib.import_module(f"ruaguard.{name}")


R = _Modules()

PRESET = "cc_wm_p_hr"  # the preset with all four response parts
STANDARD_COUNTS = {"p": (1904, 408, 408), "a": (476, 102, 102), "n": (2380, 510, 510)}
GRAMMAR_OF = {"p": "pos", "a": "aic", "n": "neg"}
SPLITS = ("train", "val", "test")
# The standard partition. The seed of a run varies what is sampled from it,
# not the partition, so that every seed asks for about the same work.
PARTITION_SEED = 0


def load_grammars(names):
    data = importlib.resources.files("ruaguard").joinpath("data")
    return {name: R.grammar.load_grammar(str(data / f"{name}.cfg")) for name in names}


def expected_response() -> str:
    cfg = R.guard.RESPONSE_PRESETS[PRESET]
    return response_text((cfg.clear_confirm, cfg.who_makes, cfg.purpose, cfg.how_report))


@dataclass
class GuardPhase:
    """Decisions of one guard phase: a JSON line per text (``None`` where the
    decision raised) and the ``PROBE.clock_ns`` start and end of every
    decision."""

    texts: list
    lines: list
    starts_ns: array
    ends_ns: array
    errors: list = field(default_factory=list)


def guard_phase(texts, classifier, cfg) -> GuardPhase:
    """Decide each text in turn, as ``ruaguard guard`` does per input line."""
    decide, to_json = R.guard.guard, R.guard.decision_to_json
    clock = PROBE.clock_ns
    lines = []
    starts = array("q")
    ends = array("q")
    errors = []
    for text in texts:
        t0 = clock()
        try:
            line = to_json(decide(text, classifier, cfg), text=text)
        except Exception as exc:  # a failed decision is counted, not fatal
            line = None
            errors.append(f"{text!r}: {exc!r}")
        ends.append(clock())
        starts.append(t0)
        lines.append(line)
    return GuardPhase(list(texts), lines, starts, ends, errors)


@dataclass
class Round:
    """One round's timed work: its ``PROBE.clock_ns`` start and end, the
    operations it attempted, its guard phase and the outputs to check."""

    start_ns: int
    end_ns: int
    attempted: int
    guard: GuardPhase
    outputs: dict


class Recorded:
    """Model proxy that keeps every prediction ``evaluate()`` asks for."""

    def __init__(self, model):
        self.model = model
        self.labels: list[str] = []

    def predict_batch(self, texts):
        preds = self.model.predict_batch(texts)
        self.labels.extend(p.label.value for p in preds)
        return preds


# ---------------------------------------------------------------------------
# Shared set-up: the recognizer and one warm-up decision


class _RecognizerSetup:
    grammars = ("pos", "aic")

    def setup(self) -> dict:
        grammars = load_grammars(self.grammars)
        recognizer = R.recognizer.RecognizerModel(grammars["pos"], grammars["aic"])
        return {"grammars": grammars, "recognizer": recognizer,
                "cfg": R.guard.RESPONSE_PRESETS[PRESET]}

    def warm_up(self, state) -> None:
        decision = R.guard.guard("are you a robot?", state["recognizer"], state["cfg"])
        R.guard.decision_to_json(decision, text="are you a robot?")

    def languages(self, state, names) -> dict[str, set]:
        return {
            name: set(R.grammar.enumerate_strings(state["grammars"][name]))
            for name in names
        }


# ---------------------------------------------------------------------------
# train_eval


class TrainEval(_RecognizerSetup):
    """Partition, emit, mine, train four classifiers, evaluate them and the
    recognizer, then guard val+test with the n-gram model, several times."""

    grammars = ("pos", "aic", "neg")
    mined = 500
    accuracy_floor = 0.95
    # Passes over val+test in the guard phase, about half a second each:
    # 32,640 decisions, spread over enough seconds that the guard figures
    # are steady in reference time.
    guard_passes = 16

    def prepare(self, state, seed: int) -> dict:
        return {"seed": seed}

    def round(self, state, inputs) -> Round:
        seed = inputs["seed"]
        derive = R.hashing.derive_seed
        grammars = state["grammars"]
        attempted = 0
        t0 = PROBE.clock_ns()
        emitted = {}
        rows = {split: [] for split in SPLITS}
        for label, counts in STANDARD_COUNTS.items():
            parts = R.partition.partition(
                grammars[GRAMMAR_OF[label]], R.partition.PartitionConfig(seed=PARTITION_SEED)
            )
            batches = R.partition.emit_split_datasets(
                parts, counts, derive(seed, f"standard:{label}")
            )
            attempted += 2
            for split, batch in batches.items():
                emitted[(label, split)] = batch.utterances
                rows[split].extend(
                    R.dataset.LabeledUtterance(text, label, split=split)
                    for text in batch.utterances
                )
        corpus = list(emitted[("n", "train")])
        positives = list(emitted[("p", "train")])
        mined = R.evaluation.mine_negatives(
            corpus, positives, self.mined, "tfidf_weighted", seed=derive(seed, "mine")
        )
        train = rows["train"]
        models = {
            "bowlr": R.classifiers.train_bow_lr(train, seed=seed),
            "ir": R.classifiers.fit_ir(train),
            "ngram": R.classifiers.train_ngram_linear(train, seed=seed),
            "random": R.classifiers.fit_random_guess(train, seed=seed),
            "recognizer": state["recognizer"],
        }
        attempted += 1 + 4
        reports = {}
        for name, model in models.items():
            splits = ("train", "val", "test") if name in ("ir", "recognizer") else ("val", "test")
            for split in splits:
                recorded = Recorded(model)
                reports[(name, split)] = (R.evaluation.evaluate(recorded, rows[split]), recorded.labels)
                attempted += 1
        held_out = [row.text for row in rows["val"] + rows["test"]] * self.guard_passes
        phase = guard_phase(held_out, models["ngram"], state["cfg"])
        return Round(t0, PROBE.clock_ns(), attempted + len(held_out), phase, {
            "emitted": emitted, "rows": rows, "mined": mined.utterances,
            "corpus": corpus, "positives": positives, "reports": reports,
        })

    def check(self, state, inputs, rnd: Round) -> None:
        out = rnd.outputs
        for (label, split), utterances in out["emitted"].items():
            check_split(f"{GRAMMAR_OF[label]}.{split}", utterances,
                        STANDARD_COUNTS[label][SPLITS.index(split)])
        check_mined(out["mined"], out["corpus"], out["positives"], self.mined)
        for (name, split), (report, predicted) in out["reports"].items():
            gold = [row.label.value for row in out["rows"][split]]
            check_report(f"{name} on {split}", report, predicted, gold)
        for split in SPLITS:
            check_perfect(f"recognizer on {split}", out["reports"][("recognizer", split)][0])
        check_perfect("ir on train", out["reports"][("ir", "train")][0])
        for name in ("bowlr", "ngram"):
            check_accuracy_at_least(f"{name} on test", out["reports"][(name, "test")][0],
                                    self.accuracy_floor)
        # the guard labels each held-out text as evaluate() saw the model do
        ngram_labels = out["reports"][("ngram", "val")][1] + out["reports"][("ngram", "test")][1]
        check_decisions(rnd.guard.texts, rnd.guard.lines, ngram_labels * self.guard_passes,
                        expected_response())

    def extras(self, rnd: Round) -> dict:
        return {
            f"M.{name}.{split}": report.m
            for (name, split), (report, _) in rnd.outputs["reports"].items()
        }


# ---------------------------------------------------------------------------
# guard_recognizer


class GuardRecognizer(_RecognizerSetup):
    """A stream of held-out utterances in the dataset's 4:1:5 proportion,
    a quarter of them behind a negative lead-in sentence."""

    stream = 8000
    lead_in_share = 0.25

    def prepare(self, state, seed: int) -> dict:
        state["grammars"].update(load_grammars(("neg",)))
        languages = self.languages(state, ("pos", "aic", "neg"))
        check_disjoint(languages)
        derive = R.hashing.derive_seed
        proportions = {"p": 4, "a": 1, "n": 5}
        items = []
        for label, share in proportions.items():
            grammar = state["grammars"][GRAMMAR_OF[label]]
            test = R.partition.partition(
                grammar, R.partition.PartitionConfig(seed=PARTITION_SEED)
            )
            n = self.stream * share // sum(proportions.values())
            batch = R.generation.sample(
                test.sub_grammars["test"], n, derive(seed, f"stream:{label}"), dedup=False
            )
            items.extend((text, label) for text in batch.utterances)
        rng = random.Random(derive(seed, "stream:order"))
        rng.shuffle(items)
        lead_ins = sorted(
            text for text in languages["neg"]
            if not any(mark in text for mark in ".?!")
        )
        pos_language, aic_language = languages["pos"], languages["aic"]
        texts, labels = [], []
        for text, label in items:
            if rng.random() < self.lead_in_share:
                candidate = f"{rng.choice(lead_ins)}{rng.choice('.?')} {text}"
                # an utterance of several sentences can lose its label behind
                # a lead-in; such an utterance stays bare
                if expected_label(candidate, pos_language, aic_language) == label:
                    text = candidate
            require(expected_label(text, pos_language, aic_language) == label,
                    f"{text!r} from the {GRAMMAR_OF[label]} grammar has another label")
            texts.append(text)
            labels.append(label)
        return {"texts": texts, "labels": labels}

    def round(self, state, inputs) -> Round:
        t0 = PROBE.clock_ns()
        phase = guard_phase(inputs["texts"], state["recognizer"], state["cfg"])
        return Round(t0, PROBE.clock_ns(), len(phase.texts), phase, {})

    def check(self, state, inputs, rnd: Round) -> None:
        check_decisions(rnd.guard.texts, rnd.guard.lines, inputs["labels"], expected_response())

    def extras(self, rnd: Round) -> dict:
        return {}


# ---------------------------------------------------------------------------
# typo_sweep


def _modifiers():
    spec = R.generation.ModifierSpec
    # A variant weight close to the original makes most emitted strings
    # carry a typo, so the sweep leans on the matcher's reject path.
    return (
        spec("you", (("u", 1.0), ("yu", 1.0), ("yuo", 1.0)), original_weight=1.5),
        spec("robot", (("rob0t", 1.0), ("robto", 1.0)), original_weight=1.5),
        spec("human", (("humna", 1.0), ("hooman", 1.0)), original_weight=1.5),
    )


class TypoSweep(_RecognizerSetup):
    """Per typo modifier on ``pos``: rewrite the grammar, partition it, emit
    the standard ``pos`` counts and guard every emitted utterance."""

    def prepare(self, state, seed: int) -> dict:
        return {"seed": seed, "modifiers": _modifiers(),
                "languages": self.languages(state, ("pos", "aic"))}

    def round(self, state, inputs) -> Round:
        seed = inputs["seed"]
        derive = R.hashing.derive_seed
        pos = state["grammars"]["pos"]
        t0 = PROBE.clock_ns()
        emitted = {}
        attempted = 0
        for spec in inputs["modifiers"]:
            modified = R.generation.apply_modifier(pos, spec)
            parts = R.partition.partition(
                modified, R.partition.PartitionConfig(seed=PARTITION_SEED)
            )
            batches = R.partition.emit_split_datasets(
                parts, STANDARD_COUNTS["p"], derive(seed, f"typo:{spec.target}")
            )
            emitted[spec.target] = {split: b.utterances for split, b in batches.items()}
            attempted += 3
        texts = [text for by_split in emitted.values()
                 for split in SPLITS for text in by_split[split]]
        phase = guard_phase(texts, state["recognizer"], state["cfg"])
        return Round(t0, PROBE.clock_ns(), attempted + len(texts), phase, {"emitted": emitted})

    def check(self, state, inputs, rnd: Round) -> None:
        languages = inputs["languages"]
        labels = []
        for target, by_split in rnd.outputs["emitted"].items():
            for split, utterances in by_split.items():
                check_split(f"pos+{target}.{split}", utterances,
                            STANDARD_COUNTS["p"][SPLITS.index(split)])
            mine = [expected_label(text, languages["pos"], languages["aic"])
                    for split in SPLITS for text in by_split[split]]
            require("n" in mine, f"modifier {target!r} yields no rejected utterance")
            labels.extend(mine)
        check_decisions(rnd.guard.texts, rnd.guard.lines, labels, expected_response())

    def extras(self, rnd: Round) -> dict:
        """Recognizer recall per modifier: the share of emitted (all
        positive) utterances that it still labels ``p``."""
        out = {}
        start = 0
        for target, by_split in rnd.outputs["emitted"].items():
            n = sum(len(by_split[split]) for split in SPLITS)
            lines = rnd.guard.lines[start:start + n]
            hits = sum(json.loads(line)["label"] == "p" for line in lines if line)
            out[f"typo_recall.{target}"] = hits / n
            start += n
        return out


WORKLOADS = {
    "train_eval": TrainEval,
    "guard_recognizer": GuardRecognizer,
    "typo_sweep": TypoSweep,
}


def matching_probe(grammar, seed: int, n: int = 2000, passes: int = 3) -> float:
    """Membership rate on half sampled strings, half one-character mutants.

    No grammar string contains NUL, so exactly the unmutated half must be
    accepted. Returns strings per second, the median of ``passes`` passes.
    """
    batch = R.generation.sample(grammar, n // 2, seed, dedup=False)
    rng = random.Random(seed + 1)
    probes = list(batch.utterances)
    for text in batch.utterances:
        pos = rng.randrange(len(text))
        probes.append(text[:pos] + "\x00" + text[pos + 1:])
    rng.shuffle(probes)
    member = R.matching.member
    times = []
    for _ in range(passes):
        t0 = time.perf_counter()
        accepted = sum(member(grammar, text) for text in probes)
        times.append(time.perf_counter() - t0)
        require(accepted == n // 2, f"matcher accepted {accepted} of {n // 2} sampled probes")
    return len(probes) / statistics.median(times)
