"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single ``[PASS]``/``[FAIL]`` verdict line (collected into
the terminal summary) and asserts the same condition, so a red run names
exactly which guarantee broke.
"""

import random

import numpy as np
import pytest

from ruaguard.classifiers import (
    RandomGuessModel,
    bowlr_loss_and_grad,
    fit_ir,
    train_bow_lr,
    train_ngram_linear,
)
from ruaguard.dataset import CLASS_ORDER, Label, LabeledUtterance, one_hot_prediction
from ruaguard.evaluation import evaluate, geometric_mean, mine_negatives
from ruaguard.generation import sample
from ruaguard.grammar import count_derivations, enumerate_strings, parse_grammar
from ruaguard.hashing import derive_seed
from ruaguard.partition import PartitionConfig, partition
from ruaguard.recognizer import RecognizerModel

from test_classifiers import finite_difference, ngram_gradient_errors, pooling, relative_error

SEED = 13

VERDICTS: list[str] = []


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}: {detail}"
    VERDICTS.append(line)
    print(line)
    assert ok, line


# (classifier, split, P_w, R, Acc, printed M), all on the 0-100 scale
REFERENCE_ROWS = [
    ("random", "train", 41.8, 39.2, 41.6, 40.9),
    ("random", "val", 39.5, 37.5, 40.2, 39.0),
    ("random", "test", 41.9, 36.3, 41.9, 39.9),
    ("random", "addtest", 41.3, 39.9, 42.2, 41.1),
    ("bowlr", "train", 92.9, 97.9, 92.2, 94.3),
    ("bowlr", "val", 88.3, 85.5, 83.8, 85.9),
    ("bowlr", "test", 90.4, 93.4, 88.3, 90.7),
    ("bowlr", "addtest", 84.7, 80.4, 79.2, 81.4),
    ("ir", "train", 100.0, 100.0, 100.0, 100.0),
    ("ir", "val", 81.3, 78.9, 77.4, 79.2),
    ("ir", "test", 81.3, 76.7, 78.4, 78.8),
    ("ir", "addtest", 78.5, 80.4, 74.6, 77.8),
    ("ngram", "train", 98.6, 100.0, 98.4, 99.0),
    ("ngram", "val", 92.4, 90.9, 89.2, 90.8),
    ("ngram", "test", 94.6, 93.9, 92.1, 93.5),
    ("ngram", "addtest", 87.9, 64.3, 74.6, 75.0),
    ("bert", "train", 99.9, 100.0, 99.8, 99.9),
    ("bert", "val", 97.5, 91.7, 93.7, 94.3),
    ("bert", "test", 98.5, 94.6, 95.5, 96.2),
    ("bert", "addtest", 96.4, 93.7, 89.5, 93.2),
    ("grammar", "train", 100.0, 100.0, 100.0, 100.0),
    ("grammar", "val", 100.0, 100.0, 100.0, 100.0),
    ("grammar", "test", 100.0, 100.0, 100.0, 100.0),
    ("grammar", "addtest", 100.0, 47.6, 70.0, 69.3),
]

def test_criterion_01_toy_grammar_fidelity(toy):
    derivations = count_derivations(toy)
    strings = enumerate_strings(toy)
    batch = sample(toy, 12, seed=SEED, dedup=True)
    distinct = len(set(batch.utterances))
    ok = derivations == 12 and len(set(strings)) == 12 and distinct == 12
    _verdict(
        1, "toy grammar fidelity", ok,
        f"{derivations} derivations, {len(set(strings))} unique strings, "
        f"{distinct} distinct samples (want 12 each)",
    )


def test_criterion_02_reference_table_arithmetic():
    worst = 0.0
    for _, _, p_w, r, acc, printed_m in REFERENCE_ROWS:
        recomputed = geometric_mean(p_w / 100, r / 100, acc / 100) * 100
        worst = max(worst, abs(recomputed - printed_m))
    ok = worst <= 0.1
    _verdict(
        2, "reference table arithmetic", ok,
        f"max |recomputed M - printed M| = {worst:.3f} over "
        f"{len(REFERENCE_ROWS)} rows (tolerance 0.1)",
    )


def test_criterion_03_retrieval_on_own_train_split(standard_dataset):
    train_rows = standard_dataset["train"]
    model = fit_ir(train_rows)
    report = evaluate(model, train_rows)
    ok = (
        len(train_rows) == 4760
        and report.p_w == 1.0
        and report.r == 1.0
        and report.acc == 1.0
        and report.m == 1.0
    )
    _verdict(
        3, "retrieval is perfect on its own train split", ok,
        f"n={len(train_rows)}, P_w={report.p_w:.4f} R={report.r:.4f} "
        f"Acc={report.acc:.4f} M={report.m:.4f} (want 1.0 each)",
    )


def test_criterion_04_recognizer_on_generated_splits(standard_dataset, pos, aic):
    model = RecognizerModel(pos_grammar=pos, aic_grammar=aic)
    summaries = []
    ok = True
    for split in ("train", "val", "test"):
        rows = standard_dataset[split]
        report = evaluate(model, rows)
        perfect = report.p_w == report.r == report.acc == 1.0
        ok = ok and perfect and len(rows) in (4760, 1020)
        summaries.append(f"{split} n={len(rows)} M={report.m:.4f}")
    _verdict(
        4, "recognizer is perfect on generated splits", ok,
        "; ".join(summaries) + " (want M=1.0 each)",
    )


def test_criterion_05_random_baseline_accuracy():
    distribution = (0.40, 0.10, 0.50)
    gold = random.Random(101).choices(CLASS_ORDER, weights=distribution, k=10_000)
    rows = [
        LabeledUtterance(f"u{i}", label, split="none")
        for i, label in enumerate(gold)
    ]
    model = RandomGuessModel(distribution=distribution, seed=SEED)
    report = evaluate(model, rows)
    ok = abs(report.acc - 0.42) <= 0.02
    _verdict(
        5, "random baseline accuracy", ok,
        f"accuracy {report.acc:.4f} over 10000 trials (want 0.42 +/- 0.02)",
    )


def _surrogate_rows(pos, aic, neg):
    pos_texts = list(sample(pos, 1200, derive_seed(SEED, "surrogate:pos")).utterances)
    aic_texts = list(sample(aic, 300, derive_seed(SEED, "surrogate:aic")).utterances)
    corpus = list(sample(neg, 4000, derive_seed(SEED, "surrogate:corpus")).utterances)
    hard = mine_negatives(
        corpus, pos_texts, 1000, "tfidf_weighted",
        seed=derive_seed(SEED, "surrogate:hard"),
    )
    hard_texts = [text for text, _, _ in hard.utterances]
    rest = [line for line in corpus if line not in set(hard_texts)]
    easy = mine_negatives(
        rest, [], 500, "random", seed=derive_seed(SEED, "surrogate:easy")
    )
    neg_texts = hard_texts + [text for text, _, _ in easy.utterances]

    rows = {"train": [], "val": [], "test": []}
    for texts, label in [
        (pos_texts, Label.POS), (aic_texts, Label.AIC), (neg_texts, Label.NEG),
    ]:
        order = list(range(len(texts)))
        random.Random(derive_seed(SEED, f"surrogate:split:{label.value}")).shuffle(order)
        n_train = int(0.70 * len(texts))
        n_val = int(0.15 * len(texts))
        for rank, idx in enumerate(order):
            split = (
                "train" if rank < n_train
                else "val" if rank < n_train + n_val
                else "test"
            )
            rows[split].append(LabeledUtterance(texts[idx], label, split=split))
    return rows


def test_criterion_06_learned_models_on_surrogate(pos, aic, neg):
    # stand-in for the human-curated dataset: grammar positives plus mined
    # hard negatives, 3000 examples, stratified 70/15/15
    rows = _surrogate_rows(pos, aic, neg)
    assert sum(len(v) for v in rows.values()) == 3000
    bowlr = train_bow_lr(rows["train"], seed=SEED)
    ngram = train_ngram_linear(rows["train"], seed=SEED)
    bowlr_acc = evaluate(bowlr, rows["test"]).acc
    ngram_acc = evaluate(ngram, rows["test"]).acc
    ok = bowlr_acc >= 0.95 and ngram_acc >= 0.95
    _verdict(
        6, "learned models on grammar surrogate", ok,
        f"test accuracy bow-lr {bowlr_acc:.4f}, n-gram {ngram_acc:.4f} "
        f"on {len(rows['test'])} examples (want >= 0.95 both)",
    )


def test_criterion_07_sampled_strings_round_trip(toy, pos, aic, neg):
    model = RecognizerModel(pos_grammar=pos, aic_grammar=aic)
    cases = [
        ("toy", toy, Label.POS),
        ("pos", pos, Label.POS),
        ("aic", aic, Label.AIC),
        ("neg", neg, Label.NEG),
    ]
    failures = []
    for name, grammar, want in cases:
        batch = sample(grammar, 10_000, derive_seed(SEED, f"roundtrip:{name}"),
                       dedup=False)
        bad = sum(1 for text in set(batch.utterances)
                  if model.predict(text).label is not want)
        failures.append((name, bad))
    ok = all(bad == 0 for _, bad in failures)
    _verdict(
        7, "sampled strings round-trip through the recognizer", ok,
        "misclassified " + ", ".join(f"{name}: {bad}" for name, bad in failures)
        + " of 10000 samples each (want 0)",
    )


def test_criterion_08_partition_leakage():
    source = parse_grammar(
        "S -> " + " | ".join(f'"w{i}"' for i in range(10)) + "\n"
    )
    parts = partition(source, PartitionConfig(p=0.25, seed=SEED))
    shared = [i for i, where in enumerate(parts.assignment["S"]) if where == "shared"]
    languages = {
        split: set(enumerate_strings(sub))
        for split, sub in parts.sub_grammars.items()
    }
    shared_ok = len(shared) == 3 and all(
        f"w{i}" in lang for i in shared for lang in languages.values()
    )
    exclusive = [i for i in range(10) if i not in shared]
    exclusive_ok = all(
        sum(f"w{i}" in lang for lang in languages.values()) == 1 for i in exclusive
    )
    ok = shared_ok and len(exclusive) == 7 and exclusive_ok
    _verdict(
        8, "partition keeps exclusive alternatives in one split", ok,
        f"{len(shared)} shared alternatives in all 3 splits, "
        f"{len(exclusive)} exclusive each in exactly one",
    )


def test_criterion_09_gradient_checks():
    worst = 0.0
    for seed in range(20):
        rng = np.random.Generator(np.random.PCG64(seed))

        X = rng.normal(size=(5, 8))
        codes = rng.integers(0, 3, size=5)
        Y = np.zeros((5, 3))
        Y[np.arange(5), codes] = 1.0
        W = rng.normal(scale=0.5, size=(3, 8))
        b = rng.normal(scale=0.5, size=3)
        _, dW, db = bowlr_loss_and_grad(W, b, X, Y, 1e-3)
        loss = lambda: bowlr_loss_and_grad(W, b, X, Y, 1e-3)[0]
        worst = max(worst, relative_error(dW, finite_difference(loss, W)))
        worst = max(worst, relative_error(db, finite_difference(loss, b)))

        W2 = rng.normal(scale=0.5, size=(3, 6))
        b2 = rng.normal(scale=0.5, size=3)
        E = rng.normal(scale=0.5, size=(5, 6))
        # 8 rows drawn from 5 over four examples: some rows are shared
        examples = [
            (rng.choice(5, size=2, replace=False), rng.integers(1, 4, size=2))
            for _ in range(4)
        ] + [([], [])]
        codes2 = rng.integers(0, 3, size=5)
        worst = max(worst, *ngram_gradient_errors(W2, b2, E, *pooling(examples), codes2))
    ok = worst <= 1e-4
    _verdict(
        9, "analytic gradients match finite differences", ok,
        f"max relative error {worst:.2e} across 20 seeds, both models "
        f"(tolerance 1e-4)",
    )


def test_criterion_10_weighted_precision_examples():
    P, A, N = Label.POS, Label.AIC, Label.NEG

    def p_w(predicted, gold):
        """evaluate() on rows labelled ``gold`` by a model predicting ``predicted``."""
        model = type("Fixed", (), {"predict_batch": staticmethod(lambda texts: [
            one_hot_prediction(text, label) for text, label in zip(texts, predicted)
        ])})()
        report = evaluate(model, [LabeledUtterance(f"t{i}", y) for i, y in enumerate(gold)])
        return report.p_w, report.vacuous_precision

    partial, _ = p_w([P] * 8 + [N, N], [P, P, P, P, P, P, A, N, P, N])
    perfect, _ = p_w([P, P, N, A], [P, P, N, A])
    # a gold-p row predicted n gives recall a denominator and predicts no p
    ambiguous_only, _ = p_w([P, N], [A, P])
    vacuous, flagged = p_w([N, N], [P, N])
    ok = (
        partial == 0.78125
        and perfect == 1.0
        and ambiguous_only == 0.25
        and vacuous == 1.0
        and flagged
    )
    _verdict(
        10, "weighted precision reference values", ok,
        f"0.78125 -> {partial}, 1.0 -> {perfect}, 0.25 -> {ambiguous_only}, "
        f"vacuous -> {vacuous} (flagged={flagged})",
    )
