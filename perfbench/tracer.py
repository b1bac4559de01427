"""In-memory spans around calls into ruaguard's public functions.

``Tracer.install`` replaces module and class attributes with wrappers that
record one span per call: name, start, end, parent span and an optional
flag (a matcher's accept/reject). Callers that look a name up at call time
see the wrapper, so calls made inside the package are traced too. Spans stay
in compact arrays until ``write_jsonl`` writes them out, and
``layer_metrics`` turns them into the per-layer figures.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from array import array

def _flag_truth(args, result) -> int:
    return 1 if result else 0


def _flag_emitted(args, result) -> int:
    return sum(len(batch.utterances) for batch in result.values())


def _flag_epochs(args, result) -> int:
    return len(args[0]) * result.params.epochs


# (module, attribute path, span name, flag recorder). A name patched in more
# than one module is the same layer seen by more than one caller.
TRACE_POINTS = (
    ("ruaguard.partition", "partition", "partition", None),
    ("ruaguard.partition", "emit_split_datasets", "emit", _flag_emitted),
    ("ruaguard.generation", "apply_modifier", "apply_modifier", None),
    ("ruaguard.recognizer", "classify", "classify", None),
    ("ruaguard.recognizer", "member", "member", _flag_truth),
    ("ruaguard.guard", "guard", "guard", None),
    ("ruaguard.guard", "decision_to_json", "decision_to_json", None),
    ("ruaguard.classifiers", "fit_tfidf", "fit_tfidf", None),
    ("ruaguard.evaluation", "fit_tfidf", "fit_tfidf", None),
    ("ruaguard.classifiers", "vectorize_many", "vectorize_many", None),
    ("ruaguard.evaluation", "vectorize_many", "vectorize_many", None),
    ("ruaguard.classifiers", "train_bow_lr", "train_bow_lr", None),
    ("ruaguard.classifiers", "bowlr_loss_and_grad", "bowlr_loss_and_grad", None),
    ("ruaguard.classifiers", "train_ngram_linear", "train_ngram_linear", _flag_epochs),
    ("ruaguard.classifiers", "fit_ir", "fit_ir", None),
    ("ruaguard.classifiers", "IrModel.predict_batch", "ir_predict_batch", None),
    ("ruaguard.classifiers", "NgramLinearModel.predict", "ngram_predict", None),
    ("ruaguard.classifiers", "initial_embedding_row", "initial_embedding_row", None),
    ("ruaguard.evaluation", "evaluate", "evaluate", None),
    ("ruaguard.evaluation", "mine_negatives", "mine_negatives", None),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.flag = array("q")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self._index: tuple[int, dict[int, list[int]]] | None = None

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1])
        self.flag.append(-1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, original, name: str, flag_of):
        begin, finish, flags = self.begin, self.finish, self.flag

        def traced(*args, **kwargs):
            idx = begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                finish(idx)
            if flag_of is not None:
                flags[idx] = flag_of(args, result)
            return result

        traced.__wrapped__ = original
        return traced

    def install(self) -> "Tracer":
        for module_name, path, name, flag in TRACE_POINTS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, flag))
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def spans_of(self, name: str) -> list[int]:
        """Indices of the spans called ``name``, in start order."""
        if self._index is None or self._index[0] != len(self.start):
            by_name: dict[int, list[int]] = {}
            for i, nid in enumerate(self.name_id):
                by_name.setdefault(nid, []).append(i)
            self._index = (len(self.start), by_name)
        return self._index[1].get(self._name_ids.get(name), [])

    def duration(self, idx: int) -> int:
        return self.end[idx] - self.start[idx]

    def child_time(self) -> list[int]:
        """Per span, the summed duration of its direct children."""
        covered = [0] * len(self.start)
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                covered[parent] += self.end[i] - self.start[i]
        return covered

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self time in ms."""
        covered = self.child_time()
        out: dict[str, dict] = {}
        for i, nid in enumerate(self.name_id):
            row = out.setdefault(self.names[nid], {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["total_ms"] += dur / 1e6
            row["self_ms"] += (dur - covered[i]) / 1e6
        return out

    def write_jsonl(self, path) -> None:
        names = self.names
        with open(path, "w", encoding="utf-8") as fh:
            for i, nid in enumerate(self.name_id):
                span = {
                    "id": i,
                    "name": names[nid],
                    "start_ns": self.start[i],
                    "end_ns": self.end[i],
                    "parent": self.parent[i] if self.parent[i] >= 0 else None,
                }
                if self.flag[i] >= 0:
                    span["flag"] = self.flag[i]
                fh.write(json.dumps(span) + "\n")


def _median_us(values_ns) -> float:
    return statistics.median(values_ns) / 1e3 if values_ns else 0.0


def layer_metrics(tr: Tracer, rounds: int) -> dict[str, float]:
    """Per-layer figures of the timed rounds: totals per round, medians per
    call, and counts. A layer the workload never calls reads 0."""
    dur = {name: [tr.duration(i) for i in tr.spans_of(name)] for name in tr.names}

    def per_round_ms(name):
        return sum(dur.get(name, ())) / 1e6 / rounds

    def flags(name):
        return [tr.flag[i] for i in tr.spans_of(name)]

    member = tr.spans_of("member")
    accepted = [tr.duration(i) for i in member if tr.flag[i] == 1]
    rejected = [tr.duration(i) for i in member if tr.flag[i] == 0]
    classify_calls = len(dur.get("classify", ()))

    covered = tr.child_time()
    guard_self = [tr.duration(i) - covered[i] for i in tr.spans_of("guard")]
    overhead = [g + j for g, j in zip(guard_self, dur.get("decision_to_json", ()))]

    predict_ids = set(tr.spans_of("ngram_predict"))
    unseen = sum(1 for i in tr.spans_of("initial_embedding_row") if tr.parent[i] in predict_ids)

    emit_s = per_round_ms("emit") / 1e3
    ngram_s = per_round_ms("train_ngram_linear") / 1e3
    return {
        "partition.partition_ms": per_round_ms("partition"),
        "generation.emit_s": emit_s,
        "generation.strings_per_s": sum(flags("emit")) / rounds / emit_s if emit_s else 0.0,
        "generation.apply_modifier_ms": per_round_ms("apply_modifier"),
        "recognizer.classify_us": _median_us(dur.get("classify")),
        "matching.member_calls_per_utt": len(member) / classify_calls if classify_calls else 0.0,
        "matching.member_accept_us": _median_us(accepted),
        "matching.member_reject_us": _median_us(rejected),
        "matching.accept_ratio": len(accepted) / len(member) if member else 0.0,
        "guard.overhead_us": _median_us(overhead),
        "features.fit_tfidf_ms": per_round_ms("fit_tfidf"),
        "features.vectorize_ms": per_round_ms("vectorize_many"),
        "classifiers.bowlr_train_s": per_round_ms("train_bow_lr") / 1e3,
        "classifiers.bowlr_step_us": _median_us(dur.get("bowlr_loss_and_grad")),
        "classifiers.bowlr_steps": len(dur.get("bowlr_loss_and_grad", ())) / rounds,
        "classifiers.ngram_train_s": ngram_s,
        "classifiers.ngram_train_examples_per_s": (
            sum(flags("train_ngram_linear")) / rounds / ngram_s if ngram_s else 0.0
        ),
        "classifiers.ir_fit_ms": per_round_ms("fit_ir"),
        "classifiers.ir_predict_ms": per_round_ms("ir_predict_batch"),
        "classifiers.ngram_predict_us": _median_us(dur.get("ngram_predict")),
        "classifiers.ngram_unseen_buckets_per_utt": (
            unseen / len(predict_ids) if predict_ids else 0.0
        ),
        "evaluation.evaluate_ms": per_round_ms("evaluate"),
        "evaluation.mine_ms": per_round_ms("mine_negatives"),
    }
