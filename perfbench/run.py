"""ruaguard benchmark: one workload run, reported as one JSON line.

Run from the root of a checkout; nothing needs installing:

    python3 perfbench/run.py --workload guard_recognizer --seed 0 --seconds 20 --trace 0

The run starts a few fresh interpreters that only set up, to time set-up,
then one more that sets up, builds the inputs from the seed and repeats
whole rounds of the workload until ``--seconds`` have passed, checking every
output. With ``--trace 0`` the last line of standard output carries the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
a traced run. Details go to ``BENCH_<workload>[.traced].json`` and, when
traced, the spans to ``BENCH_<workload>.spans.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("train_eval", "guard_recognizer", "typo_sweep")
SETUP_PROBES = 6  # set-up-only interpreters per run, besides the workload's own
RUN_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "guard_utt_per_s": "1/s",
    "guard_p50_us": "us",
    "guard_p99_us": "us",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "setup.import_s": "s",
    "setup.load_ms": "ms",
    "setup.first_decision_ms": "ms",
    "partition.partition_ms": "ms",
    "generation.emit_s": "s",
    "generation.strings_per_s": "1/s",
    "generation.apply_modifier_ms": "ms",
    "recognizer.classify_us": "us",
    "matching.member_calls_per_utt": "count",
    "matching.member_accept_us": "us",
    "matching.member_reject_us": "us",
    "matching.accept_ratio": "ratio",
    "matching.probe_strings_per_s": "1/s",
    "guard.overhead_us": "us",
    "features.fit_tfidf_ms": "ms",
    "features.vectorize_ms": "ms",
    "classifiers.bowlr_train_s": "s",
    "classifiers.bowlr_step_us": "us",
    "classifiers.bowlr_steps": "count",
    "classifiers.ngram_train_s": "s",
    "classifiers.ngram_train_examples_per_s": "1/s",
    "classifiers.ir_fit_ms": "ms",
    "classifiers.ir_predict_ms": "ms",
    "classifiers.ngram_predict_us": "us",
    "classifiers.ngram_unseen_buckets_per_utt": "count",
    "evaluation.evaluate_ms": "ms",
    "evaluation.mine_ms": "ms",
}


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env["PYTHONHASHSEED"] = "0"
    # one BLAS thread: the benchmark is a closed loop with one caller
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def start_worker(extra: list[str]):
    """Start a worker; return it with the seconds it took to say READY and
    the set-up parts it reported.

    The seconds are wall time measured from here, less the time the
    worker spent sampling the machine's speed, in reference time at the
    speed the worker saw while it set up (see ``speed.py``); a traced
    worker does not sample, and its set-up is wall time."""
    cmd = [sys.executable, str(HERE / "worker.py"), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env())
    line = proc.stdout.readline()
    wall_s = time.perf_counter() - t0
    if not line.startswith("READY "):
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready: {line!r}")
    parts = json.loads(line[len("READY "):])
    parts["wall_s"] = wall_s
    setup_s = (wall_s - parts["probe_spent_ns"] / 1e9) * parts.get("speed", 1.0)
    return proc, setup_s, parts


def finish_worker(proc, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker ran past {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    setups = []

    def probe_setup(times):
        for _ in range(times):
            proc, setup_s, parts = start_worker(["--workload", workload, "--setup-only"])
            finish_worker(proc, deadline - time.perf_counter())
            setups.append((setup_s, parts))

    # half the set-up probes before the workload and half after it, so that
    # they meet the machine at two moments some seconds apart
    probe_setup(SETUP_PROBES // 2)
    name = f"BENCH_{workload}" + (".traced" if trace else "")
    extra = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))]
    proc, setup_s, parts = start_worker(extra)
    setups.append((setup_s, parts))
    out = finish_worker(proc, deadline - time.perf_counter())
    probe_setup(SETUP_PROBES - SETUP_PROBES // 2)
    lines = [line for line in out.splitlines() if line.startswith("RESULT ")]
    if not lines:
        raise RuntimeError("worker printed no result")
    detail = json.loads(lines[-1][len("RESULT "):])
    rounds = detail["rounds"]
    guard = detail.get("guard") or {}  # absent when a check failed

    def median_of(key):
        return statistics.median(r[key] for r in rounds) if rounds else 0.0

    if trace:
        metrics = {
            "setup.import_s": statistics.median(p["import_s"] for _, p in setups),
            "setup.load_ms": statistics.median(p["load_ms"] for _, p in setups),
            "setup.first_decision_ms": statistics.median(p["first_decision_ms"] for _, p in setups),
            **detail.get("layers", {}),
        }
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(s for s, _ in setups),
            "run_s": median_of("seconds"),
            "guard_utt_per_s": guard.get("utt_per_s", 0.0),
            "guard_p50_us": guard.get("p50_us", 0.0),
            "guard_p99_us": guard.get("p99_us", 0.0),
            "peak_rss_mb": detail["peak_rss_mb"],
        }
        units = END_TO_END
    summary = {
        "correct": detail["correct"] and bool(rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": u} for k, u in units.items()},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "result": summary,
        "check_failure": detail["check"],
        "run_s": median_of("seconds"),
        "setup_s_samples": [s for s, _ in setups],
        "setup_parts": [p for _, p in setups],
        "peak_rss_mb": detail["peak_rss_mb"],
        "guard": guard,
        # the machine's speed over the run and the guard figures in clock
        # time, to set the reference-time figures against
        "speed": detail.get("speed"),
        "guard_clock": detail.get("guard_clock"),
        "rounds": rounds,
        "span_summary": detail.get("span_summary"),
    }
    Path(f"{name}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path("src/ruaguard/__init__.py").is_file():
        print("run.py: no src/ruaguard here; run it from the root of a ruaguard checkout",
              file=sys.stderr)
        return 2
    try:
        summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    for key, metric in summary["metrics"].items():
        print(f"{args.workload:>16} {key:<42} {metric['value']:>14.4f} {metric['unit']}",
              file=sys.stderr)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
