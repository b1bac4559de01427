"""One workload run in a fresh interpreter.

``run.py`` starts this file with ``PYTHONPATH=src`` from the root of a
checkout. It prints ``READY <json>`` once set up and, unless
``--setup-only`` is given, ``RESULT <json>`` after the timed rounds. A
traced run also writes its spans to ``BENCH_<workload>.spans.jsonl``.

An untraced run samples the machine's speed from its first line to its
last (see ``speed.py``) and reports its times in reference time; a traced
run reports clock time.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys

from speed import PROBE

WINDOW = 200  # decisions per throughput window


def window_rates(starts, span_ns) -> list[float]:
    """Decisions per second in consecutive windows of ``WINDOW`` decisions;
    their median shrugs off short stalls of the machine."""
    return [WINDOW / (span_ns(starts[i], starts[i + WINDOW]) / 1e9)
            for i in range(0, len(starts) - WINDOW, WINDOW)]


def guard_figures(stamps, span_ns) -> dict:
    """Throughput and latency of the guard phases, with intervals measured
    by ``span_ns``."""
    latency, rates = [], []
    for _, _, starts, ends, ok in stamps:
        latency.extend(span_ns(s, e) for s, e, good in zip(starts, ends, ok) if good)
        rates.extend(window_rates(starts, span_ns))
    return {
        "latency_samples": len(latency),
        "windows": len(rates),
        "utt_per_s": statistics.median(rates),
        "p50_us": statistics.median(latency) / 1e3,
        "p99_us": statistics.quantiles(latency, n=100)[98] / 1e3,
    }


def summarise(rnd, extras) -> dict:
    return {
        "clock_s": (rnd.end_ns - rnd.start_ns) / 1e9,
        "attempted": rnd.attempted,
        "failed": len(rnd.guard.errors),
        "errors": rnd.guard.errors[:5],
        "decisions": len(rnd.guard.texts),
        **extras,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if not args.trace:
        PROBE.start()
    clock = PROBE.clock_ns
    probe_start = t0 = clock()
    import ruaguard  # noqa: F401  the import a user pays for, timed on its own
    import_s = (clock() - t0) / 1e9

    from checks import CheckFailed
    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS, matching_probe

    workload = WORKLOADS[args.workload]()
    t0 = clock()
    state = workload.setup()
    load_ms = (clock() - t0) / 1e6
    t0 = clock()
    workload.warm_up(state)
    ready_ns = clock()
    first_decision_ms = (ready_ns - t0) / 1e6
    ready = {"import_s": import_s, "load_ms": load_ms, "first_decision_ms": first_decision_ms,
             "probe_spent_ns": PROBE.spent}
    if not args.trace:
        # reference time per clock time over set-up, for run.py to scale the
        # set-up time it measured from outside
        ready["speed"] = PROBE.timeline().span_ns(probe_start, ready_ns) / (ready_ns - probe_start)
    print("READY " + json.dumps(ready), flush=True)
    if args.setup_only:
        PROBE.stop()
        return 0

    result = {"correct": True, "check": None, "rounds": []}
    stamps = []  # per round: its start and end, and its decisions' starts, ends and success
    try:
        inputs = workload.prepare(state, args.seed)
        tracer = Tracer().install() if args.trace else None
        begin = clock()
        while True:
            span = tracer.begin("round") if tracer else None
            rnd = workload.round(state, inputs)
            if tracer:
                tracer.finish(span)
            workload.check(state, inputs, rnd)
            result["rounds"].append(summarise(rnd, workload.extras(rnd)))
            phase = rnd.guard
            stamps.append((rnd.start_ns, rnd.end_ns, phase.starts_ns, phase.ends_ns,
                           [line is not None for line in phase.lines]))
            # stop before a round that would end past --seconds; the first
            # round always runs, however long it takes
            now = clock()
            if now - begin + (rnd.end_ns - rnd.start_ns) > args.seconds * 1e9:
                break
        PROBE.stop()
        timeline = None if tracer else PROBE.timeline()
        span_ns = timeline.span_ns if timeline else (lambda t0, t1: t1 - t0)
        result["guard"] = guard_figures(stamps, span_ns)
        for (start, end, *_), row in zip(stamps, result["rounds"]):
            row["seconds"] = span_ns(start, end) / 1e9
        if timeline:
            result["speed"] = {"samples": len(timeline.at), "mean": timeline.mean_speed()}
            result["guard_clock"] = guard_figures(stamps, lambda t0, t1: t1 - t0)
        if tracer:
            tracer.uninstall()
            result["layers"] = layer_metrics(tracer, len(result["rounds"]))
            result["layers"]["matching.probe_strings_per_s"] = matching_probe(
                state["grammars"]["pos"], args.seed
            )
            result["span_summary"] = tracer.summary()
            tracer.write_jsonl(f"BENCH_{args.workload}.spans.jsonl")
    except CheckFailed as exc:
        PROBE.stop()
        result["correct"] = False
        result["check"] = str(exc)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
