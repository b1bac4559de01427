"""The machine's speed, sampled through a run, and a clock that follows it.

A vCPU of a shared host runs the same code at a speed that drifts by up to
a factor of two over seconds, and a vCPU's drift is its own: the two vCPUs
of the reference machine drifted independently. Timing alone cannot tell
such drift from a change in the program, so every end-to-end time is taken
against a reference loop timed on the same vCPU, in the same process, all
through the run.

``Probe`` times the reference loop from a ``SIGALRM`` handler every
``PERIOD_S``; the handler runs on the worker's own thread between two
bytecodes of whatever the worker is doing. ``clock_ns`` leaves out the time
spent in the handler, so no measured interval contains a sample. After the
run, ``Timeline`` turns an interval of ``clock_ns`` into reference
nanoseconds: each stretch between two samples counts ``REF_NS / r`` times
its length, where ``r`` is the mean time of the reference loop over the
``SMOOTH`` samples around it. A figure in reference time is what the
interval would have taken had the machine run the reference loop in
``REF_NS`` throughout.
"""

from __future__ import annotations

import bisect
import signal
import time
from array import array

PERIOD_S = 0.01
SMOOTH = 10  # samples per speed estimate, about 100 ms
# The reference loop's time on the reference machine at its usual speed,
# so that reference times read close to wall times there.
REF_NS = 50_000


def _reference() -> int:
    total = 0
    seen = {}
    for i in range(300):
        total += i * i % 7
        seen[i & 63] = total
    return total


class Probe:
    def __init__(self):
        self.at = array("q")  # clock_ns() when each sample began
        self.took = array("q")  # ns the timed run of the reference loop took
        self.spent = 0  # ns spent in the handler so far

    def _sample(self, signum, frame) -> None:
        entered = time.perf_counter_ns()
        # a first, untimed pass brings the loop back into the caches that the
        # work evicted it from, so that the timed pass sees the vCPU's speed
        # rather than the work's footprint
        _reference()
        t0 = time.perf_counter_ns()
        _reference()
        self.took.append(time.perf_counter_ns() - t0)
        self.at.append(entered - self.spent)
        self.spent += time.perf_counter_ns() - entered

    def start(self) -> "Probe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock_ns(self) -> int:
        return time.perf_counter_ns() - self.spent

    def timeline(self) -> "Timeline":
        # the handler may append a sample while this copies; copy whole samples
        n = min(len(self.at), len(self.took))
        return Timeline(self.at[:n], self.took[:n])


class Timeline:
    """Reference time as a function of ``clock_ns``: piecewise linear, with
    the speed of each stretch between samples taken from the samples around
    it. Before the first sample and after the last, the nearest speed holds."""

    def __init__(self, at, took):
        if len(at) < 2:
            raise ValueError("too few speed samples")
        self.at = list(at)
        prefix = [0]
        for t in took:
            prefix.append(prefix[-1] + t)
        n = len(took)
        half = SMOOTH // 2
        self.speed = []
        for i in range(n):
            lo, hi = max(0, i - half), min(n, i + half)
            self.speed.append(REF_NS * (hi - lo) / (prefix[hi] - prefix[lo]))
        # reference time at each sample; the stretch up to sample i runs at
        # the speed estimated around sample i
        self.ref = [0.0]
        for i in range(1, n):
            self.ref.append(self.ref[-1] + (self.at[i] - self.at[i - 1]) * self.speed[i])

    def at_ns(self, t: int) -> float:
        """Reference time at clock time ``t``."""
        i = bisect.bisect_right(self.at, t)
        if i == 0:
            return (t - self.at[0]) * self.speed[0]
        if i == len(self.at):
            return self.ref[-1] + (t - self.at[-1]) * self.speed[-1]
        return self.ref[i - 1] + (t - self.at[i - 1]) * self.speed[i]

    def span_ns(self, t0: int, t1: int) -> float:
        return self.at_ns(t1) - self.at_ns(t0)

    def mean_speed(self) -> float:
        """Reference time per clock time over the whole timeline."""
        return self.ref[-1] / (self.at[-1] - self.at[0])


PROBE = Probe()
