"""Machine-speed reference for timings taken on a shared host.

The benchmark runs on small virtual machines whose neighbours change
how fast the same code runs by up to a factor of two, over tens of
seconds.  A short fixed kernel, which is part of the benchmark and never
of the program under test, is timed between requests and, during long
calls, on an interval timer.  Every latency is scaled by NOMINAL_NS
over the kernel's local time, so a
slowdown of the whole machine cancels and a slowdown of the program does
not.  The result reads in milliseconds at the speed the machine had
when NOMINAL_NS was measured; the unscaled values are reported beside
it.
"""

from __future__ import annotations

import csv
import gc
import io
import signal
from time import perf_counter_ns

import numpy as np

# Typical kernel time on a 2-vCPU Intel Xeon (2.1 GHz) guest, CPython
# 3.11, numpy 2.4.  Only a unit: every run divides by it alike.
NOMINAL_NS = 700_000.0

# Probes on each side of a request's own probe whose median sets its speed.
HALF_WINDOW = 2

# Seconds between probes taken during one long call, and probes taken on
# each side of it (a call shorter than the interval still gets some).
DURING_INTERVAL = 0.1
EDGE_PROBES = 2


def kernel() -> float:
    """Interpreter loop, small numpy calls, and writing and parsing CSV
    floats: the kinds of work the workloads spend their time in."""
    values = np.linspace(0.0, 1.0, 401)
    held, prev = 0.0, 0.5
    for v in values.tolist():
        decayed = 0.5 + (prev - 0.5) * 0.99
        prev = v if abs(v - 0.5) >= abs(decayed - 0.5) else decayed
        held += prev
    for _ in range(20):
        values = np.cumsum(values) * 1e-3
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["a", "b"])
    writer.writerows(zip(values[:100].tolist(), values[100:200].tolist()))
    buf.seek(0)
    for row in csv.DictReader(buf):
        held += float(row["a"]) + float(row["b"])
    return held


class Pace:
    """Kernel probes taken between requests, and the scaling they imply."""

    def __init__(self):
        self.marks: list[int] = []    # requests completed before each probe
        self.times: list[float] = []  # probe durations, ns

    def probe(self, mark: int, count: int = 1) -> None:
        enabled = gc.isenabled()
        gc.disable()  # a collection of the program's garbage is not machine speed
        try:
            for _ in range(count):
                t0 = perf_counter_ns()
                kernel()
                self.times.append(float(perf_counter_ns() - t0))
                self.marks.append(mark)
        finally:
            if enabled:
                gc.enable()

    def scale(self, latencies_ns) -> np.ndarray:
        """Latencies at nominal machine speed.

        Request i is scaled by the median of the probes within
        HALF_WINDOW of the last probe taken before it.
        """
        lat = np.asarray(latencies_ns, dtype=float)
        times = np.asarray(self.times)
        local = np.array([np.median(times[max(0, j - HALF_WINDOW):j + HALF_WINDOW + 1])
                          for j in range(len(times))])
        before = np.searchsorted(np.asarray(self.marks), np.arange(len(lat)),
                                 side="right") - 1
        return lat * (NOMINAL_NS / local[np.maximum(before, 0)])

    def factor(self) -> float:
        """NOMINAL_NS over the mean probe time, the slowest and fastest
        tenth left out.

        A mean, not a median: the host switches between fast and slow
        spells, and a long call's time is the mixture of both.
        """
        times = np.sort(np.asarray(self.times))
        cut = len(times) // 10
        return NOMINAL_NS / float(times[cut:len(times) - cut].mean())


def paced_call(fn):
    """(fn(), wall ns, wall ns at nominal machine speed) of one long call.

    Machine speed drifts within a call of tens of seconds, so probes are
    taken throughout it: an interval timer interrupts the call between
    bytecodes (no extra thread) and the probe time is subtracted from
    the call's own.
    """
    pace = Pace()
    probe_ns = 0

    def on_alarm(signum, frame):
        nonlocal probe_ns
        t0 = perf_counter_ns()
        pace.probe(0)
        probe_ns += perf_counter_ns() - t0

    pace.probe(0, EDGE_PROBES)
    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, DURING_INTERVAL, DURING_INTERVAL)
    t0 = perf_counter_ns()
    try:
        result = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        elapsed = perf_counter_ns() - t0 - probe_ns
        signal.signal(signal.SIGALRM, previous)
    pace.probe(0, EDGE_PROBES)
    return result, elapsed, elapsed * pace.factor()
