"""The machine's momentary speed, sampled with a fixed chunk of reference code.

The host this benchmark was built on switches, for seconds to minutes at a
time, between a fast state and states up to about 1.5 times slower, and every
kind of code slows with it (README.md, "Why scaled times"). No statistic of
one run's wall times removes a state that lasts the whole run. So the run
times a fixed reference chunk (a probe) at the start and end of every timed
span and, while ``sampling()`` is on, every ``PROBE_EVERY_S`` of wall time
from a timer signal. Each probe gives the speed ``REF_MS / probe ms``, and a
span's scaled time is its wall time times the mean speed of its probes:

    scaled_s = wall_s * mean(REF_MS / probe_ms over the span)

A scaled time reads as seconds at the reference speed. The reference chunk
is the benchmark's own code and never changes with the program, so a faster
program gives a smaller scaled time; only the machine's state is divided out.
The chunk mixes what the program's hot paths do: small-array numpy calls,
a small matrix-vector product with a ufunc, a pure-Python loop and JSON.
``clock()`` is wall time with the time spent probing taken out; every
span the benchmark times, traced spans included, is read from it.
"""

from __future__ import annotations

import contextlib
import json
import signal
import statistics
import time

import numpy as np

# Median probe time on the machine of README.md's record in its fast state.
# It only sets the scale: scaled times of two commits compare the same way
# with any constant.
REF_MS = 2.4
CHUNKS = 3  # chunks per probe; the probe is their median
PROBE_EVERY_S = 0.25  # timer period while sampling

_A = np.arange(1024, dtype=float).reshape(32, 32) / 1024
_W = np.linspace(-1.0, 1.0, 100 * 50).reshape(100, 50)
_V = np.linspace(0.0, 1.0, 50)
_DOC = [[i * 0.5 + j for j in range(32)] for i in range(32)]


def reference_chunk() -> float:
    """About 3 ms of fixed work at the reference speed."""
    a, total = _A, 0.0
    for i in range(60):
        a = np.roll(a, 1, axis=i % 2)
        h = 1.0 / (1.0 + np.exp(-(_W @ _V)))
        total += float(np.outer(h, _V).sum()) + sum(j * j for j in range(100))
    json.loads(json.dumps(_DOC))
    return total + float(a[0, 0])


class Speed:
    def __init__(self):
        self.probes: list[float] = []  # ms per chunk, one entry per probe
        self.probe_ns = 0  # wall time spent probing so far
        reference_chunk()  # first-call costs stay out of the samples

    def clock(self) -> int:
        """Nanoseconds of wall time, less the time spent probing."""
        while True:
            probing = self.probe_ns
            now = time.perf_counter_ns()
            if self.probe_ns == probing:  # no probe ran between the two reads
                return now - probing

    def probe(self, *_signal_args):
        start = time.perf_counter_ns()
        times = []
        for _ in range(CHUNKS):
            chunk = time.perf_counter_ns()
            reference_chunk()
            times.append((time.perf_counter_ns() - chunk) / 1e6)
        self.probes.append(statistics.median(times))
        self.probe_ns += time.perf_counter_ns() - start

    @contextlib.contextmanager
    def sampling(self):
        """Probe every PROBE_EVERY_S of wall time while the block runs."""
        previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def mark(self) -> int:
        """Take a probe and return its index, to open a span to be scaled."""
        self.probe()
        return len(self.probes) - 1

    def scale(self, mark: int) -> float:
        """Close the span opened at ``mark``: the mean speed of its probes."""
        self.probe()
        return statistics.fmean(REF_MS / ms for ms in self.probes[mark:])

    def slowdown(self) -> float:
        """Median probe of the whole run relative to the reference speed."""
        return statistics.median(self.probes) / REF_MS
