"""Fixtures shared by the test modules."""

import os
import tracemalloc

import pytest

from wavefuse import synth, wavelet


def _traced_peak(fn, *args) -> int:
    """Peak bytes that ``fn(*args)`` allocates on top of what is live before it."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture()
def traced_peak():
    """``traced_peak(fn, *args)``: the peak bytes of one call, by tracemalloc."""
    return _traced_peak


class Splits:
    """The two-thread paths' checks, forced, and a count of the splits that ran."""

    def __init__(self, monkeypatch):
        self.count = 0
        self._monkeypatch = monkeypatch
        worker = wavelet._worker

        def counted():
            self.count += 1
            return worker()

        monkeypatch.setattr(wavelet, "_worker", counted)
        # two CPUs, so the split runs in a process pinned to one as well
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def at(self, minimum: int | None) -> None:
        """Split every level and selection of at least ``minimum`` coefficients (None: none)."""
        self._monkeypatch.setattr(wavelet, "_SPLIT_MIN", 1 << 62 if minimum is None else minimum)

    def synth(self, split: bool) -> None:
        """Split every class of two or more samples (True) or none (False) in synth."""
        self._monkeypatch.setattr(synth, "_two_cpus", lambda: split)


@pytest.fixture()
def splits(monkeypatch):
    """A :class:`Splits`: ``splits.at(n)`` forces the threshold, ``splits.synth(b)`` synth's
    CPU check, ``splits.count`` counts."""
    return Splits(monkeypatch)
