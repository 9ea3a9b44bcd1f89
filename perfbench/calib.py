"""Reference loop that turns wall-clock time into calibrated seconds.

Why calibration exists: the machine this benchmark targets is a small
shared VM whose CPU speed drifts between (and within) processes.  An
earlier benchmark built on raw wall time saw its medians move by 4-14 %
on unchanged code (``decide_batch`` throughput 275.5k -> 313.0k/s, warm
LOOCV -7 %, set-up -7 %).  Timing 24 warm ``run_loocv(seed=0)`` runs in
each of six fresh processes gave raw medians from 0.32 to 0.45 s (about
+-17 %); dividing each run by a fixed reference loop timed just before it
kept the medians within +-3.5 % (+-2 % for ``decide_batch``, +-4 % for
the NSGA-II search, +-5 % for cold characterisation).

So ``*_s`` / ``*_per_s`` figures are reported in *calibrated seconds*:
``wall * NOMINAL_S / ref`` where ``ref`` is the duration of
:func:`reference_work` timed next to the measurement and ``NOMINAL_S``
is its nominal duration.  The loop mixes interpreter-bound work (dict
and list churn), numpy array work (sort, cumulative sums, gathers) and
many numpy calls on tiny arrays, because the measured program does all
three; an interpreter-only loop left the allocation throughput at +-8 %.
Over eight fresh processes this mix cut the interquartile spread of
``decide_batch`` from 7.5 % (raw) to 3.2 % and of warm LOOCV from 7.9 %
to 2.8 %; it does not help the NSGA-II search (6.6 % -> 6.2 %).

The loop imports nothing from the measured program, and it only runs
while the program has no live threads of its own, so a change that
leaves a thread spinning slows the reference too and cannot flatter its
own ratio.
"""

from __future__ import annotations

import gc
import statistics
import threading
import time

import numpy as np

#: Nominal duration of one :func:`reference_work` call (seconds).  Any
#: constant works -- it only fixes the unit -- so it is set near the
#: loop's duration on a 2-vCPU cloud VM to keep calibrated and raw
#: seconds comparable.
NOMINAL_S = 0.040

_ARRAY = np.random.default_rng(12345).random(60_000)
_INDEX = np.random.default_rng(54321).integers(0, 60_000, 60_000)


def _interp(n: int) -> int:
    table: dict[int, int] = {}
    items: list[tuple[int, int]] = []
    acc = 0
    for i in range(n):
        key = (i * 7919) & 2047
        table[key] = table.get(key, 0) + i
        if i & 15 == 0:
            items.append((key, i))
        acc ^= key
    items.sort()
    return acc + len(table) + len(items)


def _arrays(rounds: int) -> float:
    total = 0.0
    for _ in range(rounds):
        a = np.sort(_ARRAY)
        b = np.cumsum(a[_INDEX])
        total += float(b[-1]) + float(np.searchsorted(a, 0.5))
    return total


_SMALL = np.arange(12, dtype=np.float64)


def _small_calls(n: int) -> float:
    total = 0.0
    for i in range(n):
        total += float(np.sum(_SMALL * i)) + float(np.max(_SMALL))
    return total


def reference_work() -> float:
    """The fixed reference workload (about 40 ms on a 2-vCPU VM): equal
    parts interpreter loop, array work, and many calls into numpy on
    tiny arrays."""
    return _interp(40_000) + _arrays(12) + _small_calls(1_200)


def time_reference() -> float:
    """Wall seconds of one reference run, with no program threads alive."""
    if threading.active_count() != 1:
        raise RuntimeError(f"calibration needs a single thread, found {threading.active_count()}")
    # A garbage collection triggered by the loop's own allocations would
    # charge the program's heap to the reference; defer it instead.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_work()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


class Clock:
    """Interleave timed repetitions with reference runs.

    :meth:`measure` times one call and follows it with a reference run.
    The host flips between fast and slow phases every few seconds (the
    reference reads about 25 ms in one and 40 ms in the other, often
    within one run), so each repetition is calibrated by the mean of the
    reference runs immediately before and after it, and figures are
    medians over repetitions.
    """

    def __init__(self) -> None:
        time_reference()  # warm the loop's own caches
        self.refs: list[float] = [time_reference()]

    def measure(self, fn, series: "Series"):
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
        before = self.refs[-1]
        self.mark()
        series.add(wall, wall * NOMINAL_S / (0.5 * (before + self.refs[-1])))
        return out

    def mark(self) -> None:
        """One more reference run, e.g. after a phase that ran threads."""
        self.refs.append(time_reference())

    def ref_median(self) -> float:
        return statistics.median(self.refs)


class Series:
    """Raw and calibrated durations of one kind of repetition."""

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.calibrated: list[float] = []

    def add(self, raw: float, calibrated: float) -> None:
        self.raw.append(raw)
        self.calibrated.append(calibrated)

    @property
    def n(self) -> int:
        return len(self.raw)

    def raw_median(self) -> float:
        return statistics.median(self.raw)

    def median(self) -> float:
        """Calibrated median."""
        return statistics.median(self.calibrated)
