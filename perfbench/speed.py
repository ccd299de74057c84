"""Machine-speed probe: scales measured times to a reference speed.

On a shared host the speed of a core swings by a fifth or more within a
second, and drifts as much over minutes, in process CPU time as in wall
time.  Left in, that swamps changes in the program.  The probe times a short
slice of fixed interpreter work (integer arithmetic, which allocates no
object the garbage collector tracks, so the slice's time does not depend on
the program's heap) every ``PERIOD_S`` seconds on a SIGALRM timer, so also
in the middle of a request, and at will in bursts of ``BURST`` slices, which
count as one slice of their mean time.  A time measured between ``start``
and ``end`` is then reported without the slices taken inside it, and scaled
by ``NOMINAL_S`` over the mean time of those slices and of the last slice
before it and the first after it: it reads as if the slice always took
``NOMINAL_S``.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

NOMINAL_S = 0.0005
SLICE_STEPS = 5000
PERIOD_S = 0.02
BURST = 10


def work_slice() -> int:
    acc = 0
    for i in range(SLICE_STEPS):
        acc += i * i % 7
    return acc


class Probe:
    def __init__(self):
        self.slices: list[tuple[float, float]] = []  # (start, seconds)
        self.ticking = False
        self._sampling = False

    def sample(self) -> None:
        if self._sampling:  # a timer tick inside a burst's slice
            return
        self._sampling = True
        start = time.perf_counter()
        work_slice()
        self.slices.append((start, time.perf_counter() - start))
        self._sampling = False

    def burst(self) -> None:
        """Time ``BURST`` slices in a row, recorded as one slice of their
        mean time."""
        if self._sampling:
            return
        self._sampling = True
        start = time.perf_counter()
        for _ in range(BURST):
            work_slice()
        self.slices.append((start, (time.perf_counter() - start) / BURST))
        self._sampling = False

    def _tick(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        """Sample every ``PERIOD_S`` seconds until ``stop``."""
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self.ticking = True

    def stop(self) -> None:
        if self.ticking:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self.ticking = False

    def mark(self) -> int:
        return len(self.slices)

    def paused(self, mark: int, start: float) -> float:
        """Seconds spent in slices taken since ``mark`` that began at or
        after ``start``."""
        return sum(seconds for begin, seconds in self.slices[mark:] if begin >= start)

    def scales(self, intervals) -> list[float]:
        """For each ``(start, end)``, the factor that turns a time measured
        over it into a time at the reference speed.  The slices used are
        those taken inside the interval, the last one before it and the
        first one after it."""
        begins = [begin for begin, _ in self.slices]
        out = []
        for start, end in intervals:
            lo = max(bisect.bisect_left(begins, start) - 1, 0)
            hi = bisect.bisect_left(begins, end) + 1
            mean = statistics.fmean(seconds for _, seconds in self.slices[lo:hi])
            out.append(NOMINAL_S / mean)
        return out

    def summary(self) -> dict:
        times = [seconds * 1000 for _, seconds in self.slices]
        q1, med, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
        return {
            "nominal_ms": NOMINAL_S * 1000,
            "period_s": PERIOD_S,
            "slices": len(times),
            "median_ms": med,
            "q1_ms": q1,
            "q3_ms": q3,
        }
