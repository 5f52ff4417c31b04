"""Timings corrected for the speed of a shared host.

A shared machine's speed drifts with its neighbours' load: for seconds
to minutes at a time every instruction runs 20-40% slower, wall and CPU
time alike, so no statistic of the program's own timings tells a
slower program from a slower host.  :class:`HostClock` measures the
host's speed while the program runs.  Every :data:`PERIOD_S` of wall
time a ``SIGALRM`` handler times :func:`reference_loop`, a fixed
pure-Python loop whose code never changes with the program's.  A span
timed with :meth:`HostClock.span` is then read in *reference seconds*:
its wall time, less the handler's own time, times the host's mean speed
during the span, ``NOMINAL_S / loop time`` averaged over the samples
taken in it.  On a host where the loop takes :data:`NOMINAL_S`,
reference seconds are wall seconds; on the 2-core container the
benchmark was written on it took 3-5 ms, fast and slow phases alike.

The handler runs between bytecodes of the main thread and touches no
program state, so it does not change what is simulated: the output
digests check that.  It costs about 4% of wall time, which is taken out.
"""

from __future__ import annotations

import bisect
import heapq
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = ["HostClock", "Span", "reference_loop"]

#: Iterations of the reference loop: 3-5 ms.
ITERATIONS = 4_000
#: Wall seconds between samples.
PERIOD_S = 0.1
#: The loop time that defines speed 1.0.
NOMINAL_S = 0.004


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def reference_loop(n: int = ITERATIONS) -> int:
    """Small objects through a bounded heap, as the simulator's kernel moves events.

    It tracked the host's speed more closely on the analytic sweep than
    integer arithmetic alone, and as closely on the DES workloads.
    """
    heap: list = []
    total = 0
    for i in range(n):
        item = _Item(i * 7 % 13, i)
        heapq.heappush(heap, (item.key, i, item))
        if len(heap) > 32:
            total += heapq.heappop(heap)[2].value
    return total


@dataclass
class Span:
    """One timed stretch of program work."""

    start: float
    end: float = 0.0
    handler_s: float = 0.0

    @property
    def wall_s(self) -> float:
        """Wall seconds of program work, without the sampler's."""
        return self.end - self.start - self.handler_s


class HostClock:
    """Samples the host's speed while it is entered; reads spans in reference seconds."""

    def __init__(self) -> None:
        self._ends: list[float] = []  # perf_counter at the end of each sample
        self._speeds: list[float] = []  # NOMINAL_S / loop time, per sample
        self._handler_s = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        self._ends.append(t1)
        self._speeds.append(NOMINAL_S / (t1 - t0))
        self._handler_s += t1 - t0

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()  # so that every span has a sample near it

    @contextmanager
    def span(self):
        """Time the body of the ``with`` block as a :class:`Span`."""
        handler_s = self._handler_s
        span = Span(time.perf_counter())
        yield span
        span.end = time.perf_counter()
        span.handler_s = self._handler_s - handler_s

    def speed(self, span: Span) -> float:
        """Mean host speed over the samples within one period of *span*.

        A span shorter than the period may have none; the next sample
        (or the last, at the end) is used.  Read it after the clock has
        exited.
        """
        lo = bisect.bisect_left(self._ends, span.start - PERIOD_S)
        hi = bisect.bisect_right(self._ends, span.end + PERIOD_S)
        if lo == hi:
            lo = min(lo, len(self._ends) - 1)
            hi = lo + 1
        return statistics.fmean(self._speeds[lo:hi])

    def seconds(self, span: Span) -> float:
        """The span's program time in reference seconds."""
        return span.wall_s * self.speed(span)
