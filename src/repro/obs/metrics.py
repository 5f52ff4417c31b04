"""Metrics registry: counters, gauges, log-bucket histograms, series.

Everything here is designed for cheap recording and export:

* :class:`Histogram` uses fixed log-spaced bucket edges, so an
  observation costs one logarithm and one integer increment, however
  long the run.
* :class:`TimeSeries` holds sampled ``(time, value)`` points — the
  utilization and queue-depth timelines the paper's aggregate curves
  hide.
* :class:`MetricsRegistry` names metrics (with optional labels) and
  exports the lot as CSV.
"""

from __future__ import annotations

import csv
import io
import math
from typing import Iterator, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "TimeSeries",
    "MetricsRegistry",
]

Labels = tuple[tuple[str, str], ...]


def _labels_key(labels: dict) -> Labels:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _labels_str(labels: Labels) -> str:
    return ";".join(f"{k}={v}" for k, v in labels)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A value that can go up and down; exports its last setting."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value = math.nan

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed log-spaced latency histogram.

    Buckets cover ``[lo, hi)`` with ``buckets_per_decade`` bins per
    factor of ten, plus an underflow bin (everything below ``lo``,
    including zero) and an overflow bin (everything at or above ``hi``).

    Percentiles are approximate: linear interpolation inside the
    containing bucket, clamped to the observed min/max.
    """

    kind = "histogram"

    def __init__(
        self, lo: float = 0.01, hi: float = 1e5, buckets_per_decade: int = 8
    ) -> None:
        if not (0 < lo < hi):
            raise ValueError("need 0 < lo < hi")
        if buckets_per_decade < 1:
            raise ValueError("buckets_per_decade must be >= 1")
        self.lo = float(lo)
        self.hi = float(hi)
        self.buckets_per_decade = int(buckets_per_decade)
        self._log_lo = math.log10(self.lo)
        ndecades = math.log10(self.hi) - self._log_lo
        self._nbins = max(1, math.ceil(ndecades * self.buckets_per_decade - 1e-9))
        # counts[0] = underflow, counts[1:-1] = log bins, counts[-1] = overflow
        self.counts = [0] * (self._nbins + 2)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    # -- recording ----------------------------------------------------------
    def _index(self, value: float) -> int:
        if value < self.lo:
            return 0
        if value >= self.hi:
            return self._nbins + 1
        k = int((math.log10(value) - self._log_lo) * self.buckets_per_decade)
        return min(max(k, 0), self._nbins - 1) + 1

    def upper_edge(self, index: int) -> float:
        """Upper bound of bucket *index* (``inf`` for the overflow bin)."""
        if index <= 0:
            return self.lo
        if index >= self._nbins + 1:
            return math.inf
        if index == self._nbins:
            return self.hi
        return 10.0 ** (self._log_lo + index / self.buckets_per_decade)

    def lower_edge(self, index: int) -> float:
        if index <= 0:
            return 0.0
        return 10.0 ** (self._log_lo + (index - 1) / self.buckets_per_decade)

    def observe(self, value: float) -> None:
        self.counts[self._index(value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    # -- statistics -----------------------------------------------------------
    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    def percentile(self, q: float) -> float:
        """Approximate percentile ``q`` in [0, 100]."""
        if not 0 <= q <= 100:
            raise ValueError("q must be in [0, 100]")
        if self.count == 0:
            return math.nan
        target = q / 100.0 * self.count
        cum = 0
        for i, c in enumerate(self.counts):
            if c == 0:
                continue
            if cum + c >= target:
                frac = (target - cum) / c
                louter = max(self.lower_edge(i), 0.0)
                upper = self.upper_edge(i)
                if not math.isfinite(upper):
                    upper = self.max
                est = louter + frac * (upper - louter)
                return min(max(est, self.min), self.max)
            cum += c
        return self.max


class TimeSeries:
    """Sampled ``(time_ms, value)`` points of one signal."""

    __slots__ = ("times", "values")
    kind = "series"

    def __init__(self) -> None:
        self.times: list[float] = []
        self.values: list[float] = []

    def record(self, time_ms: float, value: float) -> None:
        self.times.append(float(time_ms))
        self.values.append(float(value))

    def __len__(self) -> int:
        return len(self.times)

    @property
    def last(self) -> float:
        return self.values[-1] if self.values else math.nan


class MetricsRegistry:
    """Named metrics with optional labels.

    ``registry.counter("disk_completed", disk="a0.d1").inc()`` — the
    getter creates on first use and returns the same object afterwards.
    Iteration order (and therefore export order) is sorted by name and
    labels, so exports are deterministic.
    """

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, Labels], object] = {}

    # -- getters ------------------------------------------------------------
    def _get(self, cls, name: str, labels: dict, **kw):
        key = (name, _labels_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(**kw)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        lo: float = 0.01,
        hi: float = 1e5,
        buckets_per_decade: int = 8,
        **labels,
    ) -> Histogram:
        return self._get(
            Histogram, name, labels, lo=lo, hi=hi, buckets_per_decade=buckets_per_decade
        )

    def series(self, name: str, **labels) -> TimeSeries:
        return self._get(TimeSeries, name, labels)

    def get(self, name: str, **labels):
        """The metric registered under *name*/*labels*, or ``None``."""
        return self._metrics.get((name, _labels_key(labels)))

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[tuple[str, Labels, object]]:
        for (name, labels) in sorted(self._metrics):
            yield name, labels, self._metrics[(name, labels)]

    # -- CSV export -----------------------------------------------------------
    def to_csv(self) -> str:
        """``kind,name,labels,field,value`` rows, one per counter or
        gauge value, histogram field and non-empty bucket, and series
        sample; labels are ``k=v`` pairs joined by ``;``."""
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["kind", "name", "labels", "field", "value"])
        for name, labels, metric in self:
            ls = _labels_str(labels)
            if isinstance(metric, (Counter, Gauge)):
                w.writerow([metric.kind, name, ls, "value", repr(metric.value)])
            elif isinstance(metric, Histogram):
                for f in ("lo", "hi", "buckets_per_decade", "count", "total"):
                    w.writerow(["histogram", name, ls, f, repr(getattr(metric, f))])
                if metric.count:
                    w.writerow(["histogram", name, ls, "min", repr(metric.min)])
                    w.writerow(["histogram", name, ls, "max", repr(metric.max)])
                for i, c in enumerate(metric.counts):
                    if c:
                        w.writerow(["histogram", name, ls, f"bucket_{i}", str(c)])
            elif isinstance(metric, TimeSeries):
                for t, v in zip(metric.times, metric.values):
                    w.writerow(["series", name, ls, repr(t), repr(v)])
        return buf.getvalue()
