"""Statistics collectors for simulation outputs.

:class:`Tally`
    Streaming sample statistics (Welford mean/variance, min/max) with an
    optional full sample store for exact percentiles.

:class:`TimeWeighted`
    Time-weighted statistics for piecewise-constant signals such as queue
    lengths and busy/idle indicators.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

__all__ = ["Tally", "TimeWeighted"]


class Tally:
    """Streaming statistics over a sequence of observations.

    Parameters
    ----------
    keep_samples:
        If True (default), every observation is stored so that exact
        percentiles can be computed.  Disable for very long runs where
        only mean/variance are needed.
    """

    __slots__ = ("count", "_mean", "_m2", "min", "max", "_samples")

    def __init__(self, keep_samples: bool = True) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._samples: Optional[list[float]] = [] if keep_samples else None

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if self._samples is not None:
            self._samples.append(value)

    @property
    def mean(self) -> float:
        """Sample mean (NaN when empty)."""
        return self._mean if self.count else math.nan

    @property
    def variance(self) -> float:
        """Unbiased sample variance (NaN for fewer than 2 samples)."""
        return self._m2 / (self.count - 1) if self.count > 1 else math.nan

    @property
    def std(self) -> float:
        """Sample standard deviation."""
        v = self.variance
        return math.sqrt(v) if v == v else math.nan  # NaN-safe

    @property
    def keeps_samples(self) -> bool:
        """True if every observation is stored (``keep_samples=True``)."""
        return self._samples is not None

    def percentile(self, q: float) -> float:
        """Exact percentile ``q`` in [0, 100]; requires stored samples.

        Raises
        ------
        ValueError
            If the tally was built with ``keep_samples=False`` — there is
            no sample store to compute an exact percentile from.  (An
            *empty* tally with a sample store returns NaN instead.)  Use
            a :class:`repro.obs.Histogram` when approximate percentiles
            without a sample store are acceptable.
        """
        if self._samples is None:
            raise ValueError(
                "percentile requires keep_samples=True (no sample store on "
                "this Tally); use repro.obs.Histogram for approximate "
                "percentiles without storing samples"
            )
        if not self._samples:
            return math.nan
        return float(np.percentile(np.asarray(self._samples), q))

    @property
    def samples(self) -> np.ndarray:
        """All recorded observations as an array.

        Raises :class:`ValueError` if the tally was built with
        ``keep_samples=False``.
        """
        if self._samples is None:
            raise ValueError("samples were not kept (keep_samples=False)")
        return np.asarray(self._samples)

    def merge(self, other: "Tally") -> "Tally":
        """Combine two tallies (parallel-axis update of the moments)."""
        out = Tally(keep_samples=self._samples is not None and other._samples is not None)
        n = self.count + other.count
        if n == 0:
            return out
        delta = other._mean - self._mean
        out.count = n
        out._mean = self._mean + delta * other.count / n
        out._m2 = self._m2 + other._m2 + delta * delta * self.count * other.count / n
        out.min = min(self.min, other.min)
        out.max = max(self.max, other.max)
        if out._samples is not None:
            out._samples = list(self._samples or []) + list(other._samples or [])
        return out

    def __repr__(self) -> str:
        return f"Tally(n={self.count}, mean={self.mean:.4g}, min={self.min:.4g}, max={self.max:.4g})"


class TimeWeighted:
    """Time-weighted mean of a piecewise-constant signal.

    Call :meth:`update` whenever the signal changes; the value holds from
    the previous update time to the current one.
    """

    __slots__ = ("_last_time", "_value", "_area", "_start", "max", "min")

    def __init__(self, time: float = 0.0, value: float = 0.0) -> None:
        self._last_time = time
        self._value = value
        self._area = 0.0
        self._start = time
        self.max = value
        self.min = value

    @property
    def value(self) -> float:
        """The current signal value."""
        return self._value

    def update(self, time: float, value: float) -> None:
        """Set the signal to *value* at *time*."""
        if time < self._last_time:
            raise ValueError(f"time went backwards: {time} < {self._last_time}")
        self._area += self._value * (time - self._last_time)
        self._last_time = time
        self._value = value
        if value > self.max:
            self.max = value
        if value < self.min:
            self.min = value

    def add(self, time: float, delta: float) -> None:
        """Increment the signal by *delta* at *time*.

        ``update(time, value + delta)`` written out: the same operations
        in the same order, without the second call.
        """
        last = self._last_time
        if time < last:
            raise ValueError(f"time went backwards: {time} < {last}")
        value = self._value
        self._area += value * (time - last)
        self._last_time = time
        value += delta
        self._value = value
        if value > self.max:
            self.max = value
        if value < self.min:
            self.min = value

    def mean(self, now: float) -> float:
        """Time-weighted mean over ``[start, now]``.

        Raises :class:`ValueError` if *now* is before the last change,
        as :meth:`update` does: the signal's last value would be
        integrated over a negative span.
        """
        if now < self._last_time:
            raise ValueError(f"time went backwards: {now} < {self._last_time}")
        span = now - self._start
        if span <= 0:
            return math.nan
        area = self._area + self._value * (now - self._last_time)
        return area / span

    def __repr__(self) -> str:
        return f"TimeWeighted(value={self._value:.4g}, max={self.max:.4g})"
