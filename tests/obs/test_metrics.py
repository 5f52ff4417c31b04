"""Unit tests for the metrics primitives: counters, gauges, log-bucket
histograms and the registry."""

import math

import pytest

from repro.obs import Counter, Gauge, Histogram, MetricsRegistry, TimeSeries


class TestCounterGauge:
    def test_counter(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_gauge(self):
        g = Gauge()
        assert math.isnan(g.value)
        g.set(7)
        assert g.value == 7.0


class TestHistogram:
    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            Histogram(lo=0.0, hi=1.0)
        with pytest.raises(ValueError):
            Histogram(lo=10.0, hi=1.0)
        with pytest.raises(ValueError):
            Histogram(buckets_per_decade=0)

    def test_underflow_and_overflow(self):
        h = Histogram(lo=1.0, hi=100.0, buckets_per_decade=4)
        h.observe(0.0)
        h.observe(0.5)
        h.observe(1e9)
        assert h.counts[0] == 2
        assert h.counts[-1] == 1
        assert h.count == 3

    def test_mean_and_empty_percentile(self):
        h = Histogram()
        assert math.isnan(h.mean)
        assert math.isnan(h.percentile(50))
        h.observe(2.0)
        h.observe(4.0)
        assert h.mean == 3.0

    def test_percentile_clamped_to_observed_range(self):
        h = Histogram(lo=1.0, hi=1000.0)
        for x in (5.0, 5.5, 6.0):
            h.observe(x)
        assert 5.0 <= h.percentile(50) <= 6.0
        assert h.percentile(0) >= 5.0
        assert h.percentile(100) <= 6.0

    def test_percentile_rejects_bad_q(self):
        with pytest.raises(ValueError):
            Histogram().percentile(101)


class TestTimeSeries:
    def test_record(self):
        s = TimeSeries()
        assert math.isnan(s.last)
        s.record(1.0, 0.5)
        s.record(2.0, 0.7)
        assert len(s) == 2
        assert s.last == 0.7


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        a = reg.counter("x", disk="d0")
        b = reg.counter("x", disk="d0")
        assert a is b
        assert reg.counter("x", disk="d1") is not a

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_get_missing_is_none(self):
        assert MetricsRegistry().get("nope") is None

    def test_iteration_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.counter("a", z="1")
        reg.counter("a", a="1")
        names = [(n, labels) for n, labels, _ in reg]
        assert names == sorted(names)
