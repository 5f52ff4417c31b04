"""Edge-case tests for the results module."""

import math

import numpy as np
import pytest

from repro.sim.results import ArrayMetrics, RunResult


def metrics(accesses, utils, chan=0.1, **kw):
    return ArrayMetrics(
        disk_accesses=np.asarray(accesses, dtype=np.int64),
        disk_utilization=np.asarray(utils, dtype=np.float64),
        channel_utilization=chan,
        **kw,
    )


class TestRunResultEdges:
    def test_empty_result(self):
        r = RunResult(
            name="x", organization="base", n=4, narrays=0,
            simulated_ms=0.0, requests=0, warmup_ms=0.0,
        )
        assert math.isnan(r.mean_response_ms)
        assert math.isnan(r.read_hit_ratio)
        assert math.isnan(r.mean_disk_utilization)
        assert len(r.per_disk_accesses) == 0

    def test_aggregation_across_arrays(self):
        r = RunResult(
            name="x", organization="raid5", n=4, narrays=2,
            simulated_ms=2000.0, requests=10, warmup_ms=0.0,
        )
        r.arrays.append(metrics([1, 2], [0.1, 0.2], read_hits=3, read_misses=1))
        r.arrays.append(metrics([3, 4], [0.3, 0.4], read_hits=1, read_misses=3))
        assert list(r.per_disk_accesses) == [1, 2, 3, 4]
        assert r.mean_disk_utilization == pytest.approx(0.25)
        assert r.max_disk_utilization == pytest.approx(0.4)
        assert r.read_hit_ratio == pytest.approx(0.5)

    def test_summary_without_cache_stats(self):
        r = RunResult(
            name="x", organization="base", n=4, narrays=1,
            simulated_ms=100.0, requests=1, warmup_ms=0.0,
        )
        r.response.observe(5.0)
        r.read_response.observe(5.0)
        r.write_response.observe(1.0)
        r.arrays.append(metrics([1], [0.5]))
        text = r.summary()
        assert "hit ratios" not in text  # no cached counters recorded
        assert "mean response" in text

    def test_write_hit_ratio_nan_when_no_writes(self):
        r = RunResult(
            name="x", organization="base", n=4, narrays=1,
            simulated_ms=1.0, requests=0, warmup_ms=0.0,
        )
        r.arrays.append(metrics([1], [0.1]))
        assert math.isnan(r.write_hit_ratio)
