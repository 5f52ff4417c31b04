"""Streaming workloads through the simulator.

The contract: a :class:`TraceStream` and its ``materialize()``-d trace
drive a bit-identical simulation (the runner treats a materialized
trace as a single chunk), provided the warm-up cutoff is pinned with
``warmup_ms`` — a stream's ``duration_ms`` is the nominal target while
a trace's is the realized last arrival, so a *fractional* warm-up
resolves differently.  Also pinned here: observability instrumentation
(span tracer, metrics registry) does not perturb a streamed run.
"""

import numpy as np
import pytest

from repro.sim import Organization, SystemConfig, run_trace
from repro.trace.synthetic import TraceStream, trace2_config

GEN = trace2_config(scale=0.01)  # ~700 requests over 10 data disks

ORGS = [
    dict(org=Organization.BASE),
    dict(org=Organization.MIRROR),
    dict(org=Organization.RAID5),
    dict(org=Organization.RAID4, cached=True, cache_mb=4, parity_caching=True),
    dict(org=Organization.PARITY_STRIPING, cached=True, cache_mb=4),
]


def _config(org, **kw):
    return SystemConfig(
        organization=org, blocks_per_disk=GEN.blocks_per_disk, n=10, **kw
    )


def _assert_identical(a, b, events=True):
    assert a.simulated_ms == b.simulated_ms
    assert a.requests == b.requests
    if events:
        # Instrumented runs schedule extra kernel events (the metrics
        # timeline sampler), so callers comparing across instrumentation
        # skip the event count — it is telemetry, not an outcome.
        assert a.events == b.events
    assert np.array_equal(a.response.samples, b.response.samples)
    assert np.array_equal(a.read_response.samples, b.read_response.samples)
    assert np.array_equal(a.write_response.samples, b.write_response.samples)
    for ma, mb in zip(a.arrays, b.arrays):
        assert np.array_equal(ma.disk_accesses, mb.disk_accesses)
        assert np.array_equal(ma.disk_utilization, mb.disk_utilization)
        assert ma.channel_utilization == mb.channel_utilization


class TestStreamVsMaterialized:
    @pytest.mark.parametrize("kw", ORGS, ids=lambda kw: kw["org"].value)
    def test_bit_identical_run(self, kw):
        kw = dict(kw)
        cfg = _config(kw.pop("org"), **kw)
        stream = TraceStream(GEN, chunk_requests=128)
        trace = stream.materialize()
        warmup_ms = trace.duration_ms * 0.1
        from_trace = run_trace(cfg, trace, warmup_ms=warmup_ms)
        from_stream = run_trace(cfg, stream, warmup_ms=warmup_ms)
        _assert_identical(from_trace, from_stream)

    def test_stream_runs_are_repeatable(self):
        cfg = _config(Organization.RAID5)
        stream = TraceStream(GEN, chunk_requests=128)
        a = run_trace(cfg, stream, warmup_ms=0.0)
        b = run_trace(cfg, stream, warmup_ms=0.0)
        _assert_identical(a, b)


class TestStreamGuards:
    def test_analytic_backend_rejects_streams(self):
        stream = TraceStream(GEN, chunk_requests=128)
        with pytest.raises(ValueError, match="materialize"):
            run_trace(_config(Organization.BASE), stream, backend="analytic")

    def test_negative_warmup_rejected(self):
        stream = TraceStream(GEN, chunk_requests=128)
        with pytest.raises(ValueError):
            run_trace(_config(Organization.BASE), stream, warmup_ms=-1.0)


class TestObsNonPerturbation:
    """Event hooks (tracer/metrics) leave a streamed run's results
    unchanged."""

    def test_instrumented_run_matches_plain(self):
        cfg = _config(Organization.RAID5)
        stream = TraceStream(GEN, chunk_requests=128)
        plain = run_trace(cfg, stream, warmup_ms=0.0)
        instrumented = run_trace(
            cfg, stream, warmup_ms=0.0, trace=True, metrics=True
        )
        _assert_identical(plain, instrumented, events=False)
        assert instrumented.trace is not None
        assert instrumented.metrics is not None
