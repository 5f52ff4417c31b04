"""Sampling metrics from a running simulation.

:class:`MetricsCollector` owns a :class:`~repro.obs.metrics.MetricsRegistry`
and fills it from two sides:

* a *sampler process* per environment records utilization and
  queue-depth timelines for every disk and channel at a fixed interval
  (the timelines behind the paper's aggregate utilization numbers);
* an *end-of-run harvest* copies the simulator's own counters (accesses,
  seeks, cache hits, destages) into named metrics.

The collector only ever schedules pure timeout events and reads public
counters, so a metered run produces bit-identical results to an
unmetered one.  Response-time histograms are fed by the runner's
``response`` probe tap, emitted at the same point it feeds
:class:`~repro.des.Tally`, so histogram counts match
``RunResult.response.count`` exactly.
"""

from __future__ import annotations

from typing import Generator, Optional, Sequence

from repro.obs.metrics import MetricsRegistry
from repro.obs.probes import ProbeBus

__all__ = ["MetricsCollector"]

#: Response-time histograms: 10 µs .. 100 s, 8 buckets per decade.
_RESPONSE_HIST = dict(lo=0.01, hi=1e5, buckets_per_decade=8)


class MetricsCollector:
    """Fills a fresh metrics registry from a built system."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.env = None
        self.controllers: Sequence = ()
        self._bus: Optional[ProbeBus] = None

    # -- lifecycle -----------------------------------------------------------
    def attach(self, env, controllers: Sequence, interval_ms: float) -> "MetricsCollector":
        """Start the utilization/queue-depth sampler and subscribe to the
        probe bus of *controllers*."""
        if interval_ms <= 0:
            raise ValueError("interval_ms must be positive")
        self.env = env
        self.controllers = list(controllers)
        env.process(self._sample_loop(interval_ms))
        self._bus = ProbeBus.of(self.controllers)
        self._bus.subscribe(self)
        return self

    def _sample_loop(self, interval_ms: float) -> Generator:
        env = self.env
        reg = self.registry
        while True:
            yield env.timeout(interval_ms)
            now = env.now
            for ctrl in self.controllers:
                for disk in ctrl.disks:
                    reg.series("disk_utilization", disk=disk.name).record(
                        now, disk.utilization(now)
                    )
                    reg.series("disk_queue_depth", disk=disk.name).record(
                        now, disk.pending + (1 if disk.in_service is not None else 0)
                    )
                chan = ctrl.channel
                reg.series("channel_utilization", channel=chan.name).record(
                    now, chan.utilization(now)
                )
                cache = getattr(ctrl, "cache", None)
                if cache is not None:
                    reg.series("cache_dirty_blocks", channel=chan.name).record(
                        now, len(cache.dirty_blocks(include_destaging=True))
                    )
                    reg.series("cache_occupancy", channel=chan.name).record(
                        now, cache.occupancy
                    )

    # -- probe tap ---------------------------------------------------------------
    def on_response(self, rt_ms: float, is_write: bool) -> None:
        """Record one measured response time."""
        reg = self.registry
        reg.histogram("response_ms", **_RESPONSE_HIST).observe(rt_ms)
        name = "write_response_ms" if is_write else "read_response_ms"
        reg.histogram(name, **_RESPONSE_HIST).observe(rt_ms)

    # -- harvest -----------------------------------------------------------------
    def finalize(self, result=None) -> MetricsRegistry:
        """Unsubscribe, copy the simulator's counters into the registry
        and return it."""
        if self._bus is not None:
            self._bus.unsubscribe(self)
            self._bus = None
        reg = self.registry
        env = self.env
        now = env.now if env is not None else 0.0
        for ctrl in self.controllers:
            for disk in ctrl.disks:
                d = dict(disk=disk.name)
                reg.counter("disk_completed", **d).inc(disk.completed)
                reg.counter("disk_reads", **d).inc(disk.reads)
                reg.counter("disk_writes", **d).inc(disk.writes)
                reg.counter("disk_rmws", **d).inc(disk.rmws)
                reg.counter("disk_blocks_transferred", **d).inc(disk.blocks_transferred)
                reg.counter("disk_seek_time_ms", **d).inc(disk.seek_time_total)
                reg.counter("disk_busy_time_ms", **d).inc(disk.busy_time)
                reg.gauge("disk_utilization_final", **d).set(disk.utilization(now))
                reg.gauge("disk_mean_queue_depth", **d).set(
                    disk.queue_length.mean(now) if now > 0 else 0.0
                )
            chan = ctrl.channel
            c = dict(channel=chan.name)
            reg.counter("channel_bytes", **c).inc(chan.bytes_transferred)
            reg.counter("channel_transfers", **c).inc(chan.transfers)
            reg.counter("channel_busy_time_ms", **c).inc(chan.busy_time)
            reg.gauge("channel_utilization_final", **c).set(chan.utilization(now))
            cache = getattr(ctrl, "cache", None)
            if cache is not None:
                reg.counter("cache_read_hits", **c).inc(cache.read_hits)
                reg.counter("cache_read_misses", **c).inc(cache.read_misses)
                reg.counter("cache_write_hits", **c).inc(cache.write_hits)
                reg.counter("cache_write_misses", **c).inc(cache.write_misses)
                reg.counter("destaged_blocks", **c).inc(ctrl.destaged_blocks)
                reg.counter("sync_writebacks", **c).inc(ctrl.sync_writebacks)
        if result is not None:
            reg.gauge("simulated_ms").set(result.simulated_ms)
            reg.gauge("requests_total").set(result.requests)
            reg.gauge("mean_response_ms").set(result.response.mean)
        return reg
