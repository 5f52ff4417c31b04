"""Trace-driven simulation runner.

Feeds a :class:`~repro.trace.record.Trace` through a built system: a
source process releases each request at its arrival time and spawns a
handler process on the owning array's controller; the handler's
completion time defines the response time.  Requests arriving before
the warm-up cutoff run normally but are excluded from the statistics.

Observability is opt-in: ``trace=True`` records a per-request span tree
(:class:`~repro.obs.span.TraceData` on ``result.trace``) and
``metrics=True`` fills a registry of counters, histograms and sampled
utilization timelines (``result.metrics``).  Neither perturbs the
simulation — instrumented runs produce bit-identical results.
"""

from __future__ import annotations

from typing import Generator, Optional, Union

import numpy as np

from repro.des import AllOf, Environment, Event, Tally
from repro.sim.config import SystemConfig
from repro.sim.results import ArrayMetrics, RunResult
from repro.sim.system import ArraySystem, build_system
from repro.trace.record import Trace
from repro.trace.synthetic import TraceStream

__all__ = ["run_trace"]


def run_trace(
    config: SystemConfig,
    workload: Union[Trace, TraceStream],
    warmup_fraction: float = 0.1,
    keep_samples: bool = True,
    name: Optional[str] = None,
    validate: bool = False,
    checkers=None,
    trace: bool = False,
    metrics: bool = False,
    backend: str = "des",
    failures=None,
    warmup_ms: Optional[float] = None,
) -> RunResult:
    """Simulate *workload* on a system built from *config*.

    Parameters
    ----------
    workload:
        A materialized :class:`~repro.trace.record.Trace`, or a
        :class:`~repro.trace.synthetic.TraceStream` — the streaming
        source keeps only one chunk of requests resident, so 10M+
        request runs stay memory-bounded.  A stream and its
        :meth:`~repro.trace.synthetic.TraceStream.materialize`-d trace
        run a bit-identical simulation; pass ``warmup_ms`` to also pin
        the statistics cutoff (a stream's ``duration_ms`` is the nominal
        target, a trace's the realized last arrival, so a *fractional*
        warm-up resolves differently).  Streams require the DES backend
        (the analytic solver characterizes a whole trace at once).
    backend:
        ``"des"`` (default) runs the discrete-event simulation;
        ``"analytic"`` solves the same question with the M/G/1 +
        fork-join model in :mod:`repro.analytic` — orders of magnitude
        faster, accurate within the cross-validation tolerance bands.
        The analytic backend has no events, so ``validate``/``trace``/
        ``metrics`` instrumentation cannot be combined with it, and it
        refuses what :func:`repro.analytic.unsupported` names: a
        failure schedule, or a config field it has no equations for.
    warmup_fraction:
        Fraction of the trace duration excluded from statistics while
        queues and caches warm up.
    warmup_ms:
        Absolute warm-up cutoff in milliseconds; overrides
        ``warmup_fraction`` when given.
    keep_samples:
        Store every response time (enables percentiles; disable for very
        long runs).
    validate:
        Attach a :class:`~repro.validate.ValidationMonitor` for the run:
        invariant checkers observe every disk access, channel transfer
        and cache mutation and raise
        :class:`~repro.validate.InvariantViolation` on the first breach.
        Off by default — the unmonitored hot path costs one identity
        check per tap.
    checkers:
        Checker instances for the monitor (requires ``validate=True``);
        ``None`` selects the stock set.
    trace:
        Record a span tree per request; the export lands on
        ``result.trace``.
    metrics:
        Collect counters, latency histograms and utilization timelines
        (sampled every 1/200th of the trace duration, at least 1 ms);
        the registry lands on ``result.metrics``.
    failures:
        A :class:`~repro.failure.FailureSchedule` of timed fault events
        (disk failure, spare arrival + rebuild, latent sector errors,
        periodic scrubbing) injected into the run.  A
        :class:`~repro.failure.FailureInjector` drives the scenario into
        the uncached controllers, which hold the failure state, and the
        outcome lands on ``result.failures`` as a
        :class:`~repro.failure.FailureReport`.  After the foreground
        trace drains, the clock keeps running until the scenario
        completes (pending events, started rebuilds, ``min_passes``
        scrub passes).  DES backend, uncached organizations only.

    Returns
    -------
    RunResult with response-time statistics and per-array counters.
    """
    if backend not in ("des", "analytic"):
        raise ValueError(f"unknown backend {backend!r}; expected 'des' or 'analytic'")
    if backend == "analytic":
        if isinstance(workload, TraceStream):
            raise ValueError(
                "the analytic backend characterizes a whole trace at once; "
                "materialize() the stream or use backend='des'"
            )
        from repro.analytic import check_supported, solve_trace

        check_supported(config, failures)
        if validate or checkers is not None:
            raise ValueError("the analytic backend has no events to validate")
        if trace or metrics:
            raise ValueError("the analytic backend has no events to trace/meter")
        return solve_trace(config, workload, warmup_fraction=warmup_fraction, name=name)
    arrays = config.arrays_for(workload.ndisks, workload.blocks_per_disk)
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError("warmup_fraction must be in [0, 1)")
    if warmup_ms is not None and warmup_ms < 0:
        raise ValueError("warmup_ms must be >= 0")
    if checkers is not None and not validate:
        raise ValueError("checkers were supplied but validate is False")
    if failures is not None:
        from repro.failure import FailureSchedule

        if not isinstance(failures, FailureSchedule):
            raise TypeError(
                f"failures must be a FailureSchedule, got {type(failures).__name__}"
            )
        if config.cached:
            raise ValueError(
                "failure schedules support the uncached organizations only; "
                "run with cached=False"
            )

    env = Environment()
    system = build_system(env, config, arrays)
    if warmup_ms is None:
        warmup_ms = workload.duration_ms * warmup_fraction

    monitor = None
    if validate:
        from repro.validate.monitor import ValidationMonitor

        monitor = ValidationMonitor(checkers)
        monitor.attach(env, system.controllers, warmup_ms)

    tracer = None
    if trace:
        from repro.obs.tracer import Tracer

        tracer = Tracer()
        tracer.attach(env, system.controllers)

    collector = None
    if metrics:
        from repro.obs.collect import MetricsCollector

        collector = MetricsCollector()
        interval_ms = max(workload.duration_ms / 200.0, 1.0)
        collector.attach(env, system.controllers, interval_ms)
    # The probe bus every observer subscribed to (each probe slot holds
    # it), or None when nothing observes the run.
    probe = system.controllers[0].probe

    result = RunResult(
        name=name or workload.name,
        organization=config.organization_label,
        n=sum(va.n for va in config.vas) if config.heterogeneous else config.n,
        narrays=len(arrays),
        simulated_ms=0.0,
        requests=len(workload),
        warmup_ms=warmup_ms,
    )
    if config.heterogeneous:
        result.va_response = [Tally() for _ in config.vas]
    for tally in (
        result.response,
        result.read_response,
        result.write_response,
        *result.va_response,
    ):
        tally._samples = [] if keep_samples else None

    # The injector is created *before* the source process so that fault
    # events scheduled for the same instant as a request arrival apply
    # first (lower sequence number) — a t=0 failure is visible to the
    # very first request, deterministically.
    injector = None
    if failures is not None and not failures.empty:
        from repro.failure import FailureInjector

        injector = FailureInjector(env, system, failures)

    # The background destage/spooler processes never terminate, so the
    # run ends when the last request completes, not when the event queue
    # drains.
    progress = _Progress(len(workload), Event(env))
    env.process(_source(env, system, workload, warmup_ms, result, progress, probe))
    if len(workload):
        env.run(until=progress.all_done)
    if injector is not None:
        # Keep the clock running until the scenario itself completes:
        # unapplied events, started rebuilds, owed scrub passes.
        injector.drain()
    result.simulated_ms = env.now
    result.events = env._seq
    if failures is not None:
        from repro.failure import build_report

        result.failures = build_report(
            system.controllers,
            rebuilds=injector.rebuilds if injector is not None else (),
            scrubs=injector.scrubs if injector is not None else (),
        )

    for controller in system.controllers:
        array_metrics = ArrayMetrics(
            disk_accesses=np.array([d.completed for d in controller.disks], dtype=np.int64),
            disk_utilization=np.array(
                [d.utilization(env.now) for d in controller.disks], dtype=np.float64
            ),
            channel_utilization=controller.channel.utilization(env.now),
        )
        cache = getattr(controller, "cache", None)
        if cache is not None:
            array_metrics.read_hits = cache.read_hits
            array_metrics.read_misses = cache.read_misses
            array_metrics.write_hits = cache.write_hits
            array_metrics.write_misses = cache.write_misses
            array_metrics.sync_writebacks = controller.sync_writebacks
            array_metrics.destaged_blocks = controller.destaged_blocks
        result.arrays.append(array_metrics)

    if tracer is not None:
        result.trace = tracer.finalize(
            {
                "name": result.name,
                "organization": result.organization,
                "n": result.n,
                "narrays": result.narrays,
                "warmup_ms": warmup_ms,
                "simulated_ms": result.simulated_ms,
            }
        )
    if monitor is not None:
        monitor.finalize(result)
    if collector is not None:
        result.metrics = collector.finalize(result)
    return result


class _Progress:
    """Counts completed requests and triggers when the last finishes."""

    __slots__ = ("remaining", "all_done")

    def __init__(self, total: int, all_done: Event) -> None:
        self.remaining = total
        self.all_done = all_done

    def one_done(self) -> None:
        self.remaining -= 1
        if self.remaining == 0:
            self.all_done.succeed()


def _source(
    env: Environment,
    system: ArraySystem,
    workload: Union[Trace, TraceStream],
    warmup_ms: float,
    result: RunResult,
    progress: "_Progress",
    probe=None,
) -> Generator[Event, None, None]:
    """Release requests at their trace arrival times.

    A materialized trace is treated as a single chunk, so the array and
    streaming paths run the same release loop — per-request behaviour is
    bit-identical between them by construction.  With a stream, only the
    current chunk's columns are resident; the next chunk is generated
    after the last request of this one has been released.
    """
    if isinstance(workload, Trace):
        chunk_iter = iter((workload.records,))
    else:
        chunk_iter = workload.chunks()
    rid = 0
    for records in chunk_iter:
        # One bulk tolist() per column instead of a numpy scalar
        # allocation per field access; the python floats/ints carry the
        # same values.
        times = records["time"].tolist()
        lblocks = records["lblock"].tolist()
        nblocks = records["nblocks"].tolist()
        is_write = records["is_write"].tolist()
        for i in range(len(times)):
            t = times[i]
            if t > env.now:
                yield env.timeout(t - env.now)
            lstart, span, write = lblocks[i], nblocks[i], is_write[i]
            proc = env.process(
                _request(
                    env, system, lstart, span, write, warmup_ms, result,
                    progress, rid, probe,
                )
            )
            if probe is not None:
                probe.on_request_released(rid, proc, lstart, span, write)
            rid += 1


def _request(
    env: Environment,
    system: ArraySystem,
    lblock: int,
    nblocks: int,
    is_write: bool,
    warmup_ms: float,
    result: RunResult,
    progress: "_Progress",
    rid: int = -1,
    probe=None,
) -> Generator[Event, None, None]:
    """Service one trace request, splitting across arrays if needed."""
    t0 = env.now
    parts = system.split(lblock, nblocks)

    if len(parts) == 1:
        _, controller, local, span = parts[0]
        yield from controller.handle(local, span, is_write)
    else:
        procs = [
            env.process(controller.handle(local, span, is_write))
            for _, controller, local, span in parts
        ]
        yield AllOf(env, procs)

    if probe is not None:
        probe.on_request_completed(rid)
    if t0 >= warmup_ms:
        rt = env.now - t0
        result.response.observe(rt)
        (result.write_response if is_write else result.read_response).observe(rt)
        if result.va_response:
            result.va_response[parts[0][0]].observe(rt)
        if probe is not None:
            probe.on_response(rt, is_write)
    progress.one_done()
