"""Opt-in observability: request tracing, metrics, and analysis.

Every probe tap of the simulator is declared once, in
:data:`repro.obs.probes.TAPS`; observers subscribe to a system's shared
:class:`ProbeBus`.  Three layers, all off by default (the unobserved hot
path pays one ``probe is not None`` check per tap):

* **tracing** (:mod:`repro.obs.tracer`, :mod:`repro.obs.span`) — a
  :class:`Tracer` subscribes to the probe taps and records a tree
  of timed spans per logical request: disk accesses with their seek /
  rotation / transfer / parity-sync phases, channel waits and wire
  time, queue time, mirror routing and destage marks.  Exports to JSONL
  (round-trippable) and Chrome trace-event JSON (Perfetto).
* **metrics** (:mod:`repro.obs.metrics`, :mod:`repro.obs.collect`) — a
  registry of named counters, gauges, mergeable log-spaced latency
  histograms and sampled time series (per-disk utilization and queue
  depth), exportable as CSV.
* **analysis** (:mod:`repro.obs.analyze`, ``python -m repro.obs``) —
  per-phase response-time breakdowns whose columns sum to the measured
  response, percentile tables, and A/B comparisons between runs.

Entry point::

    result = run_trace(config, workload, trace=True, metrics=True)
    result.trace.to_jsonl("run.jsonl")
    result.metrics.to_csv("run.csv")
    print(repro.obs.analyze.render_phases(result.trace))
"""

from repro.obs.analyze import (
    PHASE_ORDER,
    decompose,
    decompose_request,
    phase_table,
    render_compare,
    render_phases,
    render_summary,
)
from repro.obs.collect import MetricsCollector
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TimeSeries,
)
from repro.obs.probes import TAPS, ProbeBus
from repro.obs.span import SPAN_KINDS, Span, TraceData, well_formedness_problems
from repro.obs.tracer import Tracer

__all__ = [
    "Span",
    "TraceData",
    "SPAN_KINDS",
    "well_formedness_problems",
    "Tracer",
    "TAPS",
    "ProbeBus",
    "Counter",
    "Gauge",
    "Histogram",
    "TimeSeries",
    "MetricsRegistry",
    "MetricsCollector",
    "PHASE_ORDER",
    "decompose",
    "decompose_request",
    "phase_table",
    "render_summary",
    "render_phases",
    "render_compare",
]
