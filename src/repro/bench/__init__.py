"""Perf-trajectory analyzer: normalized bench records over time.

``BENCH_*.json`` files are point-in-time snapshots.  This package turns
them into an *enforced trajectory*:

* :mod:`repro.bench.schema` — the normalized bench-record schema
  (``repro-bench/1``: named metrics with units and a better-direction)
  that every bench script writes;
* :mod:`repro.bench.trajectory` — baseline calculation (median of the
  history) and direction-aware regression/improvement detection with a
  configurable threshold;
* ``python -m repro.bench`` — ``compare`` (trajectory table, nonzero
  exit on regression: the CI gate), ``show`` (campaign-manifest
  drill-down) and ``profile`` (cProfile one experiment).
"""

from repro.bench.schema import (
    BenchRecord,
    BenchSchemaError,
    Metric,
    load_bench_file,
    normalize,
    to_json,
)
from repro.bench.trajectory import MetricTrajectory, TrajectoryReport, analyze

__all__ = [
    "BenchRecord",
    "BenchSchemaError",
    "Metric",
    "MetricTrajectory",
    "TrajectoryReport",
    "analyze",
    "load_bench_file",
    "normalize",
    "to_json",
]
