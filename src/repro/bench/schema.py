"""Normalized bench-record schema and adapters for the legacy shapes.

A normalized record (``repro-bench/1``) is::

    {
      "schema": "repro-bench/1",
      "bench_id": "campaign+kernel",
      "context": {"python": "...", "platform": "...", "cores": 1},
      "metrics": {
        "event_throughput.events_per_s":
            {"value": 764913, "unit": "events/s", "direction": "higher"},
        ...
      },
      "raw": { ... original document, optional ... }
    }

``direction`` says which way is better, so the trajectory analyzer can
flag a drop in throughput and a *rise* in model error with the same
code path.  Two adapters read the historical shapes emitted by
``benchmarks/bench_campaign.py`` (``"benchmark": "campaign+kernel"``,
committed as BENCH_5) and ``benchmarks/bench_analytic.py``
(``"analytic-vs-des"``, BENCH_6); anything else raises
:class:`BenchSchemaError` rather than guessing.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Union

__all__ = [
    "SCHEMA",
    "BenchRecord",
    "BenchSchemaError",
    "Metric",
    "load_bench_file",
    "normalize",
    "to_json",
]

SCHEMA = "repro-bench/1"


class BenchSchemaError(ValueError):
    """A bench document that no adapter can read (or reads as invalid)."""


@dataclass(frozen=True)
class Metric:
    """One measured number with its unit and better-direction."""

    value: float
    unit: str = ""
    direction: str = "higher"  # "higher" | "lower" (which way is better)

    def __post_init__(self) -> None:
        if self.direction not in ("higher", "lower"):
            raise BenchSchemaError(
                f"direction must be 'higher' or 'lower', got {self.direction!r}"
            )
        if not isinstance(self.value, (int, float)) or isinstance(self.value, bool):
            raise BenchSchemaError(f"metric value must be numeric, got {self.value!r}")
        if not math.isfinite(self.value):
            raise BenchSchemaError(f"metric value must be finite, got {self.value!r}")


@dataclass
class BenchRecord:
    """A normalized benchmark result."""

    bench_id: str
    context: Dict[str, object] = field(default_factory=dict)
    metrics: Dict[str, Metric] = field(default_factory=dict)
    raw: Optional[dict] = None
    source: str = ""  # file path / display label


def _metric(doc: dict, *path, unit: str = "", direction: str = "higher") -> Optional[Metric]:
    """Pull ``doc[path...]`` into a Metric; ``None`` when absent/null."""
    node = doc
    for part in path:
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    if node is None:
        return None
    if isinstance(node, bool):
        node = 1.0 if node else 0.0
    return Metric(float(node), unit=unit, direction=direction)


def _context(doc: dict) -> Dict[str, object]:
    return {k: doc[k] for k in ("python", "platform", "cores") if k in doc}


# -- adapters ----------------------------------------------------------------


def _from_campaign_kernel(doc: dict, source: str) -> BenchRecord:
    metrics: Dict[str, Metric] = {}
    for name, spec in {
        "campaign.speedup": (("campaign", "speedup"), "x", "higher"),
        "campaign.serial_s": (("campaign", "serial_s"), "s", "lower"),
        "campaign.parallel_s": (("campaign", "parallel_s"), "s", "lower"),
        "campaign.outputs_identical": (("campaign", "outputs_identical"), "bool", "higher"),
        "event_throughput.events_per_s": (
            ("event_throughput", "events_per_s"), "events/s", "higher"),
        "seek_time.lut_speedup": (("seek_time", "lut_speedup"), "x", "higher"),
        "trace_generation.requests_per_s": (
            ("trace_generation", "requests_per_s"), "req/s", "higher"),
        "streaming.requests": (("streaming", "requests"), "req", "higher"),
        "streaming.requests_per_s": (
            ("streaming", "requests_per_s"), "req/s", "higher"),
        "streaming.peak_trace_mb": (
            ("streaming", "peak_trace_mb"), "MB", "lower"),
        "streaming.bounded": (("streaming", "bounded"), "bool", "higher"),
    }.items():
        path, unit, direction = spec
        metric = _metric(doc, *path, unit=unit, direction=direction)
        if metric is not None:
            metrics[name] = metric
    if not metrics:
        raise BenchSchemaError(f"{source}: campaign+kernel document has no metrics")
    return BenchRecord(
        bench_id="campaign+kernel",
        context=_context(doc),
        metrics=metrics,
        raw=doc,
        source=source,
    )


def _from_analytic(doc: dict, source: str) -> BenchRecord:
    metrics: Dict[str, Metric] = {}
    campaigns = doc.get("campaigns")
    if not isinstance(campaigns, list):
        raise BenchSchemaError(f"{source}: analytic-vs-des document lacks 'campaigns'")
    for campaign in campaigns:
        exp = campaign.get("experiment", "unknown")
        for suffix, key, unit, direction in (
            ("analytic_speedup", "speedup", "x", "higher"),
            ("max_rel_error", "max_rel_error", "frac", "lower"),
            ("mean_abs_rel_error", "mean_abs_rel_error", "frac", "lower"),
            ("analytic_s", "analytic_s", "s", "lower"),
        ):
            metric = _metric(campaign, key, unit=unit, direction=direction)
            if metric is not None:
                metrics[f"analytic.{exp}.{suffix}"] = metric
    best = _metric(doc, "best_speedup", unit="x", direction="higher")
    if best is not None:
        metrics["analytic.best_speedup"] = best
    if not metrics:
        raise BenchSchemaError(f"{source}: analytic-vs-des document has no metrics")
    return BenchRecord(
        bench_id="analytic-vs-des",
        context=_context(doc),
        metrics=metrics,
        raw=doc,
        source=source,
    )


def _from_normalized(doc: dict, source: str) -> BenchRecord:
    if not isinstance(doc.get("bench_id"), str) or not doc["bench_id"]:
        raise BenchSchemaError(f"{source}: normalized record needs a 'bench_id'")
    raw_metrics = doc.get("metrics")
    if not isinstance(raw_metrics, dict) or not raw_metrics:
        raise BenchSchemaError(f"{source}: normalized record needs non-empty 'metrics'")
    metrics: Dict[str, Metric] = {}
    for name, m in raw_metrics.items():
        if not isinstance(m, dict) or "value" not in m:
            raise BenchSchemaError(f"{source}: metric {name!r} needs a 'value'")
        try:
            metrics[name] = Metric(
                float(m["value"]),
                unit=str(m.get("unit", "")),
                direction=str(m.get("direction", "higher")),
            )
        except (TypeError, ValueError) as exc:
            raise BenchSchemaError(f"{source}: metric {name!r}: {exc}") from None
    context = doc.get("context", {})
    if not isinstance(context, dict):
        raise BenchSchemaError(f"{source}: 'context' must be an object")
    return BenchRecord(
        bench_id=doc["bench_id"],
        context=context,
        metrics=metrics,
        raw=doc.get("raw"),
        source=source,
    )


def normalize(doc: dict, source: str = "<doc>") -> BenchRecord:
    """Read *doc* through whichever adapter matches its shape."""
    if not isinstance(doc, dict):
        raise BenchSchemaError(f"{source}: bench document must be a JSON object")
    if doc.get("schema") == SCHEMA:
        return _from_normalized(doc, source)
    if "schema" in doc:
        raise BenchSchemaError(
            f"{source}: unknown schema {doc['schema']!r} (expected {SCHEMA!r})"
        )
    shape = doc.get("benchmark")
    if shape == "campaign+kernel":
        return _from_campaign_kernel(doc, source)
    if shape == "analytic-vs-des":
        return _from_analytic(doc, source)
    raise BenchSchemaError(
        f"{source}: unrecognized bench document "
        f"(no 'schema' and unknown 'benchmark' {shape!r})"
    )


def to_json(record: BenchRecord) -> dict:
    """The normalized on-disk form of *record* (inverse of normalize)."""
    return {
        "schema": SCHEMA,
        "bench_id": record.bench_id,
        "context": record.context,
        "metrics": {
            name: {"value": m.value, "unit": m.unit, "direction": m.direction}
            for name, m in sorted(record.metrics.items())
        },
        **({"raw": record.raw} if record.raw is not None else {}),
    }


def load_bench_file(path: Union[str, Path]) -> BenchRecord:
    """Load and normalize one ``BENCH_*.json`` file."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise BenchSchemaError(f"{path}: cannot read: {exc}") from None
    except json.JSONDecodeError as exc:
        raise BenchSchemaError(f"{path}: not JSON: {exc}") from None
    return normalize(doc, source=str(path))
