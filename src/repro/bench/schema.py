"""The normalized bench-record schema.

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
code path.  Every bench script (``benchmarks/bench_campaign.py``,
``benchmarks/bench_analytic.py``, ``benchmarks/e2e/run.py``) writes
this record itself; any other document raises
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
    """A bench document that is not a valid ``repro-bench/1`` record."""


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


def normalize(doc: dict, source: str = "<doc>") -> BenchRecord:
    """Read a ``repro-bench/1`` document into a :class:`BenchRecord`."""
    if not isinstance(doc, dict):
        raise BenchSchemaError(f"{source}: bench document must be a JSON object")
    if doc.get("schema") != SCHEMA:
        raise BenchSchemaError(
            f"{source}: unknown schema {doc.get('schema')!r} (expected {SCHEMA!r})"
        )
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
