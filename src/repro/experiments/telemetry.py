"""Campaign telemetry: per-point records, manifest and summary.

PRs 5–6 made campaigns parallel and fast; this module makes them
*observable*.  Every :class:`~repro.experiments.points.Point` the
engine executes emits a structured :class:`PointRecord`: the content
hash of its configuration, the solver backend, wall time, kernel events
simulated (and events/s), which OS process evaluated it, and whether
the value was computed or served from the point-result store.

A :class:`CampaignRecorder` collects the records (in whatever order
workers finish) and writes two artifacts atomically:

* a JSONL **manifest** — one header line describing the campaign, then
  one line per record, sorted by ``(exp_id, key)`` so serial and
  ``--jobs N`` runs of the same campaign produce structurally identical
  manifests (only the per-record wall/pid fields differ);
* a **summary** JSON next to it — point-latency histograms (per
  backend, via the mergeable log-bucket
  :class:`~repro.obs.metrics.Histogram`), provenance totals and
  aggregate throughput.

Records never influence values: the campaign engine builds one for
every point and drops it when no recorder is passed, so a campaign with
telemetry produces byte-identical figures to one without.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.experiments import result_store
from repro.experiments.points import Point, PointValue, run_point

__all__ = [
    "MANIFEST_SCHEMA",
    "SUMMARY_SCHEMA",
    "CampaignRecorder",
    "PointRecord",
    "evaluate_point",
    "read_manifest",
    "stored_record",
]

MANIFEST_SCHEMA = "repro-campaign/1"
SUMMARY_SCHEMA = "repro-campaign-summary/1"


@dataclass
class PointRecord:
    """Telemetry for one executed campaign point."""

    exp_id: str
    key: List  # the point key, JSON-ified (tuple -> list)
    kind: str  # "sim" | "hitratio"
    org: str
    backend: str
    config_hash: str
    provenance: str  # "computed" | "stored"
    wall_s: float
    events: int
    events_per_s: float
    worker_pid: int
    mean_response_ms: float = math.nan

    def identity(self) -> tuple:
        """The fields that must match between serial and parallel runs
        of the same campaign (everything but timing and placement)."""
        return (
            self.exp_id,
            tuple(self.key),
            self.kind,
            self.org,
            self.backend,
            self.config_hash,
            self.events,
        )


def _backend_of(point: Point) -> str:
    if point.kind != "sim":
        return "fastsim"
    return dict(point.overrides).get("backend", "des")


def evaluate_point(
    point: Point, resume: bool = False
) -> Tuple[PointValue, PointRecord]:
    """Compute one point with telemetry (in whatever process).

    With ``resume`` the computed value is persisted to the point-result
    store, so an interrupted campaign picks up where it stopped.  The
    campaign engine serves points already in the store (see
    :func:`stored_record`) before it calls this.
    """
    key = result_store.point_key(point)
    t0 = time.perf_counter()
    value = run_point(point)
    if resume:
        result_store.store_value(key, value)
    wall = time.perf_counter() - t0
    events = int(dict(value.extras).get("events", 0.0))
    record = PointRecord(
        exp_id=point.exp_id,
        key=list(point.key),
        kind=point.kind,
        org=point.org,
        backend=_backend_of(point),
        config_hash=key,
        provenance="computed",
        wall_s=wall,
        events=events,
        events_per_s=(events / wall) if (events and wall > 0) else 0.0,
        worker_pid=os.getpid(),
        mean_response_ms=value.mean_response_ms,
    )
    return value, record


def stored_record(
    point: Point, key: str, value: PointValue, wall_s: float = 0.0
) -> PointRecord:
    """Record for a point served from the result store without a worker
    round-trip (the engine's parent-side pre-check)."""
    return PointRecord(
        exp_id=point.exp_id,
        key=list(point.key),
        kind=point.kind,
        org=point.org,
        backend=_backend_of(point),
        config_hash=key,
        provenance="stored",
        wall_s=wall_s,
        events=0,
        events_per_s=0.0,
        worker_pid=os.getpid(),
        mean_response_ms=value.mean_response_ms,
    )


def _jsonable(value):
    """NaN-free JSON scalar (the manifest is strict JSON)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


class CampaignRecorder:
    """Collects :class:`PointRecord` s and writes manifest + summary.

    The recorder is order-insensitive: records arrive in completion
    order (nondeterministic under ``--jobs N``) and are sorted by
    ``(exp_id, key)`` at :meth:`finalize`, which is what makes parallel
    manifests comparable to serial ones.
    """

    def __init__(self, manifest_path: Union[str, Path]) -> None:
        self.manifest_path = Path(manifest_path)
        self.records: List[PointRecord] = []
        self._t0 = time.perf_counter()

    @property
    def summary_path(self) -> Path:
        name = self.manifest_path.name
        if name.endswith(".jsonl"):
            name = name[: -len(".jsonl")]
        return self.manifest_path.with_name(name + ".summary.json")

    def add(self, record: PointRecord) -> None:
        self.records.append(record)

    # -- output ---------------------------------------------------------------
    def _sorted_records(self) -> List[PointRecord]:
        return sorted(
            self.records, key=lambda r: (r.exp_id, [str(k) for k in r.key])
        )

    def _summary(self, meta: dict) -> dict:
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        for rec in self.records:
            registry.counter("points", provenance=rec.provenance).inc()
            registry.histogram(
                "point_wall_s", lo=1e-5, hi=1e4, backend=rec.backend
            ).observe(rec.wall_s)

        latency = {}
        for name, labels, metric in registry:
            if name != "point_wall_s":
                continue
            backend = dict(labels).get("backend", "")
            latency[backend] = {
                "count": metric.count,
                "mean_s": _jsonable(round(metric.mean, 6)),
                "p50_s": _jsonable(round(metric.percentile(50), 6)),
                "p95_s": _jsonable(round(metric.percentile(95), 6)),
                "max_s": _jsonable(round(metric.max, 6))
                if metric.count
                else None,
                "buckets": [
                    [round(metric.lower_edge(i), 6), c]
                    for i, c in enumerate(metric.counts)
                    if c
                ],
            }

        events = sum(r.events for r in self.records)
        computed_wall = sum(
            r.wall_s for r in self.records if r.provenance == "computed"
        )
        return {
            "schema": SUMMARY_SCHEMA,
            "points": len(self.records),
            "computed": sum(1 for r in self.records if r.provenance == "computed"),
            "stored": sum(1 for r in self.records if r.provenance == "stored"),
            "wall_s": round(time.perf_counter() - self._t0, 4),
            "events": events,
            "events_per_s": round(events / computed_wall) if computed_wall else 0,
            "point_latency": latency,
            **meta,
        }

    def finalize(self, **meta) -> dict:
        """Write the manifest and summary; returns the summary dict.

        Keyword arguments (experiment ids, scale, jobs, backend, ...)
        land in the manifest header and the summary verbatim.
        """
        header = {
            "record": "campaign",
            "schema": MANIFEST_SCHEMA,
            "points": len(self.records),
            **meta,
        }
        lines = [json.dumps(header, sort_keys=True)]
        for rec in self._sorted_records():
            doc = {"record": "point"}
            doc.update({k: _jsonable(v) for k, v in asdict(rec).items()})
            lines.append(json.dumps(doc, sort_keys=True))
        with result_store.atomic_open(self.manifest_path) as fh:
            fh.write("\n".join(lines) + "\n")

        summary = self._summary(meta)
        with result_store.atomic_open(self.summary_path) as fh:
            fh.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        return summary


def read_manifest(path: Union[str, Path]) -> Tuple[dict, List[dict]]:
    """Parse a manifest into ``(header, point_records)``.

    Raises ``ValueError`` on structural problems (missing header, a
    non-JSON line, a record without the required fields).
    """
    header: Optional[dict] = None
    points: List[dict] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from None
            kind = doc.get("record")
            if kind == "campaign":
                if header is not None:
                    raise ValueError(f"{path}:{lineno}: duplicate campaign header")
                header = doc
            elif kind == "point":
                missing = [
                    k
                    for k in ("exp_id", "key", "provenance", "wall_s", "backend")
                    if k not in doc
                ]
                if missing:
                    raise ValueError(
                        f"{path}:{lineno}: point record missing {missing}"
                    )
                points.append(doc)
            else:
                raise ValueError(f"{path}:{lineno}: unknown record {kind!r}")
    if header is None:
        raise ValueError(f"{path}: no campaign header record")
    return header, points
