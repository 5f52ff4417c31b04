"""Campaign telemetry: one record per point, written as a manifest.

Every :class:`~repro.experiments.points.Point` of a campaign gets one
structured :class:`PointRecord`: the content hash of its configuration,
the solver backend, wall time, kernel events simulated (and events/s),
which OS process made the record, and where its value came from — one of
:data:`PROVENANCES`:

* ``computed``: evaluated for this point;
* ``stored``: served from the point-result store (``--resume``);
* ``shared``: taken from an earlier point of the same campaign with the
  same content hash.

:func:`point_record` builds every record.  Only a ``computed`` record
has wall time and events; the other two cost the campaign nothing.

A :class:`CampaignRecorder` collects the records (in whatever order
workers finish) and writes them atomically as a JSONL **manifest**: one
header line describing the campaign, then one line per record, sorted
by ``(exp_id, key)`` so serial and ``--jobs N`` runs of the same
campaign produce structurally identical manifests (only the per-record
wall/pid fields differ).  ``python -m repro.bench show`` sums it per
experiment.

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
    "PROVENANCES",
    "CampaignRecorder",
    "PointRecord",
    "evaluate_point",
    "point_record",
    "read_manifest",
]

MANIFEST_SCHEMA = "repro-campaign/1"
#: Where a point's value came from, as its record says.
PROVENANCES = ("computed", "stored", "shared")


@dataclass
class PointRecord:
    """Telemetry for one campaign point."""

    exp_id: str
    key: List  # the point key, JSON-ified (tuple -> list)
    kind: str  # "sim" | "hitratio"
    org: str
    backend: str
    config_hash: str
    provenance: str  # one of PROVENANCES
    wall_s: float
    events: int
    events_per_s: float
    worker_pid: int
    mean_response_ms: float = math.nan


def _backend_of(point: Point) -> str:
    if point.kind != "sim":
        return "fastsim"
    return dict(point.overrides).get("backend", "des")


def point_record(
    point: Point, key: str, value: PointValue, provenance: str, wall_s: float = 0.0
) -> PointRecord:
    """The record of *point*, whose *value* has content hash *key* and
    came from *provenance*; a ``computed`` one took *wall_s*."""
    events = int(dict(value.extras).get("events", 0.0)) if provenance == "computed" else 0
    return PointRecord(
        exp_id=point.exp_id,
        key=list(point.key),
        kind=point.kind,
        org=point.org,
        backend=_backend_of(point),
        config_hash=key,
        provenance=provenance,
        wall_s=wall_s,
        events=events,
        events_per_s=(events / wall_s) if (events and wall_s > 0) else 0.0,
        worker_pid=os.getpid(),
        mean_response_ms=value.mean_response_ms,
    )


def evaluate_point(
    point: Point, resume: bool = False
) -> Tuple[PointValue, PointRecord]:
    """Compute one point and its ``computed`` record (in whatever
    process).

    With ``resume`` the computed value is persisted to the point-result
    store, so an interrupted campaign picks up where it stopped.
    """
    key = result_store.point_key(point)
    t0 = time.perf_counter()
    value = run_point(point)
    if resume:
        result_store.store_value(key, value)
    return value, point_record(point, key, value, "computed", time.perf_counter() - t0)


def _jsonable(value):
    """NaN-free JSON scalar (the manifest is strict JSON)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


class CampaignRecorder:
    """Collects :class:`PointRecord` s and writes the manifest.

    The recorder is order-insensitive: records arrive in completion
    order (nondeterministic under ``--jobs N``) and are sorted by
    ``(exp_id, key)`` at :meth:`finalize`, which is what makes parallel
    manifests comparable to serial ones.
    """

    def __init__(self, manifest_path: Union[str, Path]) -> None:
        self.manifest_path = Path(manifest_path)
        self.records: List[PointRecord] = []

    def add(self, record: PointRecord) -> None:
        self.records.append(record)

    def finalize(self, **meta) -> None:
        """Write the manifest.

        Keyword arguments (experiment ids, scale, jobs, backend, ...)
        land in the manifest header verbatim.
        """
        header = {
            "record": "campaign",
            "schema": MANIFEST_SCHEMA,
            "points": len(self.records),
            **meta,
        }
        lines = [json.dumps(header, sort_keys=True)]
        for rec in sorted(self.records, key=lambda r: (r.exp_id, [str(k) for k in r.key])):
            doc = {"record": "point"}
            doc.update({k: _jsonable(v) for k, v in asdict(rec).items()})
            lines.append(json.dumps(doc, sort_keys=True))
        with result_store.atomic_open(self.manifest_path) as fh:
            fh.write("\n".join(lines) + "\n")


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
