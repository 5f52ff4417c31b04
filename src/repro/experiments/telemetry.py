"""Campaign telemetry: one record per point, kept in a manifest.

Every :class:`~repro.experiments.points.Point` of a campaign gets one
structured :class:`PointRecord`: the content hash of its configuration
(:func:`~repro.experiments.points.point_key`), the solver backend, its
:class:`~repro.experiments.points.PointValue`, wall time, kernel events
simulated (and events/s), which OS process made the record, and where
its value came from — one of :data:`PROVENANCES`:

* ``computed``: evaluated for this point;
* ``stored``: read from the manifest a resumed campaign started from;
* ``shared``: taken from an earlier point of the same campaign with the
  same content hash.

:func:`point_record` builds every record.  Only a ``computed`` record
has wall time and events; the other two cost the campaign nothing.

A :class:`CampaignRecorder` keeps the campaign's only record, its JSONL
**manifest**: one header line naming the schema and the
:func:`code_fingerprint`, then one line per record.  The recorder
writes the header when it is built, so a path that cannot be written
fails before any point runs, and appends each record as its value
lands, so an interrupted campaign keeps every value it reached.
:meth:`CampaignRecorder.finalize` rewrites the file with the records
sorted by ``(exp_id, key)``, so serial and ``--jobs N`` runs of the
same campaign produce manifests that differ only in wall times,
events/s and pids.  A recorder built with ``resume`` first reads the
values of the manifest already at its path, by config hash, and the
engine serves them as ``stored``; it refuses a manifest recorded by
other code or in another schema.  ``python -m repro.bench show`` sums a
manifest per experiment.

Records never influence values: the campaign engine builds one for
every point and drops it when no recorder is passed, and a value read
back from a manifest is the value written there (floats round-trip
through JSON exactly), so a campaign with telemetry, resumed or not,
produces byte-identical figures to one without.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import platform
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import IO, Dict, Iterator, List, Optional, Tuple, Union

import numpy

from repro.experiments.points import Point, PointValue, point_key, run_point

__all__ = [
    "MANIFEST_SCHEMA",
    "PROVENANCES",
    "CampaignRecorder",
    "PointRecord",
    "atomic_open",
    "code_fingerprint",
    "evaluate_point",
    "point_record",
    "read_manifest",
]

MANIFEST_SCHEMA = "repro-campaign/2"
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
    value: PointValue


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
        value=value,
    )


def evaluate_point(point: Point) -> Tuple[PointValue, PointRecord]:
    """Compute one point and its ``computed`` record (in whatever
    process)."""
    key = point_key(point)
    t0 = time.perf_counter()
    value = run_point(point)
    return value, point_record(point, key, value, "computed", time.perf_counter() - t0)


def code_fingerprint() -> str:
    """Digest of the code a point's value depends on: every ``repro``
    source file, and the numpy and Python versions."""
    root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256(
        f"python {platform.python_version()} numpy {numpy.__version__}\n".encode()
    )
    for path in sorted(root.rglob("*.py")):
        source = path.read_bytes()
        digest.update(f"{path.relative_to(root).as_posix()} {len(source)}\n".encode())
        digest.update(source)
    return digest.hexdigest()[:16]


@contextlib.contextmanager
def atomic_open(path: Path) -> Iterator[IO]:
    """Write *path* through a temp file that replaces it on success.

    Readers never see a partial file.  The file gets the mode a plain
    ``open`` gives a new one (``0o666`` less the umask), not
    ``mkstemp``'s ``0o600``.
    """
    fd, tmp = tempfile.mkstemp(suffix=path.suffix + ".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "w") as fh:
            umask = os.umask(0)  # reading the umask means setting it
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _jsonable(value):
    """*value* as strict JSON: NaN as null, tuples as lists."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def _line(doc: dict) -> str:
    # allow_nan=False: an infinity has no strict-JSON spelling, and
    # writing it as null would turn it into NaN on resume.
    return json.dumps(_jsonable(doc), sort_keys=True, allow_nan=False)


def _point_line(record: PointRecord) -> str:
    return _line({"record": "point", **asdict(record)})


def _value_of(doc: dict) -> PointValue:
    """The value a point record carries: :func:`_jsonable` undone."""

    def unjson(x):
        if x is None:
            return math.nan
        return tuple(map(unjson, x)) if isinstance(x, list) else x

    return PointValue(**{k: unjson(x) for k, x in doc["value"].items()})


class CampaignRecorder:
    """Keeps a campaign's manifest at *manifest_path*.

    Without *resume* the recorder starts the file afresh.  With it, and
    a manifest already at the path, it reads that manifest's values
    into :attr:`stored` and appends to it; ``ValueError`` if the
    manifest is malformed or was recorded by other code or in another
    schema.  Either way the file is written here, so a path that cannot
    be written raises ``OSError`` before any point runs.

    Records arrive in completion order (nondeterministic under
    ``--jobs N``) and are sorted by ``(exp_id, key)`` at
    :meth:`finalize`, which is what makes parallel manifests comparable
    to serial ones.
    """

    def __init__(self, manifest_path: Union[str, Path], resume: bool = False) -> None:
        self.manifest_path = Path(manifest_path)
        self.fingerprint = code_fingerprint()
        self.records: List[PointRecord] = []
        #: Config hash -> value of each point the manifest held when this
        #: recorder resumed it; the campaign engine serves these as
        #: ``stored`` instead of evaluating them.
        self.stored: Dict[str, PointValue] = {}
        if resume and self.manifest_path.exists():
            self.stored = self._resume()
        else:
            self.manifest_path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.manifest_path, "w") as fh:
                fh.write(_line(self._header()) + "\n")

    def _header(self, **meta) -> dict:
        return {
            "record": "campaign",
            "schema": MANIFEST_SCHEMA,
            "fingerprint": self.fingerprint,
            **meta,
        }

    def _resume(self) -> Dict[str, PointValue]:
        path = self.manifest_path
        header, points = read_manifest(path)
        schema, fingerprint = header.get("schema"), header.get("fingerprint")
        if (schema, fingerprint) != (MANIFEST_SCHEMA, self.fingerprint):
            raise ValueError(
                f"{path} was recorded by other code (schema {schema}, fingerprint "
                f"{fingerprint}; this code: schema {MANIFEST_SCHEMA}, fingerprint "
                f"{self.fingerprint}), so its values cannot be resumed"
            )
        try:
            stored = {p["config_hash"]: _value_of(p) for p in points}
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValueError(f"{path}: a point record has no readable value ({exc!r})") from None
        # Drop a last record cut short mid-write, so the first record
        # appended starts a line of its own.
        with open(path, "rb+") as fh:
            fh.truncate(fh.read().rfind(b"\n") + 1)
        return stored

    def add(self, record: PointRecord) -> None:
        """Keep *record* and append it to the manifest."""
        self.records.append(record)
        with open(self.manifest_path, "a") as fh:
            fh.write(_point_line(record) + "\n")

    def finalize(self, **meta) -> None:
        """Rewrite the manifest as this campaign's records, sorted.

        Keyword arguments (experiment ids, scale, jobs, backend, ...)
        land in the manifest header verbatim.
        """
        lines = [_line(self._header(points=len(self.records), **meta))]
        for rec in sorted(self.records, key=lambda r: (r.exp_id, [str(k) for k in r.key])):
            lines.append(_point_line(rec))
        with atomic_open(self.manifest_path) as fh:
            fh.write("\n".join(lines) + "\n")


def read_manifest(path: Union[str, Path]) -> Tuple[dict, List[dict]]:
    """Parse a manifest into ``(header, point_records)``.

    A last line without its newline is a record cut short by an
    interrupted campaign, and is ignored.  Raises ``ValueError`` on any
    other structural problem (missing header, a non-JSON line, a record
    without the required fields).
    """
    header: Optional[dict] = None
    points: List[dict] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.endswith("\n"):
                break
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from None
            if not isinstance(doc, dict):
                raise ValueError(f"{path}:{lineno}: not a JSON object")
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
