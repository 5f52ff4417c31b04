"""Content-keyed point-result store: memoize campaign *outputs*.

Every :class:`~repro.experiments.points.Point` has a stable content
hash over everything that determines its value — the trace recipe, the
evaluator kind, the organization and every keyword override (including
the solver backend) plus a format version — and the store maps that
hash to the evaluated :class:`~repro.experiments.points.PointValue` as
a small JSON file.

Because point evaluation is deterministic (seeded RNGs, traces built
from their recipe), a point's value is a function of its hash: serving
a stored value instead of recomputing it cannot change campaign output.
That gives three behaviours for free:

* one evaluation per distinct cell: the campaign engine evaluates each
  hash once per call, and every point with that hash shares the value;
* ``--resume``: a campaign interrupted half-way re-runs only the
  missing points (workers persist each value as soon as it is
  computed);
* skip-unchanged re-runs: repeating a campaign with a warm store
  recomputes nothing, and any config change (scale, backend, override)
  changes the hash so stale values can never alias.

The store is consulted only when a caller opts in (the engine's
``resume`` flag); provenance — computed, served from the store, or
shared with an earlier point — is recorded per point in the campaign
manifest.

Environment variables
---------------------
``REPRO_RESULT_STORE``
    Store directory.  Defaults to ``~/.cache/repro/results``.  Set to
    ``off`` (or ``0``/``none``) to disable the store even when a
    campaign asks to resume.

:func:`atomic_open` is also how the campaign manifest is written.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import tempfile
from pathlib import Path
from typing import IO, Iterator, Optional

from repro.experiments.points import Point, PointValue

__all__ = [
    "atomic_open",
    "load_value",
    "point_key",
    "store_dir",
    "store_value",
]

#: Bump when the PointValue layout or the evaluators' semantics change —
#: stored values from older formats must never be served.
_FORMAT_VERSION = 1


@contextlib.contextmanager
def atomic_open(path: Path, mode: str = "w") -> Iterator[IO]:
    """Write *path* through a temp file that replaces it on success.

    Readers never see a partial file, and concurrent writers race
    benignly: the last ``os.replace`` wins.  Raises ``OSError``; callers
    that must never fail the run catch it.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=path.suffix + ".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def store_dir() -> Optional[Path]:
    """The store directory ``REPRO_RESULT_STORE`` names, or ``None``.

    Unset means ``~/.cache/repro/results``; ``off``, ``0``, ``none`` or
    empty means disabled.
    """
    raw = os.environ.get("REPRO_RESULT_STORE")
    if raw is None:
        return Path.home() / ".cache" / "repro" / "results"
    if raw.strip().lower() in ("off", "0", "none", ""):
        return None
    return Path(raw).expanduser()


def point_key(point: Point) -> str:
    """Stable content hash of everything that determines a point's value.

    The figure-placement identity (``exp_id``, ``key``) is deliberately
    excluded: two figures sweeping the same (trace, organization,
    overrides) cell share one value, evaluated once per campaign and
    stored once.
    """
    payload = {
        "__format__": _FORMAT_VERSION,
        "spec": {
            "which": point.spec.which,
            "scale": point.spec.scale,
            "speed": point.spec.speed,
            "n": point.spec.n,
        },
        "kind": point.kind,
        "org": point.org,
        "overrides": [[k, repr(v)] for k, v in point.overrides],
    }
    if point.spec.hda:
        # Added only when present so every legacy point's hash — and
        # therefore its already-stored value — survives unchanged.
        payload["spec"]["hda"] = [[k, repr(v)] for k, v in point.spec.hda]
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()[:32]


def _path_for(key: str) -> Optional[Path]:
    base = store_dir()
    return None if base is None else base / f"{key}.json"


def _encode(value: float) -> Optional[float]:
    return None if isinstance(value, float) and math.isnan(value) else value


def _decode(value) -> float:
    return math.nan if value is None else float(value)


def store_value(key: str, value: PointValue) -> None:
    """Persist *value* under *key* (atomic; never fails the run)."""
    path = _path_for(key)
    if path is None:
        return
    doc = {
        "format": _FORMAT_VERSION,
        "value": {
            "mean_response_ms": _encode(value.mean_response_ms),
            "read_hit_ratio": _encode(value.read_hit_ratio),
            "write_hit_ratio": _encode(value.write_hit_ratio),
            "physical_disks": value.physical_disks,
            "extras": [[k, _encode(v)] for k, v in value.extras],
        },
    }
    try:
        with atomic_open(path) as fh:
            json.dump(doc, fh)
    except OSError:
        # A read-only or full store directory must never fail the run.
        pass


def load_value(key: str) -> Optional[PointValue]:
    """The stored value for *key*, or ``None`` (missing/corrupt/stale)."""
    path = _path_for(key)
    if path is None or not path.exists():
        return None
    try:
        with open(path) as fh:
            doc = json.load(fh)
        if doc.get("format") != _FORMAT_VERSION:
            return None
        raw = doc["value"]
        return PointValue(
            mean_response_ms=_decode(raw["mean_response_ms"]),
            read_hit_ratio=_decode(raw["read_hit_ratio"]),
            write_hit_ratio=_decode(raw["write_hit_ratio"]),
            physical_disks=int(raw["physical_disks"]),
            extras=tuple((str(k), _decode(v)) for k, v in raw.get("extras", [])),
        )
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError):
        # Truncated/corrupt/foreign file: recompute rather than fail.
        return None
