"""Span model for request-level tracing.

A :class:`Span` is one timed interval of work attributed to a logical
request (or to background machinery such as destage).  Spans form a
tree: the *root* span covers a request from release to completion, disk
and channel access spans hang off the root, and per-phase leaf spans
(seek, rotation, transfer, parity sync wait...) hang off the access that
produced them — the same decomposition Thomasian's RAID tutorials use to
explain where each organization's response time goes.

:class:`TraceData` is the exported artifact: run metadata plus the span
list, serialisable to JSONL (one span per line, round-trippable) and to
Chrome trace-event JSON viewable in Perfetto (``ui.perfetto.dev``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import IO, Iterable, Optional, Union

__all__ = [
    "Span",
    "TraceData",
    "SPAN_KINDS",
    "well_formedness_problems",
]

#: ``request`` — root span of one logical request; ``disk`` — one disk
#: access (queue + service); ``channel`` — one channel transfer (wait +
#: wire time); ``phase`` — leaf interval inside an access; ``mark`` —
#: zero-duration annotation (mirror routing choice, destage, ...).
SPAN_KINDS = ("request", "disk", "channel", "phase", "mark")

#: Nesting tolerance: phase endpoints are reconstructed arithmetically
#: (e.g. ``slot + xfer``) and may differ from the kernel clock by a ulp.
_EPS = 1e-6


@dataclass(slots=True)
class Span:
    """One timed interval in the trace."""

    sid: int
    kind: str
    name: str
    t0: float
    t1: Optional[float] = None
    rid: Optional[int] = None
    parent: Optional[int] = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Span length in ms (NaN while still open)."""
        return math.nan if self.t1 is None else self.t1 - self.t0

    def to_json(self) -> dict:
        out = {
            "type": "span",
            "sid": self.sid,
            "kind": self.kind,
            "name": self.name,
            "t0": self.t0,
            "t1": self.t1,
        }
        if self.rid is not None:
            out["rid"] = self.rid
        if self.parent is not None:
            out["parent"] = self.parent
        if self.attrs:
            out["attrs"] = self.attrs
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "Span":
        return cls(
            sid=obj["sid"],
            kind=obj["kind"],
            name=obj["name"],
            t0=obj["t0"],
            t1=obj.get("t1"),
            rid=obj.get("rid"),
            parent=obj.get("parent"),
            attrs=obj.get("attrs", {}),
        )


class TraceData:
    """A completed trace: run metadata plus the span set.

    Parameters
    ----------
    meta:
        Run metadata (name, organization, ``warmup_ms``...), JSON-able.
    spans:
        All recorded spans, in creation order.
    """

    def __init__(self, meta: dict, spans: list[Span]) -> None:
        self.meta = dict(meta)
        self.spans = list(spans)
        self._by_sid: Optional[dict[int, Span]] = None

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:
        return f"<TraceData {self.meta.get('name', '?')!r}: {len(self.spans)} spans>"

    # -- indexing ----------------------------------------------------------
    def by_sid(self) -> dict[int, Span]:
        if self._by_sid is None:
            self._by_sid = {s.sid: s for s in self.spans}
        return self._by_sid

    def roots(self) -> list[Span]:
        """Root spans, one per traced logical request, by request id."""
        return sorted(
            (s for s in self.spans if s.kind == "request"),
            key=lambda s: s.rid if s.rid is not None else -1,
        )

    def phases(self, rid: Optional[int] = None) -> Iterable[Span]:
        """Leaf phase spans, optionally restricted to one request."""
        for s in self.spans:
            if s.kind == "phase" and (rid is None or s.rid == rid):
                yield s

    # -- JSONL round trip ---------------------------------------------------
    def to_jsonl(self, dst: Union[str, IO[str]]) -> None:
        """Write ``{"type": "meta"}`` then one span object per line."""
        if isinstance(dst, str):
            with open(dst, "w") as fh:
                self.to_jsonl(fh)
            return
        dst.write(json.dumps({"type": "meta", **self.meta}, sort_keys=True) + "\n")
        for span in self.spans:
            dst.write(json.dumps(span.to_json(), sort_keys=True) + "\n")

    @classmethod
    def from_jsonl(cls, src: Union[str, IO[str]]) -> "TraceData":
        if isinstance(src, str):
            with open(src) as fh:
                return cls.from_jsonl(fh)
        meta: dict = {}
        spans: list[Span] = []
        for line in src:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            kind = obj.pop("type", "span")
            if kind == "meta":
                meta = obj
            else:
                spans.append(Span.from_json(obj))
        return cls(meta, spans)

    # -- Chrome trace-event export -----------------------------------------
    def to_chrome(self, dst: Union[str, IO[str]], request_lanes: int = 32) -> None:
        """Export as Chrome trace-event JSON (open in Perfetto).

        Spans become nestable async begin/end pairs so that overlapping
        work (parallel disk accesses of one request, queued accesses of
        one disk) renders without fake nesting.  Requests and channel
        transfers land on the ``requests`` process (one lane per
        ``rid % request_lanes``); disk accesses and their phases land on
        the ``disks`` process, one thread per physical disk.
        """
        if isinstance(dst, str):
            with open(dst, "w") as fh:
                self.to_chrome(fh, request_lanes)
            return
        events: list[dict] = [
            {"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
             "args": {"name": "requests"}},
            {"ph": "M", "name": "process_name", "pid": 2, "tid": 0,
             "args": {"name": "disks"}},
        ]
        disk_tids: dict[str, int] = {}
        for span in self.spans:
            if span.t1 is None:
                continue
            if span.kind in ("disk", "phase"):
                disk = span.attrs.get("disk", span.name)
                tid = disk_tids.setdefault(disk, len(disk_tids) + 1)
                pid = 2
            else:
                pid = 1
                tid = 0 if span.rid is None else span.rid % request_lanes
            common = {
                "cat": span.kind,
                "id": span.sid,
                "name": span.name,
                "pid": pid,
                "tid": tid,
            }
            events.append({"ph": "b", "ts": span.t0 * 1000.0,
                           "args": dict(span.attrs), **common})
            events.append({"ph": "e", "ts": span.t1 * 1000.0, **common})
        for disk, tid in sorted(disk_tids.items()):
            events.append({"ph": "M", "name": "thread_name", "pid": 2,
                           "tid": tid, "args": {"name": disk}})
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": self.meta}, dst)


def well_formedness_problems(data: TraceData) -> list[str]:
    """Structural invariants of a span tree; returns violations found.

    * every span is closed (``t1`` set) — background spans cut off at the
      end of the run must carry ``attrs["truncated"]``;
    * no negative durations;
    * children lie inside their parent (to float tolerance) and reference
      an existing span attributed to the same request;
    * request ids on roots are unique.
    """
    problems: list[str] = []
    by_sid = data.by_sid()
    seen_rids: set[int] = set()
    for span in data.spans:
        where = f"span {span.sid} ({span.kind}/{span.name})"
        if span.t1 is None:
            problems.append(f"{where}: never closed")
            continue
        if span.t1 < span.t0:
            problems.append(f"{where}: negative duration {span.t1 - span.t0:g}")
        if span.kind == "request":
            if span.rid is None:
                problems.append(f"{where}: root span without rid")
            elif span.rid in seen_rids:
                problems.append(f"{where}: duplicate rid {span.rid}")
            else:
                seen_rids.add(span.rid)
        if span.parent is not None:
            parent = by_sid.get(span.parent)
            if parent is None:
                problems.append(f"{where}: dangling parent {span.parent}")
                continue
            if parent.rid != span.rid:
                problems.append(
                    f"{where}: rid {span.rid} differs from parent's {parent.rid}"
                )
            if span.t0 < parent.t0 - _EPS or (
                parent.t1 is not None and span.t1 > parent.t1 + _EPS
            ):
                problems.append(
                    f"{where}: [{span.t0:g}, {span.t1:g}] escapes parent "
                    f"{parent.sid} [{parent.t0:g}, {parent.t1:g}]"
                )
    return problems
