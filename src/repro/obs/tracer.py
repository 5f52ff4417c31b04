"""Span tracing over the simulator's probe taps.

:class:`Tracer` subscribes to the system's
:class:`~repro.obs.probes.ProbeBus` for the taps of
:data:`~repro.obs.probes.TAPS` it needs, and turns the notifications
into a per-request tree of timed spans.

Attribution works through the process tree.  Every
:class:`~repro.des.process.Process` records the process that spawned it
(``Process.parent``); the runner registers each request's root process
with the tracer, and any probe notification is attributed by walking
``env.active_process``'s parent chain up to a registered root.  Work
done by background processes (periodic destage, the RAID4 parity
spooler) resolves to no request and is recorded on a background track —
except when a request synchronously waits for it (e.g. a read miss
evicting a dirty block), in which case the wait happens *inside* the
request's process and is charged to the request, which is exactly where
the time went.

The tracer never schedules events and never mutates simulator state, so
a traced run is observationally identical to an untraced one (the
determinism tests pin this with result fingerprints).
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.obs.probes import ProbeBus
from repro.obs.span import Span, TraceData

__all__ = ["Tracer"]

_MISSING = object()


class Tracer:
    """Records a span tree per logical request.

    Work not attributable to any request (destage writes, parity
    spooling) is recorded on a background track.
    """

    def __init__(self) -> None:
        self.meta: dict = {}
        self.spans: list[Span] = []
        self.cache_ops: dict[str, int] = {}
        self.env = None
        self._proc_rid: dict[Any, Optional[int]] = {}
        self._roots: dict[int, Span] = {}
        self._open_disk: dict[int, Span] = {}
        self._open_chan: dict[Any, tuple[float, int, Optional[int]]] = {}
        self._ctrl_label: dict[int, str] = {}
        self._bus: Optional[ProbeBus] = None

    # -- lifecycle -----------------------------------------------------------
    def attach(self, env, controllers: Sequence) -> "Tracer":
        """Subscribe to the probe bus of *controllers*."""
        if self.env is not None:
            raise RuntimeError("tracer is already attached")
        self.env = env
        for ai, ctrl in enumerate(controllers):
            self._ctrl_label[id(ctrl)] = f"a{ai}"
        self._bus = ProbeBus.of(controllers)
        self._bus.subscribe(self)
        return self

    def detach(self) -> None:
        """Unsubscribe from the probe bus."""
        if self._bus is not None:
            self._bus.unsubscribe(self)
            self._bus = None
        self.env = None

    def finalize(self, meta: Optional[dict] = None) -> TraceData:
        """Close background leftovers, detach, and build the export."""
        now = self.env.now if self.env is not None else 0.0
        for span in self._open_disk.values():
            span.t1 = now
            span.attrs["truncated"] = True
        self._open_disk.clear()
        self._open_chan.clear()
        # RMW write phases are recorded with analytically-computed end
        # times; if the run ends while a background access is mid-service
        # those extend past the clock.  That work never simulated — clip
        # it (and drop phases that had not even started).
        if any(s.t1 is not None and s.t1 > now for s in self.spans):
            kept = []
            for span in self.spans:
                if span.t0 >= now and span.kind == "phase":
                    continue
                if span.t1 is not None and span.t1 > now:
                    span.t1 = now
                    span.attrs["truncated"] = True
                kept.append(span)
            self.spans = kept
        self.detach()
        if meta:
            self.meta.update(meta)
        if self.cache_ops:
            self.meta["cache_ops"] = dict(sorted(self.cache_ops.items()))
        return TraceData(self.meta, self.spans)

    # -- span construction -----------------------------------------------------
    def _new(
        self,
        kind: str,
        name: str,
        t0: float,
        t1: Optional[float] = None,
        rid: Optional[int] = None,
        parent: Optional[int] = None,
        attrs: Optional[dict] = None,
    ) -> Span:
        span = Span(
            sid=len(self.spans),
            kind=kind,
            name=name,
            t0=t0,
            t1=t1,
            rid=rid,
            parent=parent,
            attrs=attrs if attrs is not None else {},
        )
        self.spans.append(span)
        return span

    def _rid(self) -> Optional[int]:
        """Request id owning the currently-active process (None = background)."""
        proc = self.env.active_process
        chain = []
        rid: Optional[int] = None
        while proc is not None:
            found = self._proc_rid.get(proc, _MISSING)
            if found is not _MISSING:
                rid = found
                break
            chain.append(proc)
            proc = getattr(proc, "parent", None)
        for p in chain:
            self._proc_rid[p] = rid
        return rid

    def _root_sid(self, rid: Optional[int]) -> Optional[int]:
        if rid is None:
            return None
        root = self._roots.get(rid)
        return None if root is None else root.sid

    # -- probe taps ---------------------------------------------------------------
    def on_request_released(
        self, rid: int, process, lstart: int, nblocks: int, is_write: bool
    ) -> None:
        """Open the root span for request *rid* (root process *process*)."""
        span = self._new(
            "request",
            "write" if is_write else "read",
            t0=self.env.now,
            rid=rid,
            attrs={"lstart": lstart, "nblocks": nblocks, "is_write": bool(is_write)},
        )
        self._roots[rid] = span
        self._proc_rid[process] = rid

    def on_request_completed(self, rid: int) -> None:
        root = self._roots.get(rid)
        if root is not None:
            root.t1 = self.env.now

    def on_disk_submit(self, disk, request) -> None:
        rid = self._rid()
        span = self._new(
            "disk",
            disk.name,
            t0=self.env.now,
            rid=rid,
            parent=self._root_sid(rid),
            attrs={
                "disk": disk.name,
                "kind": request.kind.value,
                "start": request.start_block,
                "nblocks": request.nblocks,
                "priority": request.priority,
            },
        )
        self._open_disk[id(request)] = span

    def on_disk_phase(self, disk, request, phase: str, t0: float, t1: float) -> None:
        access = self._open_disk.get(id(request))
        if access is None:
            return
        self._new(
            "phase",
            phase,
            t0=t0,
            t1=t1,
            rid=access.rid,
            parent=access.sid,
            attrs={"disk": disk.name},
        )

    def on_disk_complete(self, disk, request) -> None:
        span = self._open_disk.pop(id(request), None)
        if span is None:
            return
        span.t1 = self.env.now
        started = request.started
        if started is not None and started.triggered:
            service_start = started.value
            if service_start > span.t0:
                self._new(
                    "phase",
                    "disk_queue",
                    t0=span.t0,
                    t1=service_start,
                    rid=span.rid,
                    parent=span.sid,
                    attrs={"disk": disk.name},
                )
        if request.spin_revolutions:
            span.attrs["spin_revolutions"] = request.spin_revolutions
        if request.hold_retries:
            span.attrs["hold_retries"] = request.hold_retries

    def on_channel_request(self, channel, nbytes: int) -> None:
        self._open_chan[self.env.active_process] = (self.env.now, nbytes, self._rid())

    def on_channel_transfer(self, channel, nbytes: int, duration: float) -> None:
        now = self.env.now
        entry = self._open_chan.pop(self.env.active_process, None)
        if entry is None:
            t_enter, rid = now - duration, self._rid()
        else:
            t_enter, _, rid = entry
        span = self._new(
            "channel",
            channel.name,
            t0=t_enter,
            t1=now,
            rid=rid,
            parent=self._root_sid(rid),
            attrs={"channel": channel.name, "nbytes": nbytes},
        )
        wire_start = now - duration
        if wire_start > t_enter:
            self._new(
                "phase", "channel_wait", t0=t_enter, t1=wire_start,
                rid=rid, parent=span.sid, attrs={"channel": channel.name},
            )
        self._new(
            "phase", "channel_transfer", t0=wire_start, t1=now,
            rid=rid, parent=span.sid, attrs={"channel": channel.name},
        )

    def on_handle(self, controller, lstart: int, nblocks: int, is_write: bool) -> None:
        rid = self._rid()
        root = None if rid is None else self._roots.get(rid)
        if root is not None:
            root.attrs.setdefault("arrays", []).append(
                self._ctrl_label.get(id(controller), "?")
            )

    def on_destage(self, controller, run) -> None:
        rid = self._rid()
        now = self.env.now
        self._new(
            "mark",
            "destage",
            t0=now,
            t1=now,
            rid=rid,
            parent=self._root_sid(rid),
            attrs={
                "array": self._ctrl_label.get(id(controller), "?"),
                "disk": run.disk,
                "start": run.start,
                "nblocks": run.nblocks,
            },
        )

    def on_write_group(self, controller, group) -> None:
        rid = self._rid()
        root = None if rid is None else self._roots.get(rid)
        if root is not None:
            modes = root.attrs.setdefault("write_modes", [])
            modes.append(group.mode.value if hasattr(group.mode, "value") else str(group.mode))

    def on_cache_op(self, cache, op: str, arg: int) -> None:
        self.cache_ops[op] = self.cache_ops.get(op, 0) + 1

    def on_degraded(self, controller, kind: str) -> None:
        rid = self._rid()
        now = self.env.now
        self._new(
            "mark", "degraded", t0=now, t1=now, rid=rid,
            parent=self._root_sid(rid),
            attrs={"array": self._ctrl_label.get(id(controller), "?"), "kind": kind},
        )

    def on_data_loss(self, controller, kind: str, disk: int, pblock: int) -> None:
        rid = self._rid()
        now = self.env.now
        self._new(
            "mark", "data_loss", t0=now, t1=now, rid=rid,
            parent=self._root_sid(rid),
            attrs={
                "array": self._ctrl_label.get(id(controller), "?"),
                "kind": kind, "disk": disk, "pblock": pblock,
            },
        )

    def on_mirror_route(
        self, controller, run, chosen, alternate, seek_chosen, seek_alt
    ) -> None:
        rid = self._rid()
        now = self.env.now
        self._new(
            "mark",
            "mirror_route",
            t0=now,
            t1=now,
            rid=rid,
            parent=self._root_sid(rid),
            attrs={
                "chosen": chosen.name,
                "alternate": alternate.name,
                "seek_chosen": seek_chosen,
                "seek_alternate": seek_alt,
            },
        )
