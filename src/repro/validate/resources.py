"""Resource sanity: utilizations, queues and buffer pools obey physics.

No resource can be busy for longer than the simulated span, no queue
can go negative, and the channel's own counters must agree with an
independent shadow accumulation of the transfers it reported.  These
are cheap global checks that catch whole classes of accounting bugs
(double-counted busy time, lost queue decrements, leaked track
buffers) regardless of which organization is running.
"""

from __future__ import annotations

import math

from repro.validate.checker import CheckContext, InvariantChecker

__all__ = ["ResourceSanityChecker"]

#: Slack for float accumulation when comparing against the simulated span.
_EPS = 1e-9


class _ChannelShadow:
    __slots__ = ("bytes", "busy", "count")

    def __init__(self) -> None:
        self.bytes = 0
        self.busy = 0.0
        self.count = 0


class ResourceSanityChecker(InvariantChecker):
    """Utilization in [0, 1], queues non-negative, pools bounded."""

    name = "resource-sanity"

    def attach(self, ctx: CheckContext) -> None:
        self._shadows: dict[int, _ChannelShadow] = {}
        self._channel_to_array: dict[int, int] = {}
        for ai, ctrl in enumerate(ctx.controllers):
            self._shadows[ai] = _ChannelShadow()
            self._channel_to_array[id(ctrl.channel)] = ai

    def on_channel_transfer(self, channel, nbytes, duration) -> None:
        ai = self._channel_to_array.get(id(channel))
        if ai is None:
            return
        if nbytes <= 0 or duration <= 0 or not math.isfinite(duration):
            self.fail(
                f"array {ai}: channel moved {nbytes} byte(s) in "
                f"{duration:g} ms (t={self.ctx.env.now:g})"
            )
        shadow = self._shadows[ai]
        shadow.bytes += nbytes
        shadow.busy += duration
        shadow.count += 1

    def on_disk_submit(self, disk, request) -> None:
        info = self.ctx.disk_info.get(disk)
        if info is None:
            return
        ai, di, _ = info
        qlen = disk.queue_length.value
        if qlen < 0 or disk.queue_length.min < 0:
            self.fail(
                f"array {ai} disk {di}: queue length went negative "
                f"(now {qlen:g}, min {disk.queue_length.min:g})"
            )

    def finalize(self, ctx: CheckContext, result) -> None:
        now = ctx.env.now
        span = now * (1.0 + _EPS) + _EPS
        for ai, ctrl in enumerate(ctx.controllers):
            self._check_disks(ai, ctrl, now, span)
            self._check_channel(ai, ctrl, now, span)
            self._check_buffers(ai, ctrl)
        if result is not None:
            self._check_result(result)

    def _check_disks(self, ai: int, ctrl, now: float, span: float) -> None:
        for di, disk in enumerate(ctrl.disks):
            where = f"array {ai} disk {di}"
            if disk.busy_time < 0 or disk.busy_time > span:
                self.fail(
                    f"{where}: busy for {disk.busy_time:g} ms of a "
                    f"{now:g} ms run"
                )
            util = disk.utilization(now)
            if not 0.0 <= util <= 1.0 + _EPS:
                self.fail(f"{where}: utilization {util:g} outside [0, 1]")
            if disk.seek_time_total < 0 or disk.seek_time_total > disk.busy_time + _EPS:
                self.fail(
                    f"{where}: seeks total {disk.seek_time_total:g} ms "
                    f"of {disk.busy_time:g} ms busy"
                )
            if disk.queue_length.min < 0:
                self.fail(
                    f"{where}: queue length reached {disk.queue_length.min:g}"
                )
            if disk.queue_length.value != disk.pending:
                self.fail(
                    f"{where}: queue statistic reads "
                    f"{disk.queue_length.value:g} but {disk.pending} "
                    f"request(s) are pending"
                )

    def _check_channel(self, ai: int, ctrl, now: float, span: float) -> None:
        channel = ctrl.channel
        shadow = self._shadows.get(ai)
        where = f"array {ai} channel"
        if channel.busy_time < 0 or channel.busy_time > span:
            self.fail(
                f"{where}: busy for {channel.busy_time:g} ms of a "
                f"{now:g} ms run"
            )
        util = channel.utilization(now)
        if not 0.0 <= util <= 1.0 + _EPS:
            self.fail(f"{where}: utilization {util:g} outside [0, 1]")
        if channel.queue_length.min < 0:
            self.fail(f"{where}: queue length reached {channel.queue_length.min:g}")
        if shadow is not None:
            if channel.transfers != shadow.count:
                self.fail(
                    f"{where}: counts {channel.transfers} transfer(s), "
                    f"{shadow.count} observed"
                )
            if channel.bytes_transferred != shadow.bytes:
                self.fail(
                    f"{where}: counts {channel.bytes_transferred} byte(s), "
                    f"{shadow.bytes} observed"
                )
            if not math.isclose(
                channel.busy_time, shadow.busy, rel_tol=1e-9, abs_tol=1e-6
            ):
                self.fail(
                    f"{where}: busy time {channel.busy_time:g} ms diverges "
                    f"from the {shadow.busy:g} ms of observed transfers"
                )

    def _check_buffers(self, ai: int, ctrl) -> None:
        pool = getattr(ctrl, "buffers", None)
        if pool is None:
            return
        where = f"array {ai} track-buffer pool"
        # Every acquisition is released in a ``finally`` before its
        # request completes, so a quiesced array holds no buffers: a
        # non-empty pool at end of run is a leak.
        if pool.in_use != 0:
            self.fail(
                f"{where}: {pool.in_use} of {pool.capacity} buffer(s) "
                f"still held at end of run"
            )
        if not 0 <= pool.peak_in_use <= pool.capacity:
            self.fail(
                f"{where}: peak use {pool.peak_in_use} of "
                f"{pool.capacity} buffer(s)"
            )

    def _check_result(self, result) -> None:
        for ai, metrics in enumerate(result.arrays):
            for di, util in enumerate(metrics.disk_utilization):
                if not 0.0 <= util <= 1.0 + _EPS:
                    self.fail(
                        f"RunResult array {ai} disk {di}: utilization "
                        f"{util:g} outside [0, 1]"
                    )
            if not 0.0 <= metrics.channel_utilization <= 1.0 + _EPS:
                self.fail(
                    f"RunResult array {ai}: channel utilization "
                    f"{metrics.channel_utilization:g} outside [0, 1]"
                )
            if any(n < 0 for n in metrics.disk_accesses):
                self.fail(f"RunResult array {ai}: negative disk access count")
