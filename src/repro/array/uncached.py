"""Non-cached controllers (§4.2): Base, Mirror and the parity
organizations (RAID5 / Parity Striping / RAID4) with track buffers.

Data paths:

* read:  disk → track buffer → channel (a busy channel never costs a
  revolution);
* write: channel → track buffer → disk;
* parity update: data disk performs a combined read-rotate-write; the
  parity disk does the same with its write gated on the old-data read,
  orchestrated per the configured synchronization policy.

Every write group claims all the track buffers it will need *upfront*
(atomic multi-acquire) — incremental claiming would let concurrent
parity updates deadlock on the pool.
"""

from __future__ import annotations

from typing import Generator, Sequence

from repro.array.controller import ArrayController
from repro.array.sync import SyncPolicy, parity_issue_gate, parity_priority
from repro.channel.bus import Channel
from repro.channel.trackbuffer import TrackBufferPool
from repro.des import AllOf, Environment, Event
from repro.disk.drive import Disk
from repro.disk.request import AccessKind, DiskRequest
from repro.layout.common import Layout, Run, WriteGroup, WriteMode
from repro.layout.mirror import MirrorLayout

__all__ = [
    "UncachedBaseController",
    "UncachedMirrorController",
    "UncachedParityController",
]

#: Track buffers per disk in the controller.
TRACK_BUFFERS_PER_DISK = 5

#: Under SI, revolutions the parity disk is held waiting for the old
#: data before requeueing the access ("held for the duration of some
#: number of full rotations", §3.3).  The bound also breaks the
#: cross-disk circular wait that unbounded holding can create.
SI_MAX_HOLD_REVOLUTIONS = 4


class _UncachedController(ArrayController):
    """Shared buffer/channel plumbing for the non-cached organizations."""

    def __init__(
        self,
        env: Environment,
        layout: Layout,
        disks: Sequence[Disk],
        channel: Channel,
        config,
    ) -> None:
        super().__init__(env, layout, disks, channel, config)
        self.buffers = TrackBufferPool(
            env, ndisks=layout.ndisks, buffers_per_disk=TRACK_BUFFERS_PER_DISK
        )

    # -- reads ---------------------------------------------------------------
    def handle(self, lstart: int, nblocks: int, is_write: bool):
        self.requests_handled += 1
        if self.probe is not None:
            self.probe.on_handle(self, lstart, nblocks, is_write)
        if is_write:
            return self._handle_write(lstart, nblocks)
        return self._handle_read(lstart, nblocks)

    def _handle_read(self, lstart: int, nblocks: int) -> Generator[Event, None, None]:
        runs = self.layout.read_runs(lstart, nblocks)
        if len(runs) == 1:
            yield from self._read_run(runs[0])
            return
        procs = [self.env.process(self._read_run(run)) for run in runs]
        yield AllOf(self.env, procs)

    def _read_run(self, run: Run) -> Generator[Event, None, None]:
        yield from self.buffers.acquire(1)
        try:
            req = self._pick_read_disk(run).submit(
                DiskRequest(AccessKind.READ, run.start, run.nblocks)
            )
            yield req.done
            yield from self._channel_transfer(run.nblocks)
        finally:
            self.buffers.release(1)

    def _pick_read_disk(self, run: Run) -> Disk:
        """Which physical disk services a read of *run* (mirror overrides)."""
        return self.disks[run.disk]

    # -- writes ----------------------------------------------------------------
    def _handle_write(self, lstart: int, nblocks: int) -> Generator[Event, None, None]:
        # Host data crosses the channel into the track buffers first.
        yield from self._channel_transfer(nblocks)
        plan = self.layout.write_plan(lstart, nblocks)
        procs = [self.env.process(self._write_group(group)) for group in plan]
        if len(procs) == 1:
            yield procs[0]
        else:
            yield AllOf(self.env, procs)

    def _group_buffers(self, group: WriteGroup) -> int:
        """Track buffers a write group needs (claimed atomically)."""
        return len(group.data_runs) + len(group.read_runs) + len(group.parity_runs)

    def _write_group(self, group: WriteGroup) -> Generator[Event, None, None]:
        if self.probe is not None:
            self.probe.on_write_group(self, group)
        nbuf = self._group_buffers(group)
        yield from self.buffers.acquire(nbuf)
        try:
            yield from self._execute_group(group)
        finally:
            self.buffers.release(nbuf)

    def _execute_group(self, group: WriteGroup) -> Generator[Event, None, None]:
        raise NotImplementedError


class UncachedBaseController(_UncachedController):
    """Independent disks: writes go straight to the addressed disk."""

    def _execute_group(self, group: WriteGroup) -> Generator[Event, None, None]:
        assert group.mode is WriteMode.PLAIN
        done = [
            self.disks[run.disk]
            .submit(DiskRequest(AccessKind.WRITE, run.start, run.nblocks))
            .done
            for run in group.data_runs
        ]
        yield AllOf(self.env, done)


class UncachedMirrorController(_UncachedController):
    """Mirrored pairs: writes to both members (response = max); reads to
    the member whose arm is nearest the target (shortest-seek routing)."""

    def __init__(self, env, layout, disks, channel, config) -> None:
        if not isinstance(layout, MirrorLayout):
            raise TypeError("mirror controller requires a MirrorLayout")
        super().__init__(env, layout, disks, channel, config)
        self.mlayout: MirrorLayout = layout

    def _pick_read_disk(self, run: Run) -> Disk:
        return self._nearer_copy(run)

    def _execute_group(self, group: WriteGroup) -> Generator[Event, None, None]:
        assert group.mode is WriteMode.PLAIN
        done = []
        for run in group.data_runs:
            for disk_idx in (run.disk, self.mlayout.mirror_of(run.disk)):
                req = self.disks[disk_idx].submit(
                    DiskRequest(AccessKind.WRITE, run.start, run.nblocks)
                )
                done.append(req.done)
        yield AllOf(self.env, done)


class UncachedParityController(_UncachedController):
    """RAID5 / RAID4 / Parity Striping without a cache.

    Small writes use the read-modify-write path on the data disk(s) and
    the parity disk, synchronized per ``config.sync_policy``; large
    writes use reconstruct or full-stripe paths from the layout's plan.
    """

    def __init__(self, env, layout, disks, channel, config) -> None:
        if not layout.has_parity:
            raise TypeError("parity controller requires a parity layout")
        super().__init__(env, layout, disks, channel, config)
        self.sync_policy: SyncPolicy = config.sync_policy_enum

    def _execute_group(self, group: WriteGroup) -> Generator[Event, None, None]:
        if group.mode is WriteMode.FULL:
            yield from self._full_stripe(group)
        elif group.mode is WriteMode.RECONSTRUCT:
            yield from self._reconstruct(group)
        else:
            yield from self._rmw(group)

    def _full_stripe(self, group: WriteGroup) -> Generator[Event, None, None]:
        """Everything is written fresh; parity computed from host data."""
        done = [
            self.disks[run.disk]
            .submit(DiskRequest(AccessKind.WRITE, run.start, run.nblocks))
            .done
            for run in group.data_runs + group.parity_runs
        ]
        yield AllOf(self.env, done)

    def _reconstruct(self, group: WriteGroup) -> Generator[Event, None, None]:
        """Read the untouched units, then write data and fresh parity.

        The parity write is *submitted* only once the reads complete: a
        priority parity access issued earlier could jump ahead of another
        update's reads on its disk and create a cross-disk circular wait
        (the reads it needs queued behind parity accesses and vice versa).
        """
        reads = [
            self.disks[run.disk].submit(
                DiskRequest(AccessKind.READ, run.start, run.nblocks)
            )
            for run in group.read_runs
        ]
        done = [
            self.disks[run.disk]
            .submit(DiskRequest(AccessKind.WRITE, run.start, run.nblocks))
            .done
            for run in group.data_runs
        ]
        yield AllOf(self.env, [r.done for r in reads])
        for run in group.parity_runs:
            req = self.disks[run.disk].submit(
                DiskRequest(
                    AccessKind.WRITE,
                    run.start,
                    run.nblocks,
                    priority=parity_priority(self.sync_policy),
                )
            )
            done.append(req.done)
        yield AllOf(self.env, done)

    def _rmw(self, group: WriteGroup) -> Generator[Event, None, None]:
        """Read-modify-write on data disk(s) and parity disk."""
        env = self.env
        data_reqs = [
            self.disks[run.disk].submit(
                DiskRequest(AccessKind.RMW, run.start, run.nblocks)
            )
            for run in group.data_runs
        ]

        data_ready = AllOf(env, [r.read_complete for r in data_reqs])
        prio = parity_priority(self.sync_policy)
        gate = parity_issue_gate(self.sync_policy, env, data_reqs)
        if gate is not None:
            yield gate
        # Only SI issues the parity access before the data acquires its
        # disk, so only SI can hold the parity disk indefinitely; the
        # bounded hold makes it give up and retry.
        max_hold = SI_MAX_HOLD_REVOLUTIONS if self.sync_policy is SyncPolicy.SI else None

        parity_done = [
            self.disks[run.disk]
            .submit(
                DiskRequest(
                    AccessKind.RMW,
                    run.start,
                    run.nblocks,
                    priority=prio,
                    data_ready=data_ready,
                    max_hold_revolutions=max_hold,
                )
            )
            .done
            for run in group.parity_runs
        ]
        yield AllOf(env, [r.done for r in data_reqs] + parity_done)
