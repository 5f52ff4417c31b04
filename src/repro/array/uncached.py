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

Each controller can also lose a disk, take a hot spare and carry latent
sector errors; :mod:`repro.failure.degraded` describes the model.  A
controller starts healthy and changes state at run time through
:meth:`~_UncachedController.fail_disk`,
:meth:`~_UncachedController.attach_spare` and
:meth:`~_UncachedController.inject_latent`, as
:class:`~repro.failure.injector.FailureInjector` calls them.  While no
disk is failed and no block latent or lost, a read run and a write
group only test that and take the healthy path.
"""

from __future__ import annotations

from typing import Generator, Optional, Sequence

from repro.array.controller import ArrayController
from repro.array.sync import SyncPolicy, parity_issue_gate, parity_priority
from repro.channel.bus import Channel
from repro.channel.trackbuffer import TrackBufferPool
from repro.des import AllOf, Environment, Event
from repro.disk.drive import Disk
from repro.disk.request import AccessKind, DiskRequest, Priority
from repro.layout.common import Layout, PhysicalAddress, Run, WriteGroup, WriteMode, merge_runs
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

#: Lost-access samples kept for DataLossError messages (counters are
#: always exact; only the per-event detail list is bounded).
_LOST_SAMPLES = 64


def _schedule_error(message: str) -> Exception:
    """A :class:`~repro.failure.errors.FailureScheduleError`, imported
    on first use so that a fault-free run never loads ``repro.failure``."""
    from repro.failure.errors import FailureScheduleError

    return FailureScheduleError(message)


def _disk_runs(addresses: list[PhysicalAddress]) -> list[Run]:
    """*addresses* merged into runs, disk by disk."""
    return merge_runs(sorted(addresses, key=lambda a: (a.disk, a.block)))


class _UncachedController(ArrayController):
    """Shared buffer/channel plumbing and failure state for the
    non-cached organizations."""

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
        self.failed_disk: Optional[int] = None
        #: Physical blocks of the failed disk rebuilt so far (watermark);
        #: the spare serves addresses below it.
        self.rebuilt_upto = 0
        self.has_spare = False
        #: Sticky: the array was degraded at some point of the run (the
        #: parity checker's stream-level audit exempts such arrays even
        #: after a completed rebuild clears ``failed_disk``).
        self.ever_failed = False
        self.degraded_reads = 0
        self.degraded_writes = 0
        #: ``(disk, pblock) -> injection time`` of live latent errors.
        self.latent: dict[tuple[int, int], float] = {}
        self.latent_injected = 0
        self.latent_repaired_access = 0
        self.latent_repaired_write = 0
        self.latent_repaired_scrub = 0
        #: Repair latencies (repair time - injection time) in ms.
        self.latent_exposure_ms: list[float] = []
        #: Blocks the rebuild could not reconstruct (permanently lost
        #: until a host write refreshes them).
        self.lost_blocks: set[tuple[int, int]] = set()
        self.lost_reads = 0
        self.lost_writes = 0
        self.lost_events: list[tuple[float, str, int, int]] = []

    # -- runtime failure transitions -----------------------------------------
    def fail_disk(self, disk: int) -> None:
        """Disk *disk* dies now; subsequent planning takes degraded paths."""
        if not 0 <= disk < self.layout.ndisks:
            raise ValueError(f"failed disk {disk} out of range")
        if self.failed_disk is not None:
            raise _schedule_error(
                f"disk {self.failed_disk} is already failed; a second "
                f"concurrent failure is outside the single-failure model"
            )
        self.failed_disk = disk
        self.ever_failed = True
        self.has_spare = False
        self.rebuilt_upto = 0
        # A whole-disk failure subsumes latent errors on that disk; the
        # rebuild rewrites every block onto the fresh spare, so keeping
        # them would wrongly mark rebuilt blocks unreadable.
        for key in [k for k in self.latent if k[0] == disk]:
            del self.latent[key]

    def attach_spare(self) -> None:
        """A hot spare replaces the failed drive: same geometry, fresh arm."""
        if self.failed_disk is None:
            raise _schedule_error("a spare arrived but no disk is failed")
        if self.has_spare:
            raise _schedule_error("the failed disk already has a spare")
        old = self.disks[self.failed_disk]
        spare = Disk(old.env, old.geometry, old.seek_model, name=f"{old.name}.spare")
        # Keep instrumentation continuous: the spare inherits the probe
        # bus of the drive it replaces.
        spare.probe = old.probe
        self.disks[self.failed_disk] = spare
        self.has_spare = True
        self.rebuilt_upto = 0

    def rebuild_finished(self, total_blocks: int) -> None:
        """A full-range rebuild restores the array to healthy state."""
        if total_blocks >= self.layout.blocks_per_disk:
            self.failed_disk = None

    def inject_latent(self, disk: int, pblock: int) -> None:
        """Block ``(disk, pblock)`` silently becomes unreadable now."""
        if not 0 <= disk < self.layout.ndisks:
            raise _schedule_error(f"latent error disk {disk} out of range")
        if not 0 <= pblock < self.layout.blocks_per_disk:
            raise _schedule_error(f"latent error pblock {pblock} out of range")
        if disk == self.failed_disk:
            raise _schedule_error(
                f"latent error on disk {disk} is moot: the whole disk is failed"
            )
        self.latent[(disk, pblock)] = self.env.now
        self.latent_injected += 1

    # -- block state ----------------------------------------------------------
    def _is_failed(self, disk: int, pblock: int) -> bool:
        """True if the block's *drive* is gone (write planning: nothing
        can be written there)."""
        if disk != self.failed_disk:
            return False
        return not (self.has_spare and pblock < self.rebuilt_upto)

    def _is_unreadable(self, disk: int, pblock: int) -> bool:
        """True if a read of this block cannot return data directly:
        failed drive, latent sector error, or lost during rebuild."""
        if self._is_failed(disk, pblock):
            return True
        key = (disk, pblock)
        return key in self.latent or key in self.lost_blocks

    def _any_unreadable(self, disk: int, start: int, end: int) -> bool:
        return any(self._is_unreadable(disk, pb) for pb in range(start, end))

    # -- accounting + probe taps ----------------------------------------------
    def _note_degraded(self, kind: str) -> None:
        """Count a degraded access and notify the validation tap."""
        if kind == "read":
            self.degraded_reads += 1
        else:
            self.degraded_writes += 1
        if self.probe is not None:
            self.probe.on_degraded(self, kind)

    def _note_lost(self, kind: str, disk: int, pblock: int) -> None:
        """Count an access to data no redundancy can reconstruct."""
        if kind == "read":
            self.lost_reads += 1
        else:
            self.lost_writes += 1
        if len(self.lost_events) < _LOST_SAMPLES:
            self.lost_events.append((self.env.now, kind, disk, pblock))
        if self.probe is not None:
            self.probe.on_data_loss(self, kind, disk, pblock)

    def _repair_latent(self, disk: int, pblock: int, how: str) -> None:
        """Clear a latent error and record its exposure window.

        ``how="write"`` means the host write itself refreshed the medium
        (no extra access); ``"access"``/``"scrub"`` submit a background
        rewrite of the reconstructed block.
        """
        injected_at = self.latent.pop((disk, pblock), None)
        if injected_at is None:
            return
        self.latent_exposure_ms.append(self.env.now - injected_at)
        if how == "access":
            self.latent_repaired_access += 1
        elif how == "scrub":
            self.latent_repaired_scrub += 1
        else:
            self.latent_repaired_write += 1
        if how != "write":
            self.disks[disk].submit(
                DiskRequest(AccessKind.WRITE, pblock, 1, priority=Priority.DESTAGE)
            )

    # -- reads ---------------------------------------------------------------
    def handle(self, lstart: int, nblocks: int, is_write: bool):
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

    def _read_run(self, run: Run, checked: bool = False) -> Generator[Event, None, None]:
        """Read *run* through one track buffer and the channel.

        While the array has a failed disk or a latent or lost block, the
        organization's :meth:`_degraded_read` serves the run instead; it
        reads the blocks it can back through here with ``checked=True``.
        """
        if (self.failed_disk is not None or self.latent or self.lost_blocks) and not checked:
            yield from self._degraded_read(run)
            return
        yield from self.buffers.acquire(1)
        try:
            req = self._pick_read_disk(run).submit(
                DiskRequest(AccessKind.READ, run.start, run.nblocks)
            )
            yield req.done
            yield from self._channel_transfer(run.nblocks)
        finally:
            self.buffers.release(1)

    def _degraded_read(self, run: Run) -> Generator[Event, None, None]:
        """Serve *run* on an array with a failed disk, latent or lost
        blocks (each organization its own way)."""
        raise NotImplementedError

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

    def _write_group(
        self, group: WriteGroup, checked: bool = False
    ) -> Generator[Event, None, None]:
        """Claim *group*'s track buffers and execute it.

        While the array has a failed disk or a latent or lost block, the
        group first clears what it overwrites and is re-planned by
        :meth:`_degrade`; the groups that come back run through here
        with ``checked=True``.
        """
        if (self.failed_disk is not None or self.latent or self.lost_blocks) and not checked:
            # A write refreshes the medium under it: clear covered latent
            # errors (and un-lose rebuild-lost blocks) before the plan
            # runs.  The model treats the incoming host data as repairing
            # the sector even on the RMW path, where a real controller
            # would have to reconstruct the unreadable old data first.
            if self.latent or self.lost_blocks:
                self._clear_group_latent(group)
            groups = self._degrade(group)
            if len(groups) == 1:
                yield from self._write_group(groups[0], checked=True)
            else:
                yield AllOf(
                    self.env,
                    [self.env.process(self._write_group(g, checked=True)) for g in groups],
                )
            return
        if self.probe is not None:
            self.probe.on_write_group(self, group)
        nbuf = self._group_buffers(group)
        yield from self.buffers.acquire(nbuf)
        try:
            yield from self._execute_group(group)
        finally:
            self.buffers.release(nbuf)

    def _clear_latent_run(self, disk: int, start: int, end: int) -> None:
        for pb in range(start, end):
            if self._is_failed(disk, pb):
                continue
            if (disk, pb) in self.latent:
                self._repair_latent(disk, pb, how="write")
            self.lost_blocks.discard((disk, pb))

    def _clear_group_latent(self, group: WriteGroup) -> None:
        for run in group.data_runs + group.parity_runs:
            self._clear_latent_run(run.disk, run.start, run.end)

    def _degrade(self, group: WriteGroup) -> list[WriteGroup]:
        """The groups that carry out *group* on the live blocks; the
        mirror and base executors route around a failed disk themselves."""
        return [group]

    def _execute_group(self, group: WriteGroup) -> Generator[Event, None, None]:
        raise NotImplementedError


class UncachedBaseController(_UncachedController):
    """Independent disks: writes go straight to the addressed disk.

    Under failure there is no redundancy, so every access to a failed or
    latent block is lost data — counted and survived, the baseline the
    redundant organizations are measured against.
    """

    def attach_spare(self) -> None:
        raise _schedule_error(
            "the base organization has no redundancy to rebuild from; "
            "a spare cannot restore its data"
        )

    def _degraded_read(self, run: Run) -> Generator[Event, None, None]:
        if self._any_unreadable(run.disk, run.start, run.end):
            self._note_lost("read", run.disk, run.start)
            return
        yield from self._read_run(run, checked=True)

    def _execute_group(self, group: WriteGroup) -> Generator[Event, None, None]:
        assert group.mode is WriteMode.PLAIN
        done = []
        for run in group.data_runs:
            # A base array never has a spare: its failed disk is gone whole.
            if run.disk == self.failed_disk:
                self._note_lost("write", run.disk, run.start)
                continue
            req = self.disks[run.disk].submit(
                DiskRequest(AccessKind.WRITE, run.start, run.nblocks)
            )
            done.append(req.done)
        if done:
            yield AllOf(self.env, done)


class UncachedMirrorController(_UncachedController):
    """Mirrored pairs: writes to both members (response = max); reads to
    the member whose arm is nearest the target (shortest-seek routing),
    or to the member that can still return the data."""

    def __init__(self, env, layout, disks, channel, config) -> None:
        if not isinstance(layout, MirrorLayout):
            raise TypeError("mirror controller requires a MirrorLayout")
        super().__init__(env, layout, disks, channel, config)
        self.mlayout: MirrorLayout = layout

    def _degraded_read(self, run: Run) -> Generator[Event, None, None]:
        partner = self.mlayout.mirror_of(run.disk)
        primary_bad = self._any_unreadable(run.disk, run.start, run.end)
        partner_bad = self._any_unreadable(partner, run.start, run.end)
        if primary_bad and partner_bad:
            # Both copies gone: mirrors have no third source.
            self._note_lost("read", run.disk, run.start)
            return
        yield from self._read_run(run, checked=True)
        if primary_bad or partner_bad:
            # Routing around an unreadable copy models a failed read
            # attempt retried on the partner: the failed attempt is what
            # *detects* the latent error, so repair it in the background
            # wherever the drive itself is still alive.
            for disk_idx in (run.disk, partner):
                for pb in range(run.start, run.end):
                    if (disk_idx, pb) in self.latent:
                        self._repair_latent(disk_idx, pb, how="access")

    def _pick_read_disk(self, run: Run) -> Disk:
        if self.failed_disk is not None or self.latent or self.lost_blocks:
            # Decided once the track buffer is held: the read goes to a
            # copy that can return the data.
            partner = self.mlayout.mirror_of(run.disk)
            if self._any_unreadable(run.disk, run.start, run.end):
                self._note_degraded("read")
                return self.disks[partner]
            if self._any_unreadable(partner, run.start, run.end):
                return self.disks[run.disk]
        return self._nearer_copy(run)

    def _clear_group_latent(self, group: WriteGroup) -> None:
        super()._clear_group_latent(group)
        # Mirror writes land on both copies; clear the partner's too.
        for run in group.data_runs:
            self._clear_latent_run(self.mlayout.mirror_of(run.disk), run.start, run.end)

    def _execute_group(self, group: WriteGroup) -> Generator[Event, None, None]:
        assert group.mode is WriteMode.PLAIN
        done = []
        for run in group.data_runs:
            for disk_idx in (run.disk, self.mlayout.mirror_of(run.disk)):
                nblocks = run.nblocks
                if disk_idx == self.failed_disk:
                    # The spare takes the blocks below the rebuild
                    # watermark; the blocks above wait for the rebuild.
                    end = min(run.end, self.rebuilt_upto) if self.has_spare else run.start
                    if end < run.end:
                        self._note_degraded("write")
                    if end <= run.start:
                        continue
                    nblocks = end - run.start
                req = self.disks[disk_idx].submit(
                    DiskRequest(AccessKind.WRITE, run.start, nblocks)
                )
                done.append(req.done)
        yield AllOf(self.env, done)


class UncachedParityController(_UncachedController):
    """RAID5 / RAID4 / Parity Striping without a cache.

    Small writes use the read-modify-write path on the data disk(s) and
    the parity disk, synchronized per ``config.sync_policy``; large
    writes use reconstruct or full-stripe paths from the layout's plan.
    A degraded read XOR-reconstructs each unreadable block from its
    redundancy group; a degraded write group is re-planned without its
    failed blocks (:meth:`_degrade`).
    """

    def __init__(self, env, layout, disks, channel, config) -> None:
        if not layout.has_parity:
            raise TypeError("parity controller requires a parity layout")
        super().__init__(env, layout, disks, channel, config)
        self.sync_policy: SyncPolicy = config.sync_policy_enum

    # -- degraded reads --------------------------------------------------------
    def _degraded_read(self, run: Run) -> Generator[Event, None, None]:
        # Split the run at the failure boundary block by block (runs are
        # short; requests are overwhelmingly single-block).
        if not self._any_unreadable(run.disk, run.start, run.end):
            yield from self._read_run(run, checked=True)
            return
        degraded = [
            pb for pb in range(run.start, run.end) if self._is_unreadable(run.disk, pb)
        ]
        self._note_degraded("read")
        # The readable blocks, as the maximal runs between the
        # unreadable ones.
        healthy = merge_runs([
            PhysicalAddress(run.disk, pb)
            for pb in range(run.start, run.end)
            if not self._is_unreadable(run.disk, pb)
        ])
        procs = [self.env.process(self._read_run(part, checked=True)) for part in healthy]
        for pb in degraded:
            procs.append(self.env.process(self._reconstruct_read(run.disk, pb)))
        yield AllOf(self.env, procs)

    def _reconstruct_read(self, disk: int, pblock: int) -> Generator[Event, None, None]:
        """Read all surviving sources, then ship the block to the host."""
        if (disk, pblock) in self.lost_blocks:
            self._note_lost("read", disk, pblock)
            return
        sources = self.layout.reconstruction_sources(disk, pblock)
        if any(self._is_unreadable(src.disk, src.block) for src in sources):
            # A second unreadable block in the group: nothing left to
            # XOR from.  The request completes without the data.
            self._note_lost("read", disk, pblock)
            return
        nbuf = len(sources)
        yield from self.buffers.acquire(nbuf)
        try:
            reads = [
                self.disks[src.disk].submit(DiskRequest(AccessKind.READ, src.block))
                for src in sources
            ]
            yield AllOf(self.env, [r.done for r in reads])
            yield from self._channel_transfer(1)
        finally:
            self.buffers.release(nbuf)
        if (disk, pblock) in self.latent:
            # Repair-on-access: the block was just reconstructed, so
            # rewrite the medium in the background.
            self._repair_latent(disk, pblock, how="access")

    # -- degraded writes -------------------------------------------------------
    def _degrade(self, group: WriteGroup) -> list[WriteGroup]:
        """Re-plan *group* so that no access reaches a failed block.

        A group with no failed block comes back as is.  Otherwise each
        parity block is planned from its members (the data blocks it
        protects) by the cases of :mod:`repro.failure.degraded`, in the
        group's own mode where none of them applies.  Consecutive parity
        blocks planned alike share one group, whose blocks merge into
        runs.
        """
        failed = self.failed_disk
        if failed is None or not any(
            run.disk == failed and self._is_failed(failed, run.end - 1)
            for run in group.data_runs + group.read_runs + group.parity_runs
        ):
            return [group]
        self._note_degraded("write")
        gone = self._is_failed
        written = {
            (run.disk, pb) for run in group.data_runs for pb in range(run.start, run.end)
        }
        planned: list[tuple[tuple[WriteMode, bool], list, list, list]] = []
        for run in group.parity_runs:
            for pb in range(run.start, run.end):
                members = self.layout.reconstruction_sources(run.disk, pb)
                data = [m for m in members if (m.disk, m.block) in written]
                rest = [m for m in members if (m.disk, m.block) not in written]
                parity = [PhysicalAddress(run.disk, pb)]
                if gone(run.disk, pb):
                    mode, rest, parity = WriteMode.FULL, [], []
                elif any(gone(m.disk, m.block) for m in data):
                    data = [m for m in data if not gone(m.disk, m.block)]
                    mode = WriteMode.RECONSTRUCT if rest else WriteMode.FULL
                elif any(gone(m.disk, m.block) for m in rest):
                    mode, rest = WriteMode.RMW, []
                else:
                    mode = group.mode
                    if mode is not WriteMode.RECONSTRUCT:
                        rest = []
                kind = (mode, bool(parity))
                if not planned or planned[-1][0] != kind:
                    planned.append((kind, [], [], []))
                _, kind_data, kind_reads, kind_parity = planned[-1]
                kind_data += data
                kind_reads += rest
                kind_parity += parity
        return [
            WriteGroup(mode, _disk_runs(data), _disk_runs(reads), _disk_runs(parity))
            for (mode, _), data, reads, parity in planned
            if data or parity
        ]

    # -- executors -------------------------------------------------------------
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

