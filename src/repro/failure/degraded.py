"""Degraded-mode operation, rebuild, and latent-error handling.

The paper's motivation is media recovery: redundant arrays survive a
disk failure and keep serving requests, at a performance cost the paper
mentions explicitly ("large arrays... have worse performance during
reconstruction following a disk failure", §4.2.1).  This module
implements that regime for the uncached organizations:

* **Degraded reads** — a read addressed to the failed disk is serviced
  by reading all the surviving blocks of its redundancy group (the
  other N-1 data blocks plus parity for the parity organizations, the
  mirror partner for mirrors) and XOR-reconstructing, so the response
  is the max over N concurrent accesses.
* **Degraded writes** — a write to a surviving disk updates parity
  normally; a write to the failed disk updates *only* the parity (read
  the other N-1 blocks, XOR with the new data, rewrite parity), so the
  data is recoverable even though its disk is gone.
* **Rebuild** — a background process sweeps the failed disk's blocks in
  physical order, reconstructing each onto a hot spare at background
  priority.  A watermark tracks progress: requests below it use the
  spare normally, requests above it take the degraded paths.  A
  completed full-range rebuild returns the array to healthy state.
* **Latent sector errors** — individual blocks injected as unreadable
  (:class:`~repro.failure.schedule.LatentError`).  A read that trips
  over one reconstructs from redundancy and rewrites the block
  (repair-on-access); a host write refreshes the medium and clears the
  error; a scrub pass (:class:`~repro.failure.scrub.ScrubProcess`)
  detects and repairs them proactively.  While the array is degraded a
  latent error on a surviving disk is *unrepairable* — its
  reconstruction group includes the failed disk — which is exactly why
  scrub interval bounds the data-loss exposure window.
* **Graceful degradation** — an access whose block can no longer be
  reconstructed (both mirror copies gone, a reconstruction source
  itself unreadable, any failed/latent block of the redundancy-free
  Base organization) is *counted as lost*, notified through the
  ``on_data_loss`` probe tap, and completes without the unrecoverable
  blocks instead of crashing the run.  The per-run
  :class:`~repro.failure.report.FailureReport` exposes the counts and
  ``raise_for_loss()`` turns them into a typed
  :class:`~repro.failure.errors.DataLossError`.

Controllers start *healthy* (``failed_disk=None``) and transition at
runtime via :meth:`_DegradedMixin.fail_disk` /
:meth:`_DegradedMixin.attach_spare` — that is what lets
:class:`~repro.failure.injector.FailureInjector` drive a timed scenario
against a normally-built system.  A failure-capable controller with no
injected faults produces the byte-identical event sequence of its plain
counterpart (pinned by the fingerprint tests).
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.array.uncached import (
    UncachedBaseController,
    UncachedMirrorController,
    UncachedParityController,
)
from repro.des import AllOf, Event
from repro.disk.drive import Disk
from repro.disk.request import AccessKind, DiskRequest, Priority
from repro.failure.errors import FailureScheduleError
from repro.layout.common import Layout, PhysicalAddress, Run, WriteGroup, WriteMode
from repro.layout.mirror import MirrorLayout
from repro.layout.paritystripe import ParityStripingLayout
from repro.layout.striped import StripedParityLayout

__all__ = [
    "reconstruction_sources",
    "DegradedParityController",
    "DegradedMirrorController",
    "FailureAwareBaseController",
    "RebuildProcess",
    "failure_controller_factory",
]

#: Lost-access samples kept for DataLossError messages (counters are
#: always exact; only the per-event detail list is bounded).
_LOST_SAMPLES = 64


def reconstruction_sources(layout: Layout, disk: int, pblock: int) -> list[PhysicalAddress]:
    """Surviving blocks whose XOR reconstructs ``(disk, pblock)``.

    Works for both data and parity blocks of the parity layouts, and
    for mirror layouts (the single partner copy).
    """
    if isinstance(layout, MirrorLayout):
        return [PhysicalAddress(layout.mirror_of(disk), pblock)]

    if isinstance(layout, StripedParityLayout):
        # A row's data and parity all sit at the same physical block on
        # each of the N+1 disks: the sources are simply every other disk.
        return [
            PhysicalAddress(d, pblock) for d in range(layout.ndisks) if d != disk
        ]

    if isinstance(layout, ParityStripingLayout):
        area, off = divmod(pblock, layout.area_blocks)
        k = layout._data_area(area)
        parity_base = layout.parity_area_index * layout.area_blocks
        if k is None:
            # Parity block of group `disk`: XOR of all member data blocks.
            return [
                PhysicalAddress(d, layout._physical_area(kk) * layout.area_blocks + off)
                for d, kk in layout.members_of_group(disk, off)
            ]
        group = layout.group_of(disk, k, off)
        sources = [PhysicalAddress(group, parity_base + off)]
        for d, kk in layout.members_of_group(group, off):
            if d == disk:
                continue
            sources.append(
                PhysicalAddress(d, layout._physical_area(kk) * layout.area_blocks + off)
            )
        return sources

    raise TypeError(f"no redundancy to reconstruct from in {type(layout).__name__}")


class _DegradedMixin:
    """Failure state shared by the failure-capable controllers."""

    def _init_degraded(self, failed_disk: Optional[int], spare: bool) -> None:
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
        if failed_disk is not None:
            self.fail_disk(failed_disk)
            if spare:
                self.attach_spare()
        elif spare:
            raise FailureScheduleError("a spare requires a failed disk")

    # -- runtime failure transitions -----------------------------------------
    def fail_disk(self, disk: int) -> None:
        """Disk *disk* dies now; subsequent planning takes degraded paths."""
        if not 0 <= disk < self.layout.ndisks:
            raise ValueError(f"failed disk {disk} out of range")
        if self.failed_disk is not None:
            raise FailureScheduleError(
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
            raise FailureScheduleError("a spare arrived but no disk is failed")
        if self.has_spare:
            raise FailureScheduleError("the failed disk already has a spare")
        old = self.disks[self.failed_disk]
        spare = Disk(old.env, old.geometry, old.seek_model, name=f"{old.name}.spare")
        # Keep instrumentation continuous: the spare inherits the probe
        # (monitor/tracer fanout) installed on the drive it replaces.
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
            raise FailureScheduleError(f"latent error disk {disk} out of range")
        if not 0 <= pblock < self.layout.blocks_per_disk:
            raise FailureScheduleError(f"latent error pblock {pblock} out of range")
        if disk == self.failed_disk:
            raise FailureScheduleError(
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
        if self.failed_disk is None and not self.latent and not self.lost_blocks:
            return False
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
        if self.probe is not None:
            self.probe.on_latent_repair(self, disk, pblock, how)
        if how != "write":
            self.disks[disk].submit(
                DiskRequest(AccessKind.WRITE, pblock, 1, priority=Priority.DESTAGE)
            )

    # -- write-path hook -------------------------------------------------------
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

    def _write_group(self, group: WriteGroup) -> Generator[Event, None, None]:
        # A write refreshes the medium under it: clear covered latent
        # errors (and un-lose rebuild-lost blocks) before the plan runs.
        # The model treats the incoming host data as repairing the
        # sector even on the RMW path, where a real controller would
        # have to reconstruct the unreadable old data first.
        if self.latent or self.lost_blocks:
            self._clear_group_latent(group)
        yield from super()._write_group(group)


class DegradedParityController(_DegradedMixin, UncachedParityController):
    """An uncached parity array (RAID5/RAID4/Parity Striping) that can
    lose a disk, rebuild onto a hot spare, and carry latent errors."""

    def __init__(self, env, layout, disks, channel, config,
                 failed_disk: Optional[int] = None, spare: bool = False):
        super().__init__(env, layout, disks, channel, config)
        self._init_degraded(failed_disk, spare)

    # -- reads ---------------------------------------------------------------
    def _read_run(self, run: Run) -> Generator[Event, None, None]:
        # Split the run at the failure boundary block by block (runs are
        # short; requests are overwhelmingly single-block).
        if not self._any_unreadable(run.disk, run.start, run.end):
            yield from super()._read_run(run)
            return
        degraded = [
            pb for pb in range(run.start, run.end) if self._is_unreadable(run.disk, pb)
        ]
        self._note_degraded("read")
        procs = []
        healthy = [
            pb for pb in range(run.start, run.end)
            if not self._is_unreadable(run.disk, pb)
        ]
        if healthy:
            procs.append(
                self.env.process(
                    super()._read_run(Run(run.disk, healthy[0], len(healthy)))
                )
            )
        for pb in degraded:
            procs.append(self.env.process(self._reconstruct_read(run.disk, pb)))
        yield AllOf(self.env, procs)

    def _reconstruct_read(self, disk: int, pblock: int) -> Generator[Event, None, None]:
        """Read all surviving sources, then ship the block to the host."""
        if (disk, pblock) in self.lost_blocks:
            self._note_lost("read", disk, pblock)
            return
        sources = reconstruction_sources(self.layout, disk, pblock)
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

    # -- writes ----------------------------------------------------------------
    def _group_buffers(self, group: WriteGroup) -> int:
        # The degraded update needs source-read buffers beyond the
        # group's nominal claim.  They MUST be part of the single atomic
        # upfront acquire in ``_write_group``: claiming them
        # incrementally inside ``_degraded_update`` (hold-and-wait) can
        # deadlock the pool once several degraded updates run
        # concurrently.
        base = super()._group_buffers(group)
        if self.failed_disk is None:
            return base
        extra = 0
        for run in group.data_runs:
            for pb in range(run.start, run.end):
                if self._is_failed(run.disk, pb):
                    sources = [
                        src
                        for src in reconstruction_sources(self.layout, run.disk, pb)
                        if not self.layout.is_parity_block(src.disk, src.block)
                    ]
                    # One buffer per source read, minus the data block's
                    # own buffer already counted in the base claim.
                    extra += max(len(sources) - 1, 0)
        return base + extra

    def _rmw(self, group: WriteGroup) -> Generator[Event, None, None]:
        touches_failed = any(
            self._is_failed(run.disk, pb)
            for run in group.data_runs + group.parity_runs
            for pb in range(run.start, run.end)
        )
        if not touches_failed:
            yield from super()._rmw(group)
            return
        self._note_degraded("write")
        yield from self._degraded_update(group)

    def _degraded_update(self, group: WriteGroup) -> Generator[Event, None, None]:
        """Update with a failed member in the redundancy group.

        Failed data block  -> read the other N-1 data blocks, then
        rewrite the parity with the reconstructed delta.
        Failed parity block -> write the data plainly (no parity left
        to maintain for that group).

        Buffers are NOT acquired here — ``_group_buffers`` already folded
        the source-read claims into ``_write_group``'s atomic acquire.
        """
        env = self.env
        done = []
        reads: list[DiskRequest] = []

        for run in group.data_runs:
            for pb in range(run.start, run.end):
                if self._is_failed(run.disk, pb):
                    # Read every surviving source except the parity (the
                    # parity is rewritten), then gate the parity write.
                    sources = [
                        src
                        for src in reconstruction_sources(self.layout, run.disk, pb)
                        if not self.layout.is_parity_block(src.disk, src.block)
                    ]
                    for src in sources:
                        reads.append(
                            self.disks[src.disk].submit(
                                DiskRequest(AccessKind.READ, src.block)
                            )
                        )
                else:
                    req = self.disks[run.disk].submit(
                        DiskRequest(AccessKind.RMW, pb, 1)
                    )
                    reads.append(req)
                    done.append(req.done)

        gate = AllOf(env, [r.read_complete for r in reads]) if reads else None
        for run in group.parity_runs:
            for pb in range(run.start, run.end):
                if self._is_failed(run.disk, pb):
                    continue  # parity disk itself failed: nothing to update
                req = self.disks[run.disk].submit(
                    DiskRequest(AccessKind.RMW, pb, 1, data_ready=gate)
                )
                done.append(req.done)

        if done:
            yield AllOf(env, done)
        elif reads:
            yield AllOf(env, [r.done for r in reads])


class DegradedMirrorController(_DegradedMixin, UncachedMirrorController):
    """A mirrored array that can lose a member and carry latent errors."""

    def __init__(self, env, layout, disks, channel, config,
                 failed_disk: Optional[int] = None, spare: bool = False):
        super().__init__(env, layout, disks, channel, config)
        self._init_degraded(failed_disk, spare)

    def _read_run(self, run: Run) -> Generator[Event, None, None]:
        if self.failed_disk is None and not self.latent and not self.lost_blocks:
            yield from super()._read_run(run)
            return
        partner = self.mlayout.mirror_of(run.disk)
        primary_bad = self._any_unreadable(run.disk, run.start, run.end)
        partner_bad = self._any_unreadable(partner, run.start, run.end)
        if primary_bad and partner_bad:
            # Both copies gone: mirrors have no third source.
            self._note_lost("read", run.disk, run.start)
            return
        yield from super()._read_run(run)
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
        if self._any_unreadable(run.disk, run.start, run.end):
            self._note_degraded("read")
            return self.disks[self.mlayout.mirror_of(run.disk)]
        partner = self.mlayout.mirror_of(run.disk)
        if self._any_unreadable(partner, run.start, run.end):
            return self.disks[run.disk]
        return super()._pick_read_disk(run)

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
                if self._is_failed(disk_idx, run.start):
                    self._note_degraded("write")
                    continue
                req = self.disks[disk_idx].submit(
                    DiskRequest(AccessKind.WRITE, run.start, run.nblocks)
                )
                done.append(req.done)
        yield AllOf(self.env, done)


class FailureAwareBaseController(_DegradedMixin, UncachedBaseController):
    """Independent disks under failure: no redundancy, so every access
    to a failed or latent block is lost data — counted and survived, the
    baseline the redundant organizations are measured against."""

    def __init__(self, env, layout, disks, channel, config,
                 failed_disk: Optional[int] = None, spare: bool = False):
        super().__init__(env, layout, disks, channel, config)
        self._init_degraded(failed_disk, spare)

    def attach_spare(self) -> None:
        raise FailureScheduleError(
            "the base organization has no redundancy to rebuild from; "
            "a spare cannot restore its data"
        )

    def _read_run(self, run: Run) -> Generator[Event, None, None]:
        if self._any_unreadable(run.disk, run.start, run.end):
            self._note_lost("read", run.disk, run.start)
            return
        yield from super()._read_run(run)

    def _execute_group(self, group: WriteGroup) -> Generator[Event, None, None]:
        assert group.mode is WriteMode.PLAIN
        done = []
        for run in group.data_runs:
            if self._is_failed(run.disk, run.start):
                self._note_lost("write", run.disk, run.start)
                continue
            req = self.disks[run.disk].submit(
                DiskRequest(AccessKind.WRITE, run.start, run.nblocks)
            )
            done.append(req.done)
        if done:
            yield AllOf(self.env, done)


def failure_controller_factory(env, layout, disks, channel, config):
    """Build the failure-capable controller for *config*'s organization.

    Drop-in for :func:`repro.sim.system.build_system`'s default factory:
    with no injected faults the controllers behave (and fingerprint)
    identically to the plain uncached ones.
    """
    from repro.sim.config import Organization

    if config.cached:
        raise FailureScheduleError(
            "failure schedules support the uncached organizations only; "
            "run with cached=False"
        )
    org = config.organization
    if org is Organization.BASE:
        return FailureAwareBaseController(env, layout, disks, channel, config)
    if org is Organization.MIRROR:
        return DegradedMirrorController(env, layout, disks, channel, config)
    return DegradedParityController(env, layout, disks, channel, config)


class RebuildProcess:
    """Background reconstruction of the failed disk onto the spare.

    Sweeps the failed disk's physical blocks in ``chunk_blocks`` units:
    reads all surviving sources of the chunk at background priority,
    writes the reconstructed chunk to the spare, advances the
    controller's watermark.  ``delay_ms`` throttles between chunks to
    bound the interference with foreground traffic.

    A block whose reconstruction group contains another unreadable
    block — the classic latent-error-during-rebuild scenario — cannot
    be rebuilt: it is recorded in ``controller.lost_blocks`` and the
    sweep continues.  A full-range rebuild with no lost blocks returns
    the array to healthy state.
    """

    def __init__(
        self,
        controller,
        chunk_blocks: int = 6,
        delay_ms: float = 0.0,
        used_blocks: Optional[int] = None,
    ) -> None:
        if not controller.has_spare:
            raise ValueError("rebuild requires a spare disk")
        if chunk_blocks < 1:
            raise ValueError("chunk_blocks must be >= 1")
        self.controller = controller
        #: Recorded at start: the controller clears its own failed_disk
        #: when a full-range rebuild completes.
        self.failed_disk: int = controller.failed_disk
        self.chunk_blocks = chunk_blocks
        self.delay_ms = delay_ms
        self.total_blocks = (
            used_blocks
            if used_blocks is not None
            else controller.layout.blocks_per_disk
        )
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        #: Blocks this rebuild could not reconstruct.
        self.lost_blocks = 0
        self.process = controller.env.process(self._run())

    @property
    def duration_ms(self) -> Optional[float]:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    @property
    def done(self) -> bool:
        return self.finished_at is not None

    def _run(self) -> Generator[Event, None, None]:
        ctrl = self.controller
        env = ctrl.env
        layout = ctrl.layout
        failed = ctrl.failed_disk
        spare = ctrl.disks[failed]
        self.started_at = env.now

        pblock = 0
        while pblock < self.total_blocks:
            chunk = min(self.chunk_blocks, self.total_blocks - pblock)
            # Gather the union of surviving source runs for the chunk.
            per_disk: dict[int, list[int]] = {}
            for pb in range(pblock, pblock + chunk):
                sources = reconstruction_sources(layout, failed, pb)
                if any(ctrl._is_unreadable(src.disk, src.block) for src in sources):
                    # A latent error on a source surfaced mid-rebuild:
                    # this block is unreconstructable.
                    ctrl.lost_blocks.add((failed, pb))
                    self.lost_blocks += 1
                    continue
                for src in sources:
                    per_disk.setdefault(src.disk, []).append(src.block)
            reads = []
            for disk_idx, blocks in per_disk.items():
                blocks.sort()
                start = blocks[0]
                reads.append(
                    ctrl.disks[disk_idx].submit(
                        DiskRequest(
                            AccessKind.READ,
                            start,
                            blocks[-1] - start + 1,
                            priority=Priority.DESTAGE,
                        )
                    )
                )
            if reads:
                yield AllOf(env, [r.done for r in reads])
                write = spare.submit(
                    DiskRequest(AccessKind.WRITE, pblock, chunk, priority=Priority.DESTAGE)
                )
                yield write.done
            pblock += chunk
            ctrl.rebuilt_upto = pblock
            if self.delay_ms > 0:
                yield env.timeout(self.delay_ms)
        self.finished_at = env.now
        ctrl.rebuild_finished(self.total_blocks)
