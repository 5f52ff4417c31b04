"""Degraded-mode operation, rebuild, and latent-error handling.

The paper's motivation is media recovery: redundant arrays survive a
disk failure and keep serving requests, at a performance cost the paper
mentions explicitly ("large arrays... have worse performance during
reconstruction following a disk failure", §4.2.1).  This module
describes that regime for the uncached organizations and holds their
rebuild.  A block's redundancy group always comes from its layout's
:meth:`~repro.layout.common.Layout.reconstruction_sources` (the other
N-1 data blocks plus parity for the parity organizations, the mirror
partner for mirrors, nothing for Base):

* **Degraded reads** — a read addressed to the failed disk is serviced
  by reading all the surviving blocks of its redundancy group and
  XOR-reconstructing, so the response is the max over N concurrent
  accesses.
* **Degraded writes** — a write group that touches a failed block is
  re-planned without it, parity block by parity block (the cases of
  Thomasian's RAID5 tutorial): a failed parity block leaves a data-only
  write; a failed written member makes a reconstruct-write of the
  survivors (read the unwritten members, write the rest and the
  parity); a failed unwritten member makes a read-modify-write; a full
  stripe drops the failed member.  The re-planned groups run through
  the healthy executors and claim track buffers the healthy way, one
  per run.
* **Rebuild** — a background process sweeps the failed disk's blocks in
  physical order, reconstructing each onto a hot spare at background
  priority; it reads each chunk's sources as one read per maximal run
  of each surviving disk's source blocks.  A watermark tracks progress:
  requests below it use the spare normally, requests above it take the
  degraded paths.  A completed full-range rebuild returns the array to
  healthy state.
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

The uncached controllers of :mod:`repro.array.uncached` carry this
state themselves.  They start *healthy* (``failed_disk=None``) and
change state at run time through ``fail_disk`` / ``attach_spare`` /
``inject_latent``; :class:`~repro.failure.injector.FailureInjector`
drives a timed scenario that way against a normally-built system.  A
controller with no injected faults only tests its state and otherwise
runs the healthy paths, so its event sequence is that of a fault-free
run (pinned by the fingerprint tests).
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.des import AllOf, Event
from repro.disk.request import AccessKind, DiskRequest, Priority
from repro.layout.common import PhysicalAddress, merge_runs

__all__ = ["RebuildProcess"]


class RebuildProcess:
    """Background reconstruction of the failed disk onto the spare.

    Sweeps the failed disk's physical blocks in ``chunk_blocks`` units:
    reads all surviving sources of the chunk at background priority
    (one read per maximal run of each source disk's blocks), writes the
    reconstructed chunk to the spare, advances the controller's
    watermark.  ``delay_ms`` throttles between chunks to bound the
    interference with foreground traffic.

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
            # Gather the chunk's surviving sources, disk by disk.
            per_disk: dict[int, list[PhysicalAddress]] = {}
            for pb in range(pblock, pblock + chunk):
                sources = layout.reconstruction_sources(failed, pb)
                if any(ctrl._is_unreadable(src.disk, src.block) for src in sources):
                    # A latent error on a source surfaced mid-rebuild:
                    # this block is unreconstructable.
                    ctrl.lost_blocks.add((failed, pb))
                    self.lost_blocks += 1
                    continue
                for src in sources:
                    per_disk.setdefault(src.disk, []).append(src)
            # One read per maximal run of each disk's source blocks: under
            # a parity grain a chunk's sources sit in distant areas.
            reads = [
                ctrl.disks[run.disk].submit(
                    DiskRequest(
                        AccessKind.READ, run.start, run.nblocks, priority=Priority.DESTAGE
                    )
                )
                for addrs in per_disk.values()
                for run in merge_runs(sorted(addrs, key=lambda a: a.block))
            ]
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
