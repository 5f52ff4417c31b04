"""Periodic scrubbing: proactive detection and repair of latent errors.

A latent sector error is silent until something reads the block.  If
nothing ever does, it surfaces at the worst possible moment — during a
rebuild, when the redundancy that could have repaired it is already
spent on the failed disk.  Scrubbing bounds that exposure window: a
background process periodically sweeps every live disk, *verify*-reading
it chunk by chunk at background priority, and repairs each latent error
it finds from the block's redundancy group.

The scrub interval is therefore a reliability/performance knob exactly
like the rebuild rate: short intervals find errors quickly but steal
arm time from foreground requests; long intervals are cheap but leave
errors latent for longer (measured by the report's exposure statistics
and swept by the ``ext-scrub`` experiment driver).
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.des import AllOf, Event
from repro.disk.request import AccessKind, DiskRequest, Priority
from repro.failure.schedule import ScrubPolicy

__all__ = ["ScrubProcess"]


class ScrubProcess:
    """One controller's periodic verify sweep.

    Each pass reads every live disk's first ``policy.max_blocks``
    blocks (or the whole disk) in ``policy.chunk_blocks`` units at
    :class:`~repro.disk.request.Priority` ``DESTAGE`` — scrub I/O never
    preempts foreground traffic.  Blocks the sweep cannot sensibly read
    are skipped: the failed disk entirely while it has no spare, and the
    unrebuilt region above the watermark while it does.

    For every latent error found, the repair reads the block's surviving
    redundancy sources and rewrites the block (the controller's
    ``_repair_latent`` with ``how="scrub"``).  A latent error whose
    group is *not* intact — a source is itself failed or unreadable, or
    the organization has no redundancy at all — is counted
    ``unrepairable`` and left in place: scrubbing detects, only
    redundancy repairs.

    ``pass_done`` is an event that fires when the current pass
    completes (re-armed each pass); the runner's drain phase waits on it
    to honour ``policy.min_passes`` for traces shorter than the scrub
    period.
    """

    def __init__(self, controller, policy: ScrubPolicy) -> None:
        self.controller = controller
        self.policy = policy
        self.passes = 0
        self.blocks_checked = 0
        self.detected = 0
        self.repaired = 0
        self.unrepairable = 0
        self.pass_done: Event = Event(controller.env)
        self.process = controller.env.process(self._run())

    def _run(self) -> Generator[Event, None, None]:
        ctrl = self.controller
        env = ctrl.env
        policy = self.policy
        if policy.start_ms > 0:
            yield env.timeout(policy.start_ms)
        while True:
            yield from self._one_pass()
            self.passes += 1
            done, self.pass_done = self.pass_done, Event(env)
            done.succeed(self.passes)
            yield env.timeout(policy.period_ms)

    def _one_pass(self) -> Generator[Event, None, None]:
        ctrl = self.controller
        layout = ctrl.layout
        policy = self.policy
        span = layout.blocks_per_disk
        if policy.max_blocks is not None:
            span = min(span, policy.max_blocks)
        for disk_idx in range(layout.ndisks):
            pblock = 0
            while pblock < span:
                chunk = min(policy.chunk_blocks, span - pblock)
                # Verify-read only the chunk's readable blocks; the scrub
                # read is what *detects* any latent error among them.
                readable_end = pblock
                for pb in range(pblock, pblock + chunk):
                    if ctrl._is_failed(disk_idx, pb):
                        break
                    readable_end = pb + 1
                if readable_end > pblock:
                    nblocks = readable_end - pblock
                    req = ctrl.disks[disk_idx].submit(
                        DiskRequest(
                            AccessKind.READ,
                            pblock,
                            nblocks,
                            priority=Priority.DESTAGE,
                        )
                    )
                    yield req.done
                    self.blocks_checked += nblocks
                    for pb in range(pblock, readable_end):
                        if (disk_idx, pb) in ctrl.latent:
                            self.detected += 1
                            yield from self._repair(disk_idx, pb)
                pblock += chunk

    def _repair(self, disk: int, pblock: int) -> Generator[Event, None, None]:
        """Reconstruct the block from its redundancy group and rewrite it."""
        ctrl = self.controller
        sources = ctrl.layout.reconstruction_sources(disk, pblock)
        if not sources or any(ctrl._is_unreadable(src.disk, src.block) for src in sources):
            # No redundancy (base organization), or the group is not
            # intact (typically: the array is degraded and the failed
            # disk is one of the sources).  The error stays latent —
            # this is precisely the exposure the scrub interval is meant
            # to bound.
            self.unrepairable += 1
            return
        reads = [
            ctrl.disks[src.disk].submit(
                DiskRequest(AccessKind.READ, src.block, 1, priority=Priority.DESTAGE)
            )
            for src in sources
        ]
        yield AllOf(ctrl.env, [r.done for r in reads])
        ctrl._repair_latent(disk, pblock, how="scrub")
        self.repaired += 1
