"""Parity-group consistency for the parity organizations.

The redundancy contract of RAID5 / RAID4 / Parity Striping is that
every update of a data block carries an update of the parity block
protecting it.  The checker verifies this at the point where it can be
broken — the controllers' write planning and destage paths — by
*independently* re-deriving the protected parity addresses from the
layout and comparing them with the parity updates the controller
actually issues:

* **Uncached write groups** (``on_write_group``): for each data block
  of the group, ``layout.parity_of`` must be covered by the group's
  ``parity_runs`` (full-stripe, reconstruct and RMW modes alike).
* **Cached destage runs** (``on_parity_update``): the parity runs a
  destage submits — or, under RAID4 parity caching, buffers as deltas —
  must cover ``layout.parity_of`` of every destaged logical block.
* **Disk stream** (finalize): an array whose data disks completed write
  traffic must have issued parity-area write traffic (or still hold
  buffered deltas); and no write may land on a physical block the
  layout cannot classify.

Degraded arrays are exempted exactly where redundancy is genuinely
gone — and no wider.  The exemption is *per block*, through the
controller's own spare/watermark-aware ``_is_failed``: once a rebuild
has reconstructed a block onto the spare (below the watermark), that
block is live again and its parity contract is enforced like any other;
only blocks still above the watermark (or on a spare-less failed disk)
are exempt.  The stream-level finalize audit skips arrays that were
degraded at any point of the run (``ever_failed``): a RAID4 array whose
parity disk spent the run failed may legitimately complete data writes
with no parity traffic at all.
"""

from __future__ import annotations

from repro.disk.request import AccessKind
from repro.validate.checker import CheckContext, InvariantChecker

__all__ = ["ParityConsistencyChecker"]

_WRITE_KINDS = (AccessKind.WRITE, AccessKind.RMW)


class ParityConsistencyChecker(InvariantChecker):
    """Every data update is covered by a matching parity update."""

    name = "parity-consistency"

    def attach(self, ctx: CheckContext) -> None:
        self._groups_checked = 0
        #: Per-array counters of completed data / submitted parity writes.
        self._data_writes: dict[int, int] = {}
        self._parity_writes: dict[int, int] = {}
        self._deltas_buffered: dict[int, int] = {}

    @staticmethod
    def _failed_disk(controller) -> int | None:
        return getattr(controller, "failed_disk", None)

    @staticmethod
    def _gone(controller, disk: int, pblock: int) -> bool:
        """Is this physical block genuinely without a live drive?

        Delegates to the uncached controller's spare/watermark-aware
        ``_is_failed`` so a rebuild-in-progress group is exempted only
        above the watermark: reconstructed blocks on the spare are held
        to the full parity contract again.
        """
        is_failed = getattr(controller, "_is_failed", None)
        if is_failed is None:
            return False
        return bool(is_failed(disk, pblock))

    # -- plan-level checks ---------------------------------------------------
    def on_write_group(self, controller, group) -> None:
        layout = controller.layout
        if not layout.has_parity:
            return
        provided = {
            (run.disk, pb)
            for run in group.parity_runs
            for pb in range(run.start, run.end)
        }
        for addr, lblock in self._required_parity(layout, group.data_runs, controller):
            if self._gone(controller, addr.disk, addr.block):
                continue
            if (addr.disk, addr.block) not in provided:
                self.fail(
                    f"write group ({group.mode.value}) updates lblock {lblock} "
                    f"but not its parity at disk {addr.disk} "
                    f"pblock {addr.block} (t={self.ctx.env.now:g})"
                )
        self._groups_checked += 1

    def on_parity_update(self, controller, run, parity_runs) -> None:
        layout = controller.layout
        ai = self.ctx.array_of(controller)
        provided = {
            (prun.disk, pb)
            for prun in parity_runs
            for pb in range(prun.start, prun.end)
        }
        self._deltas_buffered[ai] = self._deltas_buffered.get(ai, 0) + len(provided)
        for lblock in run.lblocks:
            addr = layout.parity_of(lblock)
            if addr is None:
                self.fail(f"destaged lblock {lblock} has no parity in {layout!r}")
            if (addr.disk, addr.block) not in provided:
                self.fail(
                    f"destage of lblock {lblock} (disk {run.disk}, "
                    f"pblocks [{run.start}, {run.end})) omits its parity at "
                    f"disk {addr.disk} pblock {addr.block} (t={self.ctx.env.now:g})"
                )
        self._groups_checked += 1

    @classmethod
    def _required_parity(cls, layout, data_runs, controller):
        """``(parity_address, lblock)`` for each live data block of the runs."""
        out = []
        for run in data_runs:
            for pb in range(run.start, run.end):
                if cls._gone(controller, run.disk, pb):
                    continue
                lblock = layout.logical_of(run.disk, pb)
                if lblock is None:
                    continue
                addr = layout.parity_of(lblock)
                if addr is not None:
                    out.append((addr, lblock))
        return out

    # -- stream-level checks ---------------------------------------------------
    def on_disk_submit(self, disk, request) -> None:
        info = self.ctx.disk_info.get(disk)
        if info is None or request.kind not in _WRITE_KINDS:
            return
        ai, di, ctrl = info
        layout = ctrl.layout
        if not layout.has_parity:
            return
        for pb in range(request.start_block, request.end_block):
            if layout.is_parity_block(di, pb):
                self._parity_writes[ai] = self._parity_writes.get(ai, 0) + 1

    def on_disk_complete(self, disk, request) -> None:
        info = self.ctx.disk_info.get(disk)
        if info is None or request.kind not in _WRITE_KINDS:
            return
        ai, di, ctrl = info
        layout = ctrl.layout
        if not layout.has_parity:
            return
        for pb in range(request.start_block, request.end_block):
            if self._gone(ctrl, di, pb):
                continue
            if layout.logical_of(di, pb) is not None:
                self._data_writes[ai] = self._data_writes.get(ai, 0) + 1

    def finalize(self, ctx: CheckContext, result) -> None:
        for ai, ctrl in enumerate(ctx.controllers):
            if not ctrl.layout.has_parity:
                continue
            if self._failed_disk(ctrl) is not None or getattr(ctrl, "ever_failed", False):
                continue  # arrays degraded during the run may legitimately skip parity
            data = self._data_writes.get(ai, 0)
            parity = self._parity_writes.get(ai, 0)
            buffered = self._deltas_buffered.get(ai, 0)
            if data > 0 and parity + buffered == 0:
                self.fail(
                    f"array {ai} completed {data} data-block write(s) but "
                    f"never issued or buffered a parity update"
                )
