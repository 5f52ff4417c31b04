"""No access reaches a failed disk.

A degraded array must serve every request from the surviving disks, and
from the spare only below the rebuild watermark.  The checker looks at
each disk access as it is submitted: when the disk sits in the failed
slot of an uncached controller (the dead drive, or the spare that
replaced it after the monitor attached), no block of the access may be
one that the controller's ``_is_failed`` reports as gone.  The one
access allowed onto such blocks is the rebuild's own chunk write onto
the spare, which starts at the watermark.
"""

from __future__ import annotations

from repro.disk.request import AccessKind
from repro.validate.checker import InvariantChecker

__all__ = ["FailedDiskChecker"]


class FailedDiskChecker(InvariantChecker):
    """Every disk access lands on a live block."""

    name = "failed-disk"

    def on_disk_submit(self, disk, request) -> None:
        for ai, ctrl in enumerate(self.ctx.controllers):
            di = getattr(ctrl, "failed_disk", None)
            if di is None or ctrl.disks[di] is not disk:
                continue
            if (
                ctrl.has_spare
                and request.kind is AccessKind.WRITE
                and request.start_block == ctrl.rebuilt_upto
            ):
                return  # the rebuild writing its next chunk
            for pb in range(request.start_block, request.end_block):
                if ctrl._is_failed(di, pb):
                    self.fail(
                        f"array {ai} disk {di}: {request.kind.name} of pblocks "
                        f"[{request.start_block}, {request.end_block}) reaches "
                        f"failed pblock {pb} (t={self.ctx.env.now:g})"
                    )
