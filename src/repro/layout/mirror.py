"""The Mirror organization: each data disk duplicated.

Logical disk ``d`` lives on the pair ``(2d, 2d + 1)``.  Writes go to both
members (response time is the max of the two); reads are directed by the
controller to whichever arm is nearest the target — the paper's
"shortest seek optimization" — so the layout exposes the pair structure.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.layout.common import Layout, PhysicalAddress, WriteGroup, WriteMode

__all__ = ["MirrorLayout"]


class MirrorLayout(Layout):
    """``N`` mirrored pairs (``2N`` physical disks).

    :meth:`map_block` returns the *primary* member of the pair; use
    :meth:`mirror_of` for the partner.  Read placement is a controller
    policy, not a layout property.
    """

    @property
    def ndisks(self) -> int:
        return 2 * self.n

    def _locate(self, lblock: int) -> tuple[int, int]:
        ldisk, block = divmod(lblock, self.blocks_per_disk)
        return 2 * ldisk, block

    def mirror_of(self, disk: int) -> int:
        """The other member of *disk*'s mirrored pair."""
        if not 0 <= disk < self.ndisks:
            raise ValueError(f"disk {disk} out of range")
        return disk ^ 1

    def pair_of(self, lblock: int) -> tuple[PhysicalAddress, PhysicalAddress]:
        """Both physical copies of a logical block."""
        primary = self.map_block(lblock)
        return primary, PhysicalAddress(self.mirror_of(primary.disk), primary.block)

    def reconstruction_sources(self, disk: int, pblock: int) -> list[PhysicalAddress]:
        return [PhysicalAddress(self.mirror_of(disk), pblock)]

    def logical_of(self, disk: int, pblock: int) -> Optional[int]:
        if not 0 <= disk < self.ndisks:
            raise ValueError(f"disk {disk} out of range")
        if not 0 <= pblock < self.blocks_per_disk:
            return None
        return (disk // 2) * self.blocks_per_disk + pblock

    def map_blocks(self, lblocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        lb = np.asarray(lblocks, dtype=np.int64)
        return 2 * (lb // self.blocks_per_disk), lb % self.blocks_per_disk

    def write_plan(self, lstart: int, nblocks: int) -> list[WriteGroup]:
        self._check_range(lstart, nblocks)
        runs = self._runs(range(lstart, lstart + nblocks))
        # The controller duplicates each run onto the mirror partner.
        return [WriteGroup(mode=WriteMode.PLAIN, data_runs=runs)]
