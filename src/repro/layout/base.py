"""The Base organization: independent disks, no striping, no redundancy.

Logical disk ``d`` maps one-to-one onto physical disk ``d``; block
offsets are preserved.  This is the paper's reference point for the
equal-capacity comparison.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.layout.common import Layout, WriteGroup, WriteMode

__all__ = ["BaseLayout"]


class BaseLayout(Layout):
    """``N`` independent data disks."""

    @property
    def ndisks(self) -> int:
        return self.n

    def _locate(self, lblock: int) -> tuple[int, int]:
        return divmod(lblock, self.blocks_per_disk)

    def logical_of(self, disk: int, pblock: int) -> Optional[int]:
        if not 0 <= disk < self.ndisks:
            raise ValueError(f"disk {disk} out of range")
        if not 0 <= pblock < self.blocks_per_disk:
            return None
        return disk * self.blocks_per_disk + pblock

    def map_blocks(self, lblocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        lb = np.asarray(lblocks, dtype=np.int64)
        return lb // self.blocks_per_disk, lb % self.blocks_per_disk

    def write_plan(self, lstart: int, nblocks: int) -> list[WriteGroup]:
        self._check_range(lstart, nblocks)
        runs = self._runs(range(lstart, lstart + nblocks))
        return [WriteGroup(mode=WriteMode.PLAIN, data_runs=runs)]
