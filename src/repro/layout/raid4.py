"""RAID4: block striping with a dedicated parity disk (Figure 2).

All parity units live on the last disk of the array.  Without caching the
parity disk is a write bottleneck; the paper studies RAID4 only with the
controller cache buffering parity updates (Section 4.4), where the
dedicated disk becomes an advantage — parity writes never interfere with
data reads.
"""

from __future__ import annotations

import numpy as np

from repro.layout.striped import StripedParityLayout

__all__ = ["Raid4Layout"]


class Raid4Layout(StripedParityLayout):
    """Fixed-parity-disk striped layout over ``N + 1`` disks."""

    @property
    def has_parity(self) -> bool:
        return True

    @property
    def parity_disk(self) -> int:
        """The dedicated parity disk (always the last one)."""
        return self.n

    def parity_disk_of_row(self, row: int) -> int:
        return self.n

    def _parity_disks_of_rows(self, rows: np.ndarray) -> np.ndarray:
        return np.full(rows.shape, self.n, dtype=np.int64)
