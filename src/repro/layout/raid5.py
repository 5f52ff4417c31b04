"""RAID5: block striping with rotated parity (Figure 1 of the paper).

The parity unit of row ``r`` is placed on disk ``r mod (N+1)``, so parity
traffic rotates over all disks and no single disk becomes a bottleneck —
the property that distinguishes RAID5 from RAID4.
"""

from __future__ import annotations

import numpy as np

from repro.layout.striped import StripedParityLayout

__all__ = ["Raid5Layout"]


class Raid5Layout(StripedParityLayout):
    """Rotated-parity striped layout over ``N + 1`` disks."""

    @property
    def has_parity(self) -> bool:
        return True

    def parity_disk_of_row(self, row: int) -> int:
        return row % (self.n + 1)

    def _parity_disks_of_rows(self, rows: np.ndarray) -> np.ndarray:
        return rows % (self.n + 1)
