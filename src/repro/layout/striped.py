"""Common machinery for block-striped parity layouts (RAID5 / RAID4).

Data is interleaved in *striping units* of ``su`` blocks.  A *row* is one
striping unit from each of the ``N`` data positions plus one parity unit;
row ``r`` occupies physical blocks ``[r*su, (r+1)*su)`` on every disk of
the array and logical blocks ``[r*N*su, (r+1)*N*su)`` — so full rows are
contiguous in the logical space, which is what makes full-stripe writes
detectable.

The only difference between RAID5 and RAID4 is where the parity unit of
row ``r`` lives: rotated (``r mod (N+1)``) vs fixed (the last disk).
"""

from __future__ import annotations

from abc import abstractmethod
from itertools import chain
from typing import Optional

import numpy as np

from repro.layout.common import (
    Layout,
    PhysicalAddress,
    Run,
    WriteGroup,
    WriteMode,
)

__all__ = ["StripedParityLayout"]

#: Stripe-coverage fraction at or above which a write reconstructs the
#: parity from the rest of the row instead of read-modify-writing it
#: (the paper: read-modify-write for "less than half a stripe").
RMW_THRESHOLD = 0.5


class StripedParityLayout(Layout):
    """Block-striped layout over ``N + 1`` disks with one parity unit per row."""

    def __init__(self, n: int, blocks_per_disk: int, striping_unit: int = 1) -> None:
        super().__init__(n, blocks_per_disk)
        if striping_unit < 1:
            raise ValueError("striping unit must be >= 1 block")
        if blocks_per_disk % striping_unit:
            raise ValueError(
                f"striping unit {striping_unit} must divide "
                f"blocks_per_disk {blocks_per_disk}"
            )
        self.striping_unit = striping_unit

    # -- parity placement policy ------------------------------------------------
    @abstractmethod
    def parity_disk_of_row(self, row: int) -> int:
        """Disk holding the parity unit of *row*."""

    def data_disk_of(self, row: int, j: int) -> int:
        """Disk holding the *j*-th data unit of *row* (skips the parity disk)."""
        p = self.parity_disk_of_row(row)
        return j if j < p else j + 1

    def data_index_of(self, row: int, disk: int) -> Optional[int]:
        """Inverse of :meth:`data_disk_of`; None if *disk* holds parity."""
        p = self.parity_disk_of_row(row)
        if disk == p:
            return None
        return disk if disk < p else disk - 1

    # -- shape ---------------------------------------------------------------
    @property
    def ndisks(self) -> int:
        return self.n + 1

    @property
    def row_blocks(self) -> int:
        """Logical blocks per row (``N * striping_unit``)."""
        return self.n * self.striping_unit

    @property
    def rows(self) -> int:
        """Rows per disk."""
        return self.blocks_per_disk // self.striping_unit

    # -- mapping ---------------------------------------------------------------
    def _locate(self, lblock: int) -> tuple[int, int]:
        su = self.striping_unit
        unit, offset = divmod(lblock, su)
        row, j = divmod(unit, self.n)
        # data_disk_of(row, j), inlined: this runs once per block.
        p = self.parity_disk_of_row(row)
        return (j if j < p else j + 1), row * su + offset

    def parity_of(self, lblock: int) -> Optional[PhysicalAddress]:
        self._check_range(lblock, 1)
        su = self.striping_unit
        unit, offset = divmod(lblock, su)
        row = unit // self.n
        return PhysicalAddress(self.parity_disk_of_row(row), row * su + offset)

    def reconstruction_sources(self, disk: int, pblock: int) -> list[PhysicalAddress]:
        # A row's data and parity sit at the same physical block on each
        # of the N+1 disks: the sources are simply every other disk.
        return [PhysicalAddress(d, pblock) for d in range(self.ndisks) if d != disk]

    def logical_of(self, disk: int, pblock: int) -> Optional[int]:
        if not 0 <= disk < self.ndisks:
            raise ValueError(f"disk {disk} out of range")
        if not 0 <= pblock < self.blocks_per_disk:
            return None
        su = self.striping_unit
        row, offset = divmod(pblock, su)
        j = self.data_index_of(row, disk)
        if j is None:
            return None
        return (row * self.n + j) * su + offset

    def map_blocks(self, lblocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        lb = np.asarray(lblocks, dtype=np.int64)
        su = self.striping_unit
        unit, offset = np.divmod(lb, su)
        row, j = np.divmod(unit, self.n)
        p = self._parity_disks_of_rows(row)
        disks = np.where(j < p, j, j + 1)
        return disks, row * su + offset

    def map_parity(self, lblocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`parity_of`; returns ``(disks, pblocks)``."""
        lb = np.asarray(lblocks, dtype=np.int64)
        su = self.striping_unit
        unit, offset = np.divmod(lb, su)
        row = unit // self.n
        return self._parity_disks_of_rows(row), row * su + offset

    def _parity_disks_of_rows(self, rows: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`parity_disk_of_row` (overridable)."""
        return np.fromiter(
            (self.parity_disk_of_row(int(r)) for r in rows.ravel()),
            dtype=np.int64,
            count=rows.size,
        ).reshape(rows.shape)

    # -- write planning -----------------------------------------------------------
    def write_plan(self, lstart: int, nblocks: int) -> list[WriteGroup]:
        self._check_range(lstart, nblocks)
        su = self.striping_unit
        row_blocks = self.row_blocks
        end = lstart + nblocks
        groups: list[WriteGroup] = []

        for row in range(lstart // row_blocks, (end - 1) // row_blocks + 1):
            row_lo = row * row_blocks
            row_hi = row_lo + row_blocks
            a, b = max(lstart, row_lo), min(end, row_hi)
            covered = b - a
            data_runs = self._runs(range(a, b))
            p_disk = self.parity_disk_of_row(row)

            if covered == row_blocks:
                # Full-stripe write: fresh parity, no reads.
                parity = [Run(p_disk, row * su, su)]
                groups.append(
                    WriteGroup(WriteMode.FULL, data_runs=data_runs, parity_runs=parity)
                )
                continue

            # Offsets-within-unit touched by the write determine which
            # parity blocks change.  The union is approximated by its
            # contiguous hull (exact for the single-unit accesses that
            # dominate OLTP workloads): [a % su, a % su + covered), or
            # the whole unit when the offsets wrap past its end.
            lo = a % su
            hi = lo + covered
            if hi > su:
                lo, hi = 0, su
            parity = [Run(p_disk, row * su + lo, hi - lo)]

            if covered / row_blocks >= RMW_THRESHOLD:
                # Reconstruct-write: read the rest of the row.
                read_runs = self._runs(chain(range(row_lo, a), range(b, row_hi)))
                groups.append(
                    WriteGroup(
                        WriteMode.RECONSTRUCT,
                        data_runs=data_runs,
                        read_runs=read_runs,
                        parity_runs=parity,
                    )
                )
            else:
                groups.append(
                    WriteGroup(WriteMode.RMW, data_runs=data_runs, parity_runs=parity)
                )
        return groups
