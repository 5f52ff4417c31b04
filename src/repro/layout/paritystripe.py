"""Parity Striping (Gray, Horst & Walker; Figure 3 of the paper).

Data is written *sequentially* on each disk — no interleaving — so the
seek affinity of the workload is preserved.  Each of the ``N + 1`` disks
is divided into ``N + 1`` equal areas: one parity area and ``N`` data
areas.  The parity group ``g`` collects one data area from each disk
other than ``g`` and stores their XOR in disk ``g``'s parity area.

Group assignment: data area ``k`` of disk ``i`` belongs to group
``(i + 1 + k) mod (N + 1)`` — a Latin-square diagonal that gives every
disk exactly one area of every group it participates in, and never
places a disk's parity over its own data.

The placement of the parity area on the platter is a studied parameter
(§4.2.3): ``MIDDLE`` puts it on the centre cylinders (Gray et al.'s
recommendation), ``END`` at the outer edge — better when the parity area
is rarely accessed relative to data (the paper's ``w > 1/N`` rule).
"""

from __future__ import annotations

import enum
from typing import Optional

import numpy as np

from repro.layout.common import (
    Layout,
    PhysicalAddress,
    Run,
    WriteGroup,
    WriteMode,
)

__all__ = ["ParityStripingLayout", "ParityPlacement"]


class ParityPlacement(enum.Enum):
    """Where the parity area sits on each disk."""

    MIDDLE = "middle"
    END = "end"


class ParityStripingLayout(Layout):
    """Sequential data with one parity area per disk (``N + 1`` disks)."""

    def __init__(
        self,
        n: int,
        blocks_per_disk: int,
        placement: ParityPlacement = ParityPlacement.MIDDLE,
        parity_grain: Optional[int] = None,
    ) -> None:
        super().__init__(n, blocks_per_disk)
        if blocks_per_disk % (n + 1):
            raise ValueError(
                f"blocks_per_disk {blocks_per_disk} must be divisible by N+1 = {n + 1}"
            )
        self.placement = placement
        area = blocks_per_disk // (n + 1)
        if parity_grain is not None:
            if parity_grain < 1 or area % parity_grain:
                raise ValueError(
                    f"parity grain {parity_grain} must divide the area size {area}"
                )
        #: The paper's suggested extension ("use a finer grain in
        #: striping the parity so that the parity update load is more
        #: balanced"): group membership rotates every ``parity_grain``
        #: blocks of area offset, spreading each disk's parity-update
        #: load over all N+1 disks while data stays fully sequential.
        #: ``None`` is classic parity striping (one group per area).
        self.parity_grain = parity_grain

    @property
    def has_parity(self) -> bool:
        return True

    @property
    def ndisks(self) -> int:
        return self.n + 1

    @property
    def area_blocks(self) -> int:
        """Size of one area (data or parity) in blocks."""
        return self.blocks_per_disk // (self.n + 1)

    @property
    def data_blocks_per_disk(self) -> int:
        """Data capacity of each physical disk."""
        return self.n * self.area_blocks

    @property
    def parity_area_index(self) -> int:
        """Physical area index of the parity area on every disk."""
        if self.placement is ParityPlacement.MIDDLE:
            return (self.n + 1) // 2
        return self.n

    # -- area arithmetic --------------------------------------------------------
    def _physical_area(self, k: int) -> int:
        """Physical area index of data area *k* (skipping the parity area)."""
        p = self.parity_area_index
        return k if k < p else k + 1

    def _data_area(self, physical_area: int) -> Optional[int]:
        """Data area index of a physical area; None for the parity area."""
        p = self.parity_area_index
        if physical_area == p:
            return None
        return physical_area if physical_area < p else physical_area - 1

    def _grain_chunk(self, offset: int) -> int:
        """Rotation index of an area offset (0 for classic striping)."""
        if self.parity_grain is None:
            return 0
        return offset // self.parity_grain

    def group_of(self, disk: int, data_area: int, offset: int = 0) -> int:
        """Parity group of ``(disk, data_area)`` at area ``offset``.

        With a parity grain, membership rotates with the offset chunk so
        the parity load spreads over all disks; without one the group is
        a pure function of the area (Gray et al.'s original scheme).
        """
        if not 0 <= disk < self.ndisks:
            raise ValueError(f"disk {disk} out of range")
        if not 0 <= data_area < self.n:
            raise ValueError(f"data area {data_area} out of range")
        j = (data_area + self._grain_chunk(offset)) % self.n
        return (disk + 1 + j) % (self.n + 1)

    def members_of_group(self, group: int, offset: int = 0) -> list[tuple[int, int]]:
        """All ``(disk, data_area)`` pairs whose parity at area offset
        ``offset`` lives on disk ``group``."""
        if not 0 <= group < self.ndisks:
            raise ValueError(f"group {group} out of range")
        c = self._grain_chunk(offset)
        members = []
        for disk in range(self.ndisks):
            if disk == group:
                continue
            j = (group - disk - 1) % (self.n + 1)
            assert 0 <= j < self.n
            k = (j - c) % self.n
            members.append((disk, k))
        return members

    # -- mapping ---------------------------------------------------------------
    def _decompose(self, lblock: int) -> tuple[int, int, int]:
        """Return ``(disk, data_area, offset)`` of a logical block."""
        disk, q = divmod(lblock, self.data_blocks_per_disk)
        k, off = divmod(q, self.area_blocks)
        return disk, k, off

    def map_block(self, lblock: int) -> PhysicalAddress:
        self._check_range(lblock, 1)
        disk, k, off = self._decompose(lblock)
        return PhysicalAddress(disk, self._physical_area(k) * self.area_blocks + off)

    def parity_of(self, lblock: int) -> Optional[PhysicalAddress]:
        self._check_range(lblock, 1)
        disk, k, off = self._decompose(lblock)
        g = self.group_of(disk, k, off)
        return PhysicalAddress(g, self.parity_area_index * self.area_blocks + off)

    def logical_of(self, disk: int, pblock: int) -> Optional[int]:
        if not 0 <= disk < self.ndisks:
            raise ValueError(f"disk {disk} out of range")
        if not 0 <= pblock < self.blocks_per_disk:
            return None
        area, off = divmod(pblock, self.area_blocks)
        k = self._data_area(area)
        if k is None:
            return None
        return disk * self.data_blocks_per_disk + k * self.area_blocks + off

    def map_blocks(self, lblocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        lb = np.asarray(lblocks, dtype=np.int64)
        disks, q = np.divmod(lb, self.data_blocks_per_disk)
        k, off = np.divmod(q, self.area_blocks)
        p = self.parity_area_index
        phys_area = np.where(k < p, k, k + 1)
        return disks, phys_area * self.area_blocks + off

    # -- write planning -----------------------------------------------------------
    def write_plan(self, lstart: int, nblocks: int, rmw_threshold: float = 0.5) -> list[WriteGroup]:
        """One RMW group per (disk, data-area) span the write touches.

        Parity areas are ``blocks_per_disk / (N+1)`` blocks — thousands of
        blocks — so OLTP-sized writes never approach a full parity group;
        read-modify-write is always the right update mode.
        """
        self._check_range(lstart, nblocks)
        groups: list[WriteGroup] = []
        pos, end = lstart, lstart + nblocks
        parity_base = self.parity_area_index * self.area_blocks
        while pos < end:
            disk, k, off = self._decompose(pos)
            span = min(end - pos, self.area_blocks - off)
            if self.parity_grain is not None:
                # Group membership changes at grain boundaries.
                span = min(span, self.parity_grain - off % self.parity_grain)
            data = Run(disk, self._physical_area(k) * self.area_blocks + off, span)
            parity = Run(self.group_of(disk, k, off), parity_base + off, span)
            groups.append(
                WriteGroup(WriteMode.RMW, data_runs=[data], parity_runs=[parity])
            )
            pos += span
        return groups
