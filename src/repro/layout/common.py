"""Shared layout abstractions.

The array's logical block space is ``[0, N * blocks_per_disk)`` — the
capacity of ``N`` independent data disks, the paper's equal-capacity
comparison unit.  Concrete layouts place those blocks (plus redundancy)
on the array's physical disks.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = ["PhysicalAddress", "Run", "WriteMode", "WriteGroup", "Layout", "merge_runs"]


@dataclass(frozen=True)
class PhysicalAddress:
    """A physical block location: disk index within the array + block."""

    disk: int
    block: int


@dataclass(frozen=True)
class Run:
    """A contiguous range of physical blocks on one disk."""

    disk: int
    start: int
    nblocks: int

    def __post_init__(self) -> None:
        if self.nblocks <= 0:
            raise ValueError("run must contain at least one block")
        if self.start < 0 or self.disk < 0:
            raise ValueError("negative address")

    @property
    def end(self) -> int:
        """One past the last block."""
        return self.start + self.nblocks


class WriteMode(enum.Enum):
    """How a write group updates redundancy."""

    #: No redundancy involved (Base) or handled by duplication (Mirror).
    PLAIN = "plain"
    #: Read-modify-write: read old data + old parity, write new data + parity.
    RMW = "rmw"
    #: Reconstruct-write: read the *other* units of the stripe, write data
    #: and freshly computed parity.
    RECONSTRUCT = "reconstruct"
    #: Full-stripe write: write everything, no reads at all.
    FULL = "full"


@dataclass
class WriteGroup:
    """One self-contained unit of a write plan.

    ``data_runs`` are always written.  Under ``RMW`` the data disks use a
    combined read-rotate-write access (the read supplies the old data for
    the parity delta).  Under ``RECONSTRUCT`` the ``read_runs`` (other
    stripe units) are read first.  ``parity_runs`` are written with a
    dependency on the group's reads.
    """

    mode: WriteMode
    data_runs: list[Run] = field(default_factory=list)
    read_runs: list[Run] = field(default_factory=list)
    parity_runs: list[Run] = field(default_factory=list)


def merge_runs(addresses: list[PhysicalAddress]) -> list[Run]:
    """Coalesce per-block addresses into maximal contiguous runs.

    Input order is preserved for run starts; consecutive addresses on the
    same disk with adjacent block numbers merge into a single run.
    """
    runs: list[Run] = []
    for addr in addresses:
        if runs and runs[-1].disk == addr.disk and runs[-1].end == addr.block:
            last = runs[-1]
            runs[-1] = Run(last.disk, last.start, last.nblocks + 1)
        else:
            runs.append(Run(addr.disk, addr.block, 1))
    return runs


class Layout(ABC):
    """Maps logical array blocks to physical disk blocks.

    A concrete layout implements one mapping method, :meth:`_locate`
    (logical block to ``(disk, block)``, unchecked).  :meth:`map_block`
    adds the range check and the :class:`PhysicalAddress`;
    :meth:`_runs` coalesces the mapping of a whole request into
    :class:`Run` s and is what :meth:`read_runs`, :meth:`runs_of` and the
    write planners use, so a request is range-checked once, not once per
    block.

    Parameters
    ----------
    n:
        Number of data-disk equivalents (the paper's ``N``).
    blocks_per_disk:
        Size of one logical disk in blocks (the active database slice each
        data disk holds; must fit the physical disk).
    """

    def __init__(self, n: int, blocks_per_disk: int) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        if blocks_per_disk < 1:
            raise ValueError("blocks_per_disk must be >= 1")
        self.n = n
        self.blocks_per_disk = blocks_per_disk
        self._capacity = n * blocks_per_disk

    # -- shape ---------------------------------------------------------------
    @property
    @abstractmethod
    def ndisks(self) -> int:
        """Physical disks in the array."""

    @property
    def logical_blocks(self) -> int:
        """Capacity of the array in logical blocks."""
        return self._capacity

    @property
    def has_parity(self) -> bool:
        """True for layouts that maintain parity."""
        return False

    # -- per-block mapping -----------------------------------------------------
    @abstractmethod
    def _locate(self, lblock: int) -> tuple[int, int]:
        """``(disk, block)`` of logical block *lblock*; no range check."""

    def map_block(self, lblock: int) -> PhysicalAddress:
        """Physical location of logical block *lblock*."""
        self._check_range(lblock, 1)
        return PhysicalAddress(*self._locate(lblock))

    def parity_of(self, lblock: int) -> Optional[PhysicalAddress]:
        """Location of the parity protecting *lblock* (None if no parity)."""
        return None

    def reconstruction_sources(self, disk: int, pblock: int) -> list[PhysicalAddress]:
        """The other blocks whose XOR reconstructs ``(disk, pblock)``.

        Covers data and parity blocks alike; empty when the layout keeps
        no redundancy.
        """
        return []

    @abstractmethod
    def logical_of(self, disk: int, pblock: int) -> Optional[int]:
        """Inverse mapping; ``None`` for parity/unused blocks."""

    def is_parity_block(self, disk: int, pblock: int) -> bool:
        """True if the physical block holds parity."""
        return self.has_parity and self.logical_of(disk, pblock) is None

    # -- vectorised mapping (for trace analytics, e.g. Figs. 6 and 7) -------
    def map_blocks(self, lblocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`map_block`; returns ``(disks, pblocks)``."""
        lb = np.asarray(lblocks, dtype=np.int64)
        disks = np.empty(lb.shape, dtype=np.int64)
        pblocks = np.empty(lb.shape, dtype=np.int64)
        for i, b in enumerate(lb.ravel()):
            addr = self.map_block(int(b))
            disks.ravel()[i] = addr.disk
            pblocks.ravel()[i] = addr.block
        return disks, pblocks

    # -- request planning -------------------------------------------------------
    def read_runs(self, lstart: int, nblocks: int) -> list[Run]:
        """Physical runs servicing a logical read ``[lstart, lstart+n)``."""
        self._check_range(lstart, nblocks)
        return self._runs(range(lstart, lstart + nblocks))

    def runs_of(self, lblocks: list[int]) -> list[Run]:
        """Physical runs of the logical blocks *lblocks*, in their order.

        ``merge_runs([map_block(b) for b in lblocks])`` with one range
        check for the whole list; a cached read plans the blocks it
        missed this way.  Run ``i`` covers the next ``runs[i].nblocks``
        entries of *lblocks*.
        """
        if not lblocks:
            return []
        lo, hi = min(lblocks), max(lblocks)
        self._check_range(lo, hi - lo + 1)
        return self._runs(lblocks)

    @abstractmethod
    def write_plan(self, lstart: int, nblocks: int) -> list[WriteGroup]:
        """Plan a logical write as one or more :class:`WriteGroup` s."""

    def _runs(self, lblocks) -> list[Run]:
        """``merge_runs([map_block(b) for b in lblocks])``, unchecked.

        Merges exactly as :func:`merge_runs` does but builds one
        :class:`Run` per output run instead of an address and a run per
        block.  The caller range-checks the request.
        """
        locate = self._locate
        runs: list[Run] = []
        disk = start = end = -1
        for b in lblocks:
            d, block = locate(b)
            if d == disk and block == end:
                end += 1
                continue
            if end > start:
                runs.append(Run(disk, start, end - start))
            disk, start, end = d, block, block + 1
        if end > start:
            runs.append(Run(disk, start, end - start))
        return runs

    def _check_range(self, lstart: int, nblocks: int) -> None:
        if nblocks < 1:
            raise ValueError("nblocks must be >= 1")
        if lstart < 0 or lstart + nblocks > self._capacity:
            raise ValueError(
                f"logical range [{lstart}, {lstart + nblocks}) outside "
                f"capacity {self._capacity}"
            )
