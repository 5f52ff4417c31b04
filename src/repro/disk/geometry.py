"""Disk geometry: translating block addresses to physical positions.

Defaults reproduce Table 1 of the paper:

========================  =========
Rotation speed            5400 rpm
Average seek              11.2 ms
Maximal seek              28 ms
Tracks per platter        1260
Sectors per track         48
Bytes per sector          512
Number of platters        15
========================  =========

With 15 platters (30 recording surfaces) the capacity is
``1260 × 30 × 48 × 512 B ≈ 0.93 GB`` — the paper's "about 0.9 GByte".

Blocks (4 KB = 8 sectors by default) are laid out track-by-track within a
cylinder, then cylinder-by-cylinder, so logically consecutive blocks stay
physically adjacent (track switches inside a cylinder are treated as free,
an idealisation of track skew).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["BLOCK_BYTES", "DiskGeometry"]

#: Database block size in bytes (Table 4: 4 KB).
BLOCK_BYTES = 4096


@dataclass(frozen=True)
class DiskGeometry:
    """Physical disk parameters and address arithmetic.

    All times are in milliseconds.
    """

    cylinders: int = 1260
    surfaces: int = 30  # 15 platters, two heads each
    sectors_per_track: int = 48
    bytes_per_sector: int = 512
    rpm: float = 5400.0
    block_bytes: int = BLOCK_BYTES

    def __post_init__(self) -> None:
        if self.block_bytes % self.bytes_per_sector:
            raise ValueError("block size must be a whole number of sectors")
        if (self.sectors_per_track * self.bytes_per_sector) % self.block_bytes:
            raise ValueError("track capacity must be a whole number of blocks")
        for name in ("cylinders", "surfaces", "sectors_per_track", "bytes_per_sector"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.rpm <= 0:
            raise ValueError("rpm must be positive")

    # -- derived quantities -------------------------------------------------
    @property
    def sectors_per_block(self) -> int:
        """Sectors occupied by one block (8 for 4 KB / 512 B)."""
        return self.block_bytes // self.bytes_per_sector

    @property
    def blocks_per_track(self) -> int:
        """Whole blocks per track (6 for 48 sectors / 8-sector blocks)."""
        return self.sectors_per_track // self.sectors_per_block

    @property
    def blocks_per_cylinder(self) -> int:
        """Blocks per cylinder across all surfaces."""
        return self.blocks_per_track * self.surfaces

    @property
    def total_blocks(self) -> int:
        """Capacity of the disk in blocks."""
        return self.blocks_per_cylinder * self.cylinders

    @property
    def capacity_bytes(self) -> int:
        """Raw capacity in bytes."""
        return self.cylinders * self.surfaces * self.sectors_per_track * self.bytes_per_sector

    @property
    def revolution_time(self) -> float:
        """Time of one full revolution in ms (11.11 ms at 5400 rpm)."""
        return 60_000.0 / self.rpm

    @property
    def sector_time(self) -> float:
        """Time to pass over one sector in ms."""
        return self.revolution_time / self.sectors_per_track

    @property
    def block_transfer_time(self) -> float:
        """Time to read or write one block off the surface in ms."""
        return self.sector_time * self.sectors_per_block

    # -- address arithmetic ---------------------------------------------------
    def cylinder_of(self, block: int) -> int:
        """Cylinder holding *block*."""
        self._check_block(block)
        return block // self.blocks_per_cylinder

    def decompose(self, block: int) -> tuple[int, int, int]:
        """Return ``(cylinder, surface, block_in_track)`` of *block*."""
        self._check_block(block)
        cyl, rest = divmod(block, self.blocks_per_cylinder)
        surface, in_track = divmod(rest, self.blocks_per_track)
        return cyl, surface, in_track

    def compose(self, cylinder: int, surface: int, block_in_track: int) -> int:
        """Inverse of :meth:`decompose`."""
        if not 0 <= cylinder < self.cylinders:
            raise ValueError(f"cylinder {cylinder} out of range")
        if not 0 <= surface < self.surfaces:
            raise ValueError(f"surface {surface} out of range")
        if not 0 <= block_in_track < self.blocks_per_track:
            raise ValueError(f"block_in_track {block_in_track} out of range")
        return (cylinder * self.surfaces + surface) * self.blocks_per_track + block_in_track

    def start_sector_of(self, block: int) -> int:
        """First sector (within its track) occupied by *block*."""
        _, _, in_track = self.decompose(block)
        return in_track * self.sectors_per_block

    def start_angle_of(self, block: int) -> float:
        """Angular position in [0, 1) at which *block* begins on its track."""
        return self.start_sector_of(block) / self.sectors_per_track

    def transfer_time(self, nblocks: int) -> float:
        """Surface transfer time for ``nblocks`` consecutive blocks.

        Track and cylinder switches within the run are treated as free
        (ideal skew), so the transfer proceeds at the sustained rate.
        """
        if nblocks <= 0:
            raise ValueError("nblocks must be positive")
        return nblocks * self.block_transfer_time

    def _check_block(self, block: int) -> None:
        if not 0 <= block < self.total_blocks:
            raise ValueError(f"block {block} outside disk of {self.total_blocks} blocks")
