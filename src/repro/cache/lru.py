"""LRU block cache with dirty and old-data accounting.

The cache stores logical 4 KB blocks.  Each resident block is CLEAN
(matches disk) or DIRTY (newer than disk).  In parity organizations a
block dirtied *in place* keeps a copy of its old contents ("the old data
are kept in the cache to save the extra rotation needed to read the old
data when writing the block back to disk", §3.4); the copy occupies one
extra cache slot until the block is destaged.  RAID4 parity caching
additionally reserves slots for buffered parity deltas via
:meth:`LRUCache.reserve_slots`.

Occupancy invariant::

    len(entries) + (# old copies) + reserved_slots <= capacity

The cache itself never blocks; controllers consult :meth:`free_slots`
and perform evictions/waits before inserting.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator, Optional

__all__ = ["BlockState", "CacheEntry", "LRUCache"]


class BlockState(enum.Enum):
    """Consistency state of a cached block."""

    CLEAN = "clean"
    DIRTY = "dirty"


@dataclass(slots=True)
class CacheEntry:
    """Per-block cache metadata."""

    state: BlockState
    #: True if the pre-modification contents are retained alongside
    #: (costs one extra slot until destage completes).
    has_old: bool = False
    #: True while a destage write for this block is in flight.
    destaging: bool = False
    #: Dirtied again after the in-flight destage snapshot was taken.
    redirtied: bool = False


class LRUCache:
    """LRU cache over logical block numbers.

    Parameters
    ----------
    capacity_blocks:
        Total slots (e.g. 16 MB / 4 KB = 4096).
    track_old:
        Retain old contents of blocks dirtied in place (parity
        organizations).
    """

    def __init__(self, capacity_blocks: int, track_old: bool = False) -> None:
        if capacity_blocks < 1:
            raise ValueError("capacity must be >= 1 block")
        self.capacity = capacity_blocks
        self.track_old = track_old
        self._entries: OrderedDict[int, CacheEntry] = OrderedDict()
        self._dirty: set[int] = set()
        self._old_copies = 0
        self._reserved = 0
        #: Probe slot: the system's probe bus while anything observes it
        #: (the ``cache_op`` tap of ``repro.obs.probes.TAPS``, after every
        #: mutation), else ``None``.
        self.probe = None
        # Statistics.  Hit/miss counters are maintained by the cache's
        # *owner* at request granularity (a multiblock access is one hit
        # or one miss, §3.4) — the per-block mutation methods below do
        # not touch them.
        self.read_hits = 0
        self.read_misses = 0
        self.write_hits = 0
        self.write_misses = 0
        self.evictions = 0
        self.dirty_evictions = 0

    # -- occupancy ------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, lblock: int) -> bool:
        return lblock in self._entries

    @property
    def occupancy(self) -> int:
        """Slots in use: blocks + old copies + reservations."""
        return len(self._entries) + self._old_copies + self._reserved

    @property
    def free_slots(self) -> int:
        return self.capacity - len(self._entries) - self._old_copies - self._reserved

    @property
    def old_copies(self) -> int:
        """Old-contents copies currently held."""
        return self._old_copies

    @property
    def reserved_slots(self) -> int:
        return self._reserved

    def reserve_slots(self, k: int = 1) -> bool:
        """Reserve *k* slots (parity deltas); False if they don't fit."""
        if k < 0:
            raise ValueError("k must be >= 0")
        if self.free_slots < k:
            return False
        self._reserved += k
        if self.probe is not None:
            self.probe.on_cache_op(self, "reserve", k)
        return True

    def release_slots(self, k: int = 1) -> None:
        """Release previously reserved slots."""
        if k < 0 or k > self._reserved:
            raise ValueError(f"cannot release {k} of {self._reserved} reserved slots")
        self._reserved -= k
        if self.probe is not None:
            self.probe.on_cache_op(self, "release", k)

    # -- lookups ---------------------------------------------------------------
    def get(self, lblock: int) -> Optional[CacheEntry]:
        """Entry for *lblock* without touching LRU order."""
        return self._entries.get(lblock)

    def touch(self, lblock: int) -> bool:
        """Move a resident block to MRU without counting a hit."""
        if lblock not in self._entries:
            return False
        self._entries.move_to_end(lblock)
        return True

    def probe_read(self, lblocks) -> bool:
        """Multi-block hit test: a hit only if *all* blocks are resident
        (the paper's rule for multiblock accesses); touches on hit."""
        entries = self._entries
        for b in lblocks:
            if b not in entries:
                return False
        for b in lblocks:
            entries.move_to_end(b)
        return True

    # -- mutation ----------------------------------------------------------------
    def insert_clean(self, lblock: int) -> None:
        """Insert a block fetched from disk.  Requires a free slot."""
        if lblock in self._entries:
            raise ValueError(f"block {lblock} already cached")
        if self.free_slots < 1:
            raise RuntimeError("no free slot; evict first")
        self._entries[lblock] = CacheEntry(BlockState.CLEAN)
        if self.probe is not None:
            self.probe.on_cache_op(self, "insert_clean", lblock)

    def write(self, lblock: int) -> bool:
        """Record a write to *lblock*; True on hit.

        On a hit to a CLEAN block the old contents are retained when
        ``track_old`` (one extra slot — the caller must have ensured
        room via :meth:`free_slots`).  On a miss the block is inserted
        DIRTY with no old copy (its old contents were never read).
        """
        entry = self._entries.get(lblock)
        if entry is not None:
            self._entries.move_to_end(lblock)
            if entry.state is BlockState.CLEAN:
                entry.state = BlockState.DIRTY
                self._dirty.add(lblock)
                if self.track_old:
                    if self.free_slots < 1:
                        raise RuntimeError("no slot for old copy; evict first")
                    entry.has_old = True
                    self._old_copies += 1
            elif entry.destaging:
                entry.redirtied = True
            if self.probe is not None:
                self.probe.on_cache_op(self, "write", lblock)
            return True
        if self.free_slots < 1:
            raise RuntimeError("no free slot; evict first")
        self._entries[lblock] = CacheEntry(BlockState.DIRTY)
        self._dirty.add(lblock)
        if self.probe is not None:
            self.probe.on_cache_op(self, "write", lblock)
        return False

    def lru_block(self) -> Optional[tuple[int, CacheEntry]]:
        """The block at the head of the LRU chain (eviction candidate)."""
        if not self._entries:
            return None
        lblock = next(iter(self._entries))
        return lblock, self._entries[lblock]

    def eviction_candidate(self) -> Optional[tuple[int, CacheEntry]]:
        """Oldest block with no destage in flight (may be dirty — the
        caller then performs a synchronous writeback before evicting)."""
        for lblock, entry in self._entries.items():
            if not entry.destaging:
                return lblock, entry
        return None

    def make_room(self, k: int) -> int:
        """Evict from the LRU head until *k* slots are free.

        A dirty head is written back on the spot (a synchronous
        writeback, the event periodic destage exists to avoid) through
        :meth:`begin_destage` and :meth:`finish_destage`, which also
        releases its old copy, and is then evicted.  Returns the number
        of such writebacks.  Raises ``RuntimeError`` when reservations
        hold more than ``capacity - k`` slots, leaving nothing to evict,
        or when the head was re-dirtied during an in-flight destage and
        so stays dirty.
        """
        entries = self._entries
        writebacks = 0
        while self.free_slots < k:
            if not entries:
                raise RuntimeError("cache capacity exhausted by reservations")
            lblock = next(iter(entries))
            entry = entries[lblock]
            if entry.state is BlockState.DIRTY:
                writebacks += 1
                if not entry.destaging:
                    self.begin_destage(lblock)
                self.finish_destage(lblock)
            self.evict(lblock)
        return writebacks

    def evict(self, lblock: int) -> None:
        """Remove a CLEAN, non-destaging block."""
        entry = self._entries.get(lblock)
        if entry is None:
            raise KeyError(lblock)
        if entry.state is not BlockState.CLEAN:
            raise RuntimeError(f"cannot evict dirty block {lblock}")
        if entry.destaging:
            raise RuntimeError(f"cannot evict block {lblock} mid-destage")
        if entry.has_old:  # pragma: no cover - clean blocks never hold old
            self._old_copies -= 1
        del self._entries[lblock]
        self.evictions += 1
        if self.probe is not None:
            self.probe.on_cache_op(self, "evict", lblock)

    # -- destage bookkeeping ---------------------------------------------------------
    def begin_destage(self, lblock: int) -> CacheEntry:
        """Mark a dirty block as having an in-flight destage write."""
        entry = self._entries[lblock]
        if entry.state is not BlockState.DIRTY:
            raise RuntimeError(f"block {lblock} is not dirty")
        if entry.destaging:
            raise RuntimeError(f"block {lblock} already destaging")
        entry.destaging = True
        entry.redirtied = False
        if self.probe is not None:
            self.probe.on_cache_op(self, "begin_destage", lblock)
        return entry

    def finish_destage(self, lblock: int) -> None:
        """Complete a destage: block becomes CLEAN unless re-dirtied;
        the old copy is dropped either way (disk now holds this version)."""
        entry = self._entries.get(lblock)
        if entry is None:  # pragma: no cover - defensive
            return
        entry.destaging = False
        if entry.has_old:
            entry.has_old = False
            self._old_copies -= 1
        if entry.redirtied:
            entry.redirtied = False
            if self.track_old:
                # The destaged version is now the on-disk ("old") version
                # of the still-dirty block; retaining it costs a slot only
                # if one is free — otherwise the destage of the new
                # version will re-read old data from disk.
                if self.free_slots >= 1:
                    entry.has_old = True
                    self._old_copies += 1
        else:
            entry.state = BlockState.CLEAN
            self._dirty.discard(lblock)
        if self.probe is not None:
            self.probe.on_cache_op(self, "finish_destage", lblock)

    def dirty_blocks(self, include_destaging: bool = False) -> list[int]:
        """Dirty block numbers (unordered; destage sorts physically)."""
        if include_destaging:
            return list(self._dirty)
        return [b for b in self._dirty if not self._entries[b].destaging]

    @property
    def dirty_count(self) -> int:
        """Number of dirty blocks (including in-flight destages)."""
        return len(self._dirty)

    def oldest_dirty(self, k: int) -> list[int]:
        """Up to *k* dirty, non-destaging blocks nearest the LRU head.

        Used by the decoupled destage policy, which writes back the
        blocks most at risk of being replaced while dirty.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        out: list[int] = []
        remaining = len(self._dirty)
        for lblock, entry in self._entries.items():
            if not remaining:
                break
            if entry.state is BlockState.DIRTY:
                remaining -= 1
                if not entry.destaging:
                    out.append(lblock)
                    if len(out) == k:
                        break
        return out

    def iter_blocks(self) -> Iterator[tuple[int, CacheEntry]]:
        """All resident blocks in LRU order."""
        return iter(self._entries.items())

    # -- ratios ----------------------------------------------------------------
    @property
    def read_hit_ratio(self) -> float:
        total = self.read_hits + self.read_misses
        return self.read_hits / total if total else 0.0

    @property
    def write_hit_ratio(self) -> float:
        total = self.write_hits + self.write_misses
        return self.write_hits / total if total else 0.0

    def __repr__(self) -> str:
        return (
            f"<LRUCache {self.occupancy}/{self.capacity} "
            f"(old={self._old_copies}, reserved={self._reserved})>"
        )
