"""RAID4 parity caching: buffered parity deltas spooled with SCAN.

§3.4: "when a write is performed, the parity is computed and written to
the cache instead of writing it directly to the parity disk.  The parity
blocks are sorted by cylinder number and spooled to the parity disk
using the SCAN policy.  In the case of single block accesses, what is
kept in the cache is not the actual parity but the xor of the old and
new data... In the case of full stripe writes, the actual parity is
computed and held in the cache and then written to the parity disk
without reading the old parity."

Deltas occupy cache slots (reserved through the shared
:class:`~repro.cache.lru.LRUCache`); when the cache is full, the caller
must wait for a slot — the back-pressure path the paper analyses in
§4.4.3.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Optional

from repro.cache.lru import LRUCache

__all__ = ["ParityDelta", "ParityCacheQueue"]


@dataclass
class ParityDelta:
    """A pending update to one parity block on the dedicated disk.

    ``full`` means the actual parity is cached (full-stripe write) and
    can be written without reading the old parity; otherwise the cache
    holds an XOR delta and the spooler must read-modify-write.
    """

    pblock: int
    full: bool = False


class ParityCacheQueue:
    """Pending parity updates for a RAID4 array, kept in SCAN order.

    Parameters
    ----------
    cache:
        The array's NV cache; each distinct pending parity block reserves
        one slot.
    """

    def __init__(self, cache: LRUCache) -> None:
        self.cache = cache
        self._by_block: dict[int, ParityDelta] = {}
        self._sorted: list[int] = []
        self.merged = 0
        self.rejected = 0

    def __len__(self) -> int:
        return len(self._by_block)

    def __contains__(self, pblock: int) -> bool:
        return pblock in self._by_block

    def add(self, pblock: int, full: bool = False) -> bool:
        """Buffer a parity update; False if the cache has no free slot.

        Updates to an already-pending parity block merge (XOR of deltas,
        or replacement by a full parity) without consuming a new slot.
        """
        existing = self._by_block.get(pblock)
        if existing is not None:
            existing.full = existing.full or full
            self.merged += 1
            return True
        if not self.cache.reserve_slots(1):
            self.rejected += 1
            return False
        delta = ParityDelta(pblock, full)
        self._by_block[pblock] = delta
        bisect.insort(self._sorted, pblock)
        return True

    def pop_scan(self, position: int, ascending: bool) -> Optional[tuple[ParityDelta, bool]]:
        """Next delta in SCAN order from *position*.

        Returns ``(delta, new_direction)`` — the elevator continues in
        its direction until no blocks remain ahead, then reverses.  The
        delta's cache slot stays reserved; the spooler releases it (via
        :meth:`LRUCache.release_slots`) once the parity write completes.
        """
        if not self._sorted:
            return None
        if ascending:
            i = bisect.bisect_left(self._sorted, position)
            if i == len(self._sorted):
                ascending = False
                i = len(self._sorted) - 1
        else:
            i = bisect.bisect_right(self._sorted, position) - 1
            if i < 0:
                ascending = True
                i = 0
        pblock = self._sorted.pop(i)
        delta = self._by_block.pop(pblock)
        return delta, ascending

    def pop_scan_run(
        self, position: int, ascending: bool, max_blocks: int = 16
    ) -> Optional[tuple[list[ParityDelta], bool]]:
        """Pop a *contiguous* run of deltas in SCAN order.

        Starting from the SCAN-selected delta, physically adjacent pending
        deltas with the same ``full`` flag are batched so the spooler can
        write them in one disk access.  Slots stay reserved until the
        caller releases them.
        """
        first = self.pop_scan(position, ascending)
        if first is None:
            return None
        delta, direction = first
        run = [delta]
        while len(run) < max_blocks:
            nxt = self._by_block.get(run[-1].pblock + 1)
            if nxt is None or nxt.full != delta.full:
                break
            i = bisect.bisect_left(self._sorted, nxt.pblock)
            del self._sorted[i]
            del self._by_block[nxt.pblock]
            run.append(nxt)
        return run, direction
