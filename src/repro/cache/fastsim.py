"""Fast cache-only replay for hit-ratio studies (Figs. 11 and 15).

Hit ratios depend mostly on the reference stream and the cache policy,
so they can be measured with a synchronous LRU pass over the trace,
orders of magnitude faster than the full discrete-event simulation.
The replay does not reproduce the DES's cache decisions: a missed block
is resident from the request's arrival, not from the end of its disk
fetch, and a destage completes the instant it starts.  On Trace 2 at
scale 0.25 (preset seed, N=10, 8 MB, no warm-up) Base counts 967 read
hits here and 840 in the DES (7.8% vs 6.7%), and 1,233 vs 1,207 write
hits.  Over Base and RAID5 at 8 and 64 MB on that trace and on a
60-disk Trace-1 slice at scale 0.02, the replay's read hit ratio was
0.3-1.0 points and its write hit ratio 0.5-2.1 points above the DES's.

The model follows §3.4: one cache per array; multiblock accesses hit
only if all their blocks are resident; parity organizations retain old
copies of dirtied blocks; the periodic destage cleans dirty blocks and
releases old copies; RAID4 parity caching additionally holds pending
parity blocks in the cache between destage and spool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from repro.cache.lru import BlockState, LRUCache
from repro.layout.common import Layout
from repro.trace.record import Trace

__all__ = ["CacheHitStats", "simulate_hit_ratios"]

CacheMode = Literal["plain", "parity", "raid4pc"]


@dataclass(frozen=True)
class CacheHitStats:
    """Aggregate cache outcomes over all arrays of a run."""

    read_hits: int
    read_misses: int
    write_hits: int
    write_misses: int
    dirty_replacements: int
    destage_cycles: int
    #: Dirty blocks cleaned by the periodic destage (not counting the
    #: synchronous writebacks in ``dirty_replacements``).
    destaged_blocks: int = 0
    #: RAID4 parity-caching mode: parity blocks spooled to the dedicated
    #: parity disk (one per distinct buffered parity block per cycle).
    spooled_parity_blocks: int = 0

    @property
    def read_hit_ratio(self) -> float:
        total = self.read_hits + self.read_misses
        return self.read_hits / total if total else 0.0

    @property
    def write_hit_ratio(self) -> float:
        total = self.write_hits + self.write_misses
        return self.write_hits / total if total else 0.0


def _array_parts(trace: Trace, array_blocks: int):
    """Split requests at array boundaries, as ``ArraySystem.split`` does.

    Returns the columns ``(time, array, first block, end block,
    is_write)`` of the parts as lists, in trace order with each
    request's parts in address order; a request inside one array is one
    part.  The synthetic generator keeps requests inside a disk, but
    traces read from the paper's format may cross arrays.
    """
    records = trace.records
    start = records["lblock"]
    end = start + records["nblocks"]
    first = start // array_blocks
    nparts = (end - 1) // array_blocks - first + 1
    req = np.repeat(np.arange(len(records)), nparts)
    # Part j of a request lies in array first + j.
    array = first[req] + (np.arange(len(req)) - (np.cumsum(nparts) - nparts)[req])
    return (
        records["time"][req].tolist(),
        array.tolist(),
        np.maximum(start[req], array * array_blocks).tolist(),
        np.minimum(end[req], (array + 1) * array_blocks).tolist(),
        records["is_write"][req].tolist(),
    )


def simulate_hit_ratios(
    trace: Trace,
    n: int,
    cache_blocks: int,
    mode: CacheMode = "plain",
    destage_period_ms: float = 1000.0,
    layout: Layout | None = None,
) -> CacheHitStats:
    """Measure read/write hit ratios of the cached organizations.

    Parameters
    ----------
    trace:
        The workload (logical addresses).
    n:
        Array size ``N`` — the trace's logical disks are partitioned
        into arrays of ``N``, each with its own cache.
    cache_blocks:
        Cache capacity per array, in blocks.
    mode:
        ``plain`` (Base/Mirror — no old copies), ``parity``
        (RAID5/Parity Striping — old copies retained), or ``raid4pc``
        (parity organization plus buffered parity blocks; requires
        *layout* to locate parity blocks).
    destage_period_ms:
        Period of the background destage process.
    """
    if trace.ndisks % n:
        raise ValueError(f"trace's {trace.ndisks} disks not divisible by N={n}")
    if mode == "raid4pc" and layout is None:
        raise ValueError("raid4pc mode requires the array layout")
    track_old = mode in ("parity", "raid4pc")
    raid4pc = mode == "raid4pc"
    narrays = trace.ndisks // n
    array_blocks = n * trace.blocks_per_disk

    caches = [LRUCache(cache_blocks, track_old=track_old) for _ in range(narrays)]
    pending_parity: list[set[int]] = [set() for _ in range(narrays)]
    # Hits and misses are counted per *request* part: a multiblock
    # access hits only if all of its blocks are resident (§3.4).
    read_hits = read_misses = write_hits = write_misses = 0
    dirty_replacements = destage_cycles = destaged_blocks = spooled = 0
    next_destage = destage_period_ms
    clean = BlockState.CLEAN

    for t, a, first, end, is_write in zip(*_array_parts(trace, array_blocks)):
        while t >= next_destage:
            # Periodic destage: clean everything, release old copies,
            # swap the pending parity set (previous cycle's parity has
            # been spooled by now, this cycle's enters the cache).
            for arr, cache in enumerate(caches):
                # The previous cycle's buffered parity has been spooled
                # to the parity disk by now; release its slots first.
                pending = pending_parity[arr]
                if pending:
                    spooled += len(pending)
                    cache.release_slots(len(pending))
                    pending.clear()
                for b in cache.dirty_blocks(include_destaging=True):
                    destaged_blocks += 1
                    if raid4pc:
                        parity = layout.parity_of(b - arr * array_blocks).block
                        if parity not in pending and cache.reserve_slots(1):
                            pending.add(parity)
                    if not cache.get(b).destaging:
                        cache.begin_destage(b)
                    cache.finish_destage(b)
            destage_cycles += 1
            next_destage += destage_period_ms

        cache = caches[a]
        blocks = range(first, end)
        if is_write:
            for b in blocks:
                if b not in cache:
                    write_misses += 1
                    break
            else:
                write_hits += 1
            for b in blocks:
                entry = cache.get(b)
                if entry is None or (track_old and entry.state is clean):
                    dirty_replacements += cache.make_room(1)
                cache.write(b)
        elif cache.probe_read(blocks):
            read_hits += 1
        else:
            read_misses += 1
            for b in blocks:
                if b in cache:
                    cache.touch(b)
                else:
                    dirty_replacements += cache.make_room(1)
                    cache.insert_clean(b)

    return CacheHitStats(
        read_hits=read_hits,
        read_misses=read_misses,
        write_hits=write_hits,
        write_misses=write_misses,
        dirty_replacements=dirty_replacements,
        destage_cycles=destage_cycles,
        destaged_blocks=destaged_blocks,
        spooled_parity_blocks=spooled,
    )
