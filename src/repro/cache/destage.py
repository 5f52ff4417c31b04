"""Destage planning: grouping dirty blocks into efficient disk writes.

"A background destage process groups consecutive blocks and writes them
back to disk in an asynchronous fashion... The destage process turns
small random synchronous writes into large sequential asynchronous
writes" (§3.4).  :func:`plan_destage_runs` snapshots the cache's dirty
blocks, maps them through the array layout, and coalesces physically
adjacent blocks into runs; the controller then issues the runs spread
progressively over the destage period at background priority.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.lru import BlockState, LRUCache
from repro.layout.common import Layout

__all__ = ["DestageRun", "plan_destage_runs"]


@dataclass
class DestageRun:
    """One contiguous destage write on one disk.

    ``lblocks`` are the logical blocks covered (physically consecutive);
    ``all_old_cached`` tells the controller whether the old contents of
    *every* block are in the cache — if so, a parity organization can
    write the data directly instead of a read-modify-write.
    """

    disk: int
    start: int
    lblocks: list[int] = field(default_factory=list)
    all_old_cached: bool = True

    @property
    def nblocks(self) -> int:
        return len(self.lblocks)

    @property
    def end(self) -> int:
        return self.start + self.nblocks


def plan_destage_runs(
    cache: LRUCache,
    layout: Layout,
    blocks: list[int] | None = None,
) -> list[DestageRun]:
    """Snapshot dirty blocks and coalesce them into per-disk runs.

    Blocks already being destaged are skipped.  The caller must invoke
    :meth:`LRUCache.begin_destage` on each planned block (done here) and
    :meth:`LRUCache.finish_destage` when its run's write completes.

    Parameters
    ----------
    blocks:
        Destage only these blocks (already-clean or in-flight entries are
        skipped); ``None`` plans every dirty block.
    """
    if blocks is None:
        dirty = cache.dirty_blocks()
    else:
        dirty = [
            b
            for b in blocks
            if (e := cache.get(b)) is not None
            and e.state is BlockState.DIRTY
            and not e.destaging
        ]
    if not dirty:
        return []

    placed = []
    for lblock in dirty:
        addr = layout.map_block(lblock)
        entry = cache.get(lblock)
        assert entry is not None
        placed.append((addr.disk, addr.block, lblock, entry.has_old))
    placed.sort()

    runs: list[DestageRun] = []
    for disk, pblock, lblock, has_old in placed:
        cache.begin_destage(lblock)
        if runs and runs[-1].disk == disk and runs[-1].end == pblock:
            runs[-1].lblocks.append(lblock)
            runs[-1].all_old_cached &= has_old
        else:
            runs.append(
                DestageRun(disk=disk, start=pblock, lblocks=[lblock], all_old_cached=has_old)
            )
    return runs
