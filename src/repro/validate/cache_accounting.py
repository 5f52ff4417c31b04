"""Cache accounting: the NV cache's books must balance.

A *shadow cache* replays every mutation the real
:class:`~repro.cache.lru.LRUCache` reports through its probe
(insertions, writes, evictions, destage begin/finish, slot
reservations) against an independent model of the §3.4 semantics, and
the occupancy invariant ::

    residents + old copies + reserved slots <= capacity

is asserted after every operation.  At finalize the shadow state must
match the real cache exactly (residency, dirty set, old-copy and
reservation counts), hit/miss counters must reconcile with the number
of requests the controller admitted, and the per-array counters
harvested into :class:`~repro.sim.results.RunResult` must equal the
live objects they were copied from.
"""

from __future__ import annotations

from repro.cache.lru import BlockState
from repro.validate.checker import CheckContext, InvariantChecker

__all__ = ["CacheAccountingChecker"]


class _ShadowEntry:
    __slots__ = ("dirty", "has_old", "destaging", "redirtied")

    def __init__(self) -> None:
        self.dirty = False
        self.has_old = False
        self.destaging = False
        self.redirtied = False


class _ShadowCache:
    """Independent replay of the LRU cache's state machine."""

    def __init__(self, cache) -> None:
        self.capacity = cache.capacity
        self.track_old = cache.track_old
        self.entries: dict[int, _ShadowEntry] = {}
        self.old_copies = 0
        self.reserved = 0

    @property
    def occupancy(self) -> int:
        return len(self.entries) + self.old_copies + self.reserved

    @property
    def free_slots(self) -> int:
        return self.capacity - self.occupancy

    def apply(self, op: str, arg: int) -> str | None:
        """Apply one mutation; returns an error string on a bad transition."""
        if op == "reserve":
            if self.free_slots < arg:
                return f"reserved {arg} slot(s) with only {self.free_slots} free"
            self.reserved += arg
        elif op == "release":
            if arg > self.reserved:
                return f"released {arg} of {self.reserved} reserved slot(s)"
            self.reserved -= arg
        elif op == "insert_clean":
            if arg in self.entries:
                return f"insert_clean of resident block {arg}"
            if self.free_slots < 1:
                return f"insert_clean of block {arg} with no free slot"
            self.entries[arg] = _ShadowEntry()
        elif op == "write":
            entry = self.entries.get(arg)
            if entry is None:
                if self.free_slots < 1:
                    return f"write-miss insert of block {arg} with no free slot"
                entry = _ShadowEntry()
                entry.dirty = True
                self.entries[arg] = entry
            elif not entry.dirty:
                entry.dirty = True
                if self.track_old:
                    if self.free_slots < 1:
                        return f"old copy of block {arg} retained with no free slot"
                    entry.has_old = True
                    self.old_copies += 1
            elif entry.destaging:
                entry.redirtied = True
        elif op == "evict":
            entry = self.entries.pop(arg, None)
            if entry is None:
                return f"evicted non-resident block {arg}"
            if entry.dirty:
                return f"evicted dirty block {arg}"
            if entry.destaging:
                return f"evicted block {arg} mid-destage"
        elif op == "begin_destage":
            entry = self.entries.get(arg)
            if entry is None or not entry.dirty:
                return f"begin_destage of non-dirty block {arg}"
            if entry.destaging:
                return f"begin_destage of block {arg} already destaging"
            entry.destaging = True
            entry.redirtied = False
        elif op == "finish_destage":
            entry = self.entries.get(arg)
            if entry is None:
                return None  # defensive no-op, mirrors the real cache
            entry.destaging = False
            if entry.has_old:
                entry.has_old = False
                self.old_copies -= 1
            if entry.redirtied:
                entry.redirtied = False
                if self.track_old and self.free_slots >= 1:
                    entry.has_old = True
                    self.old_copies += 1
            else:
                entry.dirty = False
        else:
            return f"unknown cache operation {op!r}"
        return None


class CacheAccountingChecker(InvariantChecker):
    """Hits, misses, occupancy and destage counters must reconcile."""

    name = "cache-accounting"

    def attach(self, ctx: CheckContext) -> None:
        self._shadows: dict[int, _ShadowCache] = {}
        self._cache_to_array: dict[int, int] = {}
        self._reads: dict[int, int] = {}
        self._writes: dict[int, int] = {}
        self._destaged: dict[int, int] = {}
        for ai, ctrl in enumerate(ctx.controllers):
            cache = getattr(ctrl, "cache", None)
            if cache is not None:
                self._shadows[ai] = _ShadowCache(cache)
                self._cache_to_array[id(cache)] = ai

    def on_cache_op(self, cache, op: str, arg: int) -> None:
        ai = self._cache_to_array.get(id(cache))
        if ai is None:
            return
        error = self._shadows[ai].apply(op, arg)
        if error is not None:
            self.fail(f"array {ai}: {error} (t={self.ctx.env.now:g})")
        if cache.occupancy > cache.capacity or cache.free_slots < 0:
            self.fail(
                f"array {ai}: occupancy {cache.occupancy} exceeds capacity "
                f"{cache.capacity} after {op!r} (t={self.ctx.env.now:g})"
            )

    def on_handle(self, controller, lstart, nblocks, is_write) -> None:
        if getattr(controller, "cache", None) is None:
            return
        ai = self.ctx.array_of(controller)
        counts = self._writes if is_write else self._reads
        counts[ai] = counts.get(ai, 0) + 1

    def on_destage(self, controller, run) -> None:
        ai = self.ctx.array_of(controller)
        self._destaged[ai] = self._destaged.get(ai, 0) + run.nblocks

    def finalize(self, ctx: CheckContext, result) -> None:
        for ai, shadow in self._shadows.items():
            ctrl = ctx.controllers[ai]
            cache = ctrl.cache
            self._check_shadow(ai, shadow, cache)

            reads = self._reads.get(ai, 0)
            writes = self._writes.get(ai, 0)
            if cache.read_hits + cache.read_misses != reads:
                self.fail(
                    f"array {ai}: read hits ({cache.read_hits}) + misses "
                    f"({cache.read_misses}) != {reads} read requests admitted"
                )
            if cache.write_hits + cache.write_misses != writes:
                self.fail(
                    f"array {ai}: write hits ({cache.write_hits}) + misses "
                    f"({cache.write_misses}) != {writes} write requests admitted"
                )
            destaged = self._destaged.get(ai, 0)
            if destaged != ctrl.destaged_blocks:
                self.fail(
                    f"array {ai}: controller counts {ctrl.destaged_blocks} "
                    f"destaged block(s) but {destaged} were observed"
                )
            if result is not None and ai < len(result.arrays):
                metrics = result.arrays[ai]
                pairs = [
                    ("read_hits", metrics.read_hits, cache.read_hits),
                    ("read_misses", metrics.read_misses, cache.read_misses),
                    ("write_hits", metrics.write_hits, cache.write_hits),
                    ("write_misses", metrics.write_misses, cache.write_misses),
                    ("sync_writebacks", metrics.sync_writebacks, ctrl.sync_writebacks),
                    ("destaged_blocks", metrics.destaged_blocks, ctrl.destaged_blocks),
                ]
                for field, harvested, live in pairs:
                    if harvested != live:
                        self.fail(
                            f"array {ai}: RunResult.{field}={harvested} "
                            f"diverges from the live counter {live}"
                        )

    def _check_shadow(self, ai: int, shadow: _ShadowCache, cache) -> None:
        actual_resident = {lb for lb, _ in cache.iter_blocks()}
        if actual_resident != set(shadow.entries):
            extra = actual_resident - set(shadow.entries)
            lost = set(shadow.entries) - actual_resident
            self.fail(
                f"array {ai}: residency diverged from the shadow model "
                f"(unexpected {sorted(extra)[:5]}, missing {sorted(lost)[:5]})"
            )
        actual_dirty = {
            lb for lb, e in cache.iter_blocks() if e.state is BlockState.DIRTY
        }
        shadow_dirty = {lb for lb, e in shadow.entries.items() if e.dirty}
        if actual_dirty != shadow_dirty:
            self.fail(
                f"array {ai}: dirty set diverged from the shadow model "
                f"({len(actual_dirty)} dirty vs {len(shadow_dirty)} expected; "
                f"difference {sorted(actual_dirty ^ shadow_dirty)[:5]})"
            )
        if set(cache.dirty_blocks(include_destaging=True)) != actual_dirty:
            self.fail(
                f"array {ai}: the dirty index disagrees with per-entry states"
            )
        if cache.old_copies != shadow.old_copies:
            self.fail(
                f"array {ai}: {cache.old_copies} old copies held, shadow "
                f"expects {shadow.old_copies}"
            )
        if cache.reserved_slots != shadow.reserved:
            self.fail(
                f"array {ai}: {cache.reserved_slots} slots reserved, shadow "
                f"expects {shadow.reserved}"
            )
