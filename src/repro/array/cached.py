"""Cached controllers (§3.4, §4.3, §4.4).

One controller class serves all five organizations; the differences are
confined to the destage write path (plain / duplicated / parity RMW /
parity-cached) selected from the layout and configuration:

* read hit  → channel transfer only;
* read miss → fetch missing blocks from disk (synchronous, normal
  priority), then channel transfer;
* write     → channel transfer into the NV cache, block dirtied, old
  contents retained for parity organizations; response ends here;
* destage   → periodic background process groups dirty blocks into
  physically contiguous runs and writes them back at background
  priority, spread progressively over the period;
* RAID4 parity caching → destage pushes parity deltas into the cache
  (with back-pressure when full) and a spooler drains them to the
  dedicated parity disk in SCAN order.
"""

from __future__ import annotations

from typing import Generator, Optional, Sequence

from repro.array.controller import ArrayController
from repro.cache.destage import DestageRun, plan_destage_runs
from repro.cache.lru import BlockState, LRUCache
from repro.cache.paritycache import ParityCacheQueue
from repro.channel.bus import Channel
from repro.des import AllOf, Environment, Event
from repro.disk.drive import Disk
from repro.disk.request import AccessKind, DiskRequest, Priority
from repro.layout.common import Layout, Run, merge_runs, PhysicalAddress
from repro.layout.mirror import MirrorLayout
from repro.layout.raid4 import Raid4Layout

__all__ = ["CachedController"]

#: The decoupled destage policy's small destages per destage period, and
#: the oldest dirty blocks each one writes back.
DECOUPLED_BATCHES_PER_PERIOD = 4
DECOUPLED_BATCH_BLOCKS = 24


class CachedController(ArrayController):
    """Controller with a non-volatile LRU cache and background destage."""

    def __init__(
        self,
        env: Environment,
        layout: Layout,
        disks: Sequence[Disk],
        channel: Channel,
        config,
    ) -> None:
        super().__init__(env, layout, disks, channel, config)
        self.cache = LRUCache(config.cache_blocks, track_old=layout.has_parity)
        self._slot_waiters: list[Event] = []

        self.parity_caching = (
            isinstance(layout, Raid4Layout) and config.parity_caching
        )
        if self.parity_caching:
            self.parity_queue = ParityCacheQueue(self.cache)
            self._spool_wakeup: Optional[Event] = None
            self._scan_pos = 0
            self._scan_up = True
            env.process(self._parity_spooler())

        # Statistics.
        self.sync_writebacks = 0
        self.destage_cycles = 0
        self.destaged_blocks = 0

        policy = config.destage_policy
        if policy == "periodic":
            env.process(self._destage_loop())
        elif policy == "decoupled":
            env.process(self._decoupled_destage_loop())
            env.process(self._destage_loop())
        # "lru_demand": no background process; writebacks happen only on
        # replacement of a dirty LRU head (the paper's baseline policy).

    # ------------------------------------------------------------------
    # Request admission
    # ------------------------------------------------------------------
    def handle(self, lstart: int, nblocks: int, is_write: bool):
        self.requests_handled += 1
        if self.probe is not None:
            self.probe.on_handle(self, lstart, nblocks, is_write)
        if is_write:
            return self._handle_write(lstart, nblocks)
        return self._handle_read(lstart, nblocks)

    def _handle_read(self, lstart: int, nblocks: int) -> Generator[Event, None, None]:
        cache = self.cache
        blocks = list(range(lstart, lstart + nblocks))
        if cache.probe_read(blocks):
            cache.read_hits += 1
            yield from self._channel_transfer(nblocks)
            return
        cache.read_misses += 1

        missing = []
        for b in blocks:
            if cache.get(b) is None:
                missing.append(b)
            else:
                cache.touch(b)
        # Claim slots (evicting / waiting as needed), then fetch.
        yield from self._acquire_slots(len(missing))
        env = self.env
        fetches = []
        i = 0
        for run in self.layout.runs_of(missing):
            j = i + run.nblocks
            fetches.append(env.process(self._fetch_run(run, missing[i:j])))
            i = j
        if fetches:
            yield AllOf(env, fetches)
        yield from self._channel_transfer(nblocks)

    def _fetch_run(self, run: Run, lblocks: list[int]) -> Generator[Event, None, None]:
        """Read a physically contiguous run of missed blocks into the cache.

        *lblocks* are the run's logical blocks, in physical order.
        """
        req = self._pick_read_disk(run).submit(
            DiskRequest(AccessKind.READ, run.start, run.nblocks)
        )
        yield req.done
        cache = self.cache
        for lblock in lblocks:
            cache.release_slots(1)
            if cache.get(lblock) is None:
                cache.insert_clean(lblock)
            else:
                self._notify_slot()  # raced with another inserter

    def _handle_write(self, lstart: int, nblocks: int) -> Generator[Event, None, None]:
        # Host data crosses the channel into the NV cache.
        yield from self._channel_transfer(nblocks)
        cache = self.cache
        if all(b in cache for b in range(lstart, lstart + nblocks)):
            cache.write_hits += 1
        else:
            cache.write_misses += 1
        for b in range(lstart, lstart + nblocks):
            entry = cache.get(b)
            needs_slot = entry is None or (
                cache.track_old and entry.state is BlockState.CLEAN and not entry.has_old
            )
            if needs_slot:
                yield from self._acquire_slots(1)
                cache.release_slots(1)
            cache.write(b)

    def _pick_read_disk(self, run: Run) -> Disk:
        """Read routing: mirrors use the nearer arm of the pair."""
        if isinstance(self.layout, MirrorLayout):
            return self._nearer_copy(run)
        return self.disks[run.disk]

    # ------------------------------------------------------------------
    # Cache space management
    # ------------------------------------------------------------------
    def _acquire_slots(self, k: int) -> Generator[Event, None, None]:
        """Reserve *k* cache slots, evicting or waiting as necessary."""
        if k == 0:
            return
        while not self.cache.reserve_slots(k):
            yield from self._free_one_slot()
        # Wake-one notification: if space remains, pass the baton on.
        if self.cache.free_slots > 0:
            self._notify_slot()

    def _free_one_slot(self) -> Generator[Event, None, None]:
        """Evict the LRU candidate; synchronously write it back if dirty.

        If every resident block has a destage in flight, wait for one to
        complete (the slot-freed notification).
        """
        candidate = self.cache.eviction_candidate()
        if candidate is None:
            waiter = Event(self.env)
            self._slot_waiters.append(waiter)
            yield waiter
            return
        lblock, entry = candidate
        if entry.state is BlockState.DIRTY:
            # The paper's "miss may wait for the replaced block to be
            # written to disk" path — rare while destage keeps up.
            self.sync_writebacks += 1
            self.cache.begin_destage(lblock)
            addr = self.layout.map_block(lblock)
            run = DestageRun(
                disk=addr.disk,
                start=addr.block,
                lblocks=[lblock],
                all_old_cached=entry.has_old,
            )
            yield from self._destage_run(run, priority=Priority.NORMAL)
            entry = self.cache.get(lblock)
            if entry is None or entry.state is not BlockState.CLEAN:
                return  # re-dirtied concurrently; try another candidate
        self.cache.evict(lblock)
        self._notify_slot()

    def _notify_slot(self) -> None:
        """Wake the oldest slot waiter (wake-one, to avoid a thundering
        herd of retries; successful wakers cascade the notification)."""
        while self._slot_waiters:
            w = self._slot_waiters.pop(0)
            if not w.triggered:
                w.succeed()
                return

    # ------------------------------------------------------------------
    # Destage
    # ------------------------------------------------------------------
    def _destage_loop(self) -> Generator[Event, None, None]:
        """Initiate a destage cycle every ``destage_period_ms``.

        The periodic policy's only destage, and the decoupled policy's
        full flush.
        """
        env = self.env
        period = self.config.destage_period_ms
        while True:
            yield env.timeout(period)
            runs = plan_destage_runs(self.cache, self.layout)
            if not runs:
                continue
            self.destage_cycles += 1
            # Full-stripe detection must happen now, while every block of
            # the cycle is still dirty — sibling runs may destage first.
            full_map = self._full_parity_map(runs) if self.parity_caching else None
            # Progressive scheduling: spread the cycle's writes over the
            # period so they interfere minimally with read traffic.
            spacing = period / len(runs)
            for i, run in enumerate(runs):
                env.process(self._delayed_destage(run, i * spacing, full_map))

    def _decoupled_destage_loop(self) -> Generator[Event, None, None]:
        """Frequent small destages of the oldest dirty blocks.

        The decoupled policy (suggested in §3.4): write back dirty blocks
        from the LRU head often, so replacement rarely finds a dirty
        head, while the full flush that frees old-data copies runs only
        once per period.
        """
        env = self.env
        interval = self.config.destage_period_ms / DECOUPLED_BATCHES_PER_PERIOD
        while True:
            yield env.timeout(interval)
            candidates = self.cache.oldest_dirty(DECOUPLED_BATCH_BLOCKS)
            if not candidates:
                continue
            runs = plan_destage_runs(self.cache, self.layout, blocks=candidates)
            if not runs:
                continue
            full_map = self._full_parity_map(runs) if self.parity_caching else None
            for run in runs:
                env.process(self._delayed_destage(run, 0.0, full_map))

    def _full_parity_map(self, runs: list[DestageRun]) -> dict[int, bool]:
        """For each parity block of the cycle: is its whole stripe dirty?"""
        full_map: dict[int, bool] = {}
        for run in runs:
            for prun in self._parity_runs_for(run):
                for pblock in range(prun.start, prun.end):
                    if pblock not in full_map:
                        full_map[pblock] = self._stripe_fully_dirty(prun.disk, pblock)
        return full_map

    def _delayed_destage(
        self,
        run: DestageRun,
        delay: float,
        full_map: Optional[dict[int, bool]] = None,
    ) -> Generator[Event, None, None]:
        if delay > 0:
            yield self.env.timeout(delay)
        yield from self._destage_run(run, priority=Priority.DESTAGE, full_map=full_map)

    def _destage_run(
        self,
        run: DestageRun,
        priority: float,
        full_map: Optional[dict[int, bool]] = None,
    ) -> Generator[Event, None, None]:
        """Write one contiguous dirty run (and its redundancy) to disk."""
        layout = self.layout
        env = self.env

        if isinstance(layout, MirrorLayout):
            reqs = [
                self.disks[d].submit(
                    DiskRequest(AccessKind.WRITE, run.start, run.nblocks, priority=priority)
                )
                for d in (run.disk, layout.mirror_of(run.disk))
            ]
            yield AllOf(env, [r.done for r in reqs])
        elif not layout.has_parity:
            req = self.disks[run.disk].submit(
                DiskRequest(AccessKind.WRITE, run.start, run.nblocks, priority=priority)
            )
            yield req.done
        elif self.parity_caching:
            yield from self._destage_parity_cached(run, priority, full_map or {})
        else:
            yield from self._destage_parity(run, priority)

        self.destaged_blocks += run.nblocks
        if self.probe is not None:
            self.probe.on_destage(self, run)
        for lblock in run.lblocks:
            self.cache.finish_destage(lblock)
        self._notify_slot()

    def _parity_runs_for(self, run: DestageRun) -> list[Run]:
        """Parity blocks protecting the run's logical blocks."""
        addrs = sorted(
            (
                (p.disk, p.block)
                for p in (self.layout.parity_of(lb) for lb in run.lblocks)
            ),
        )
        return merge_runs([PhysicalAddress(d, b) for d, b in addrs])

    def _destage_parity(self, run: DestageRun, priority: float) -> Generator[Event, None, None]:
        """RAID5 / Parity Striping destage: data write + parity RMW.

        With the old data cached the data disk performs a plain write and
        the parity delta is computable immediately; otherwise the data
        disk does a read-modify-write whose read gates the parity write.
        """
        env = self.env
        if run.all_old_cached:
            data_req = self.disks[run.disk].submit(
                DiskRequest(AccessKind.WRITE, run.start, run.nblocks, priority=priority)
            )
            gate = None
        else:
            data_req = self.disks[run.disk].submit(
                DiskRequest(AccessKind.RMW, run.start, run.nblocks, priority=priority)
            )
            gate = data_req.read_complete

        pruns = self._parity_runs_for(run)
        if self.probe is not None:
            self.probe.on_parity_update(self, run, pruns)
        parity_done = []
        for prun in pruns:
            preq = self.disks[prun.disk].submit(
                DiskRequest(
                    AccessKind.RMW,
                    prun.start,
                    prun.nblocks,
                    priority=priority,
                    data_ready=gate,
                )
            )
            parity_done.append(preq.done)
        yield AllOf(env, [data_req.done] + parity_done)

    def _destage_parity_cached(
        self, run: DestageRun, priority: float, full_map: dict[int, bool]
    ) -> Generator[Event, None, None]:
        """RAID4 parity caching: buffer deltas, write only the data.

        If the old data is not cached it must be read (RMW) to form the
        delta, but the parity disk is untouched here — the spooler
        handles it asynchronously.

        Back-pressure: when the cache has no slot for a parity delta the
        destage waits for one — but only while the spooler has pending
        work that is guaranteed to free slots.  Otherwise (the §4.4 "queue
        fills the entire cache" corner, or a cache full of blocks that
        cannot free themselves) the parity is serviced directly from the
        parity disk, as the paper describes.
        """
        env = self.env
        pruns = self._parity_runs_for(run)
        if self.probe is not None:
            self.probe.on_parity_update(self, run, pruns)
        direct_parity: list[Run] = []
        for prun in pruns:
            for pblock in range(prun.start, prun.end):
                while not self.parity_queue.add(
                    pblock, full=full_map.get(pblock, False)
                ):
                    if len(self.parity_queue) == 0:
                        # Nothing pending to free slots: bypass the cache
                        # and update the parity synchronously.
                        direct_parity.append(Run(self.layout.parity_disk, pblock, 1))
                        break
                    waiter = Event(env)
                    self._slot_waiters.append(waiter)
                    yield waiter
                else:
                    if self.cache.free_slots > 0:
                        self._notify_slot()

        kind = AccessKind.WRITE if run.all_old_cached else AccessKind.RMW
        data_req = self.disks[run.disk].submit(
            DiskRequest(kind, run.start, run.nblocks, priority=priority)
        )
        gate = data_req.read_complete if kind is AccessKind.RMW else None
        direct_done = [
            self.disks[prun.disk]
            .submit(
                DiskRequest(
                    AccessKind.RMW,
                    prun.start,
                    prun.nblocks,
                    priority=priority,
                    data_ready=gate,
                )
            )
            .done
            for prun in direct_parity
        ]
        yield AllOf(env, [data_req.done] + direct_done)
        self._kick_spooler()

    def _stripe_fully_dirty(self, disk: int, parity_pblock: int) -> bool:
        """True if every data block protected by this parity block is
        dirty or destaging — then the actual parity is cached and the
        spooler can write it without reading the old parity."""
        layout = self.layout
        for src in layout.reconstruction_sources(disk, parity_pblock):
            entry = self.cache.get(layout.logical_of(src.disk, src.block))
            if entry is None or entry.state is not BlockState.DIRTY:
                return False
        return True

    # ------------------------------------------------------------------
    # RAID4 parity spooler
    # ------------------------------------------------------------------
    def _kick_spooler(self) -> None:
        if self._spool_wakeup is not None and not self._spool_wakeup.triggered:
            self._spool_wakeup.succeed()

    def _parity_spooler(self) -> Generator[Event, None, None]:
        """Drain buffered parity to the dedicated disk in SCAN order."""
        env = self.env
        layout = self.layout
        assert isinstance(layout, Raid4Layout)
        parity_disk = self.disks[layout.parity_disk]
        while True:
            while len(self.parity_queue) == 0:
                self._spool_wakeup = Event(env)
                yield self._spool_wakeup
                self._spool_wakeup = None
            popped = self.parity_queue.pop_scan_run(self._scan_pos, self._scan_up)
            assert popped is not None
            deltas, self._scan_up = popped
            self._scan_pos = deltas[-1].pblock
            kind = AccessKind.WRITE if deltas[0].full else AccessKind.RMW
            req = parity_disk.submit(
                DiskRequest(kind, deltas[0].pblock, len(deltas))
            )
            yield req.done
            self.cache.release_slots(len(deltas))
            self._notify_slot()
