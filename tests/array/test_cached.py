"""Integration tests for the cached controllers (§3.4 behaviour)."""

import pytest

from repro.des import Environment
from repro.disk import DiskGeometry
from repro.obs import ProbeBus
from repro.sim import Organization, SystemConfig
from repro.sim.system import build_system

REV = DiskGeometry().revolution_time
XFER = DiskGeometry().block_transfer_time
CHAN = 4096 / 10000.0

BPD = 240


def make(org, n=4, cache_mb=None, cache_blocks=64, **kw):
    env = Environment()
    kw.setdefault("spindle_sync", True)  # exact-timing tests assume phase 0
    # cache_mb expressed via blocks for small test caches.
    mb = cache_blocks * 4096 / (1024 * 1024) if cache_mb is None else cache_mb
    cfg = SystemConfig(
        organization=Organization.parse(org),
        n=n,
        blocks_per_disk=BPD,
        cached=True,
        cache_mb=mb,
        **kw,
    )
    system = build_system(env, cfg, cfg.arrays_for(cfg.n))
    return env, system.controllers[0]


def run_one(env, ctrl, lstart, nblocks, is_write, at=None):
    done = {}

    def proc(env):
        if at is not None and at > env.now:
            yield env.timeout(at - env.now)
        t0 = env.now
        yield from ctrl.handle(lstart, nblocks, is_write)
        done["rt"] = env.now - t0

    p = env.process(proc(env))
    env.run(until=p)
    return done["rt"]


class TestReadPath:
    def test_miss_then_hit(self):
        env, ctrl = make("base")
        miss_rt = run_one(env, ctrl, 5, 1, False)
        hit_rt = run_one(env, ctrl, 5, 1, False)
        assert miss_rt > hit_rt
        assert hit_rt == pytest.approx(CHAN)
        assert ctrl.cache.read_hits == 1
        assert ctrl.cache.read_misses == 1

    def test_hit_touches_no_disk(self):
        env, ctrl = make("base")
        run_one(env, ctrl, 5, 1, False)
        reads_before = sum(d.reads for d in ctrl.disks)
        run_one(env, ctrl, 5, 1, False)
        assert sum(d.reads for d in ctrl.disks) == reads_before

    def test_multiblock_hit_requires_all_blocks(self):
        env, ctrl = make("base")
        run_one(env, ctrl, 5, 1, False)
        run_one(env, ctrl, 5, 2, False)  # block 6 missing
        assert ctrl.cache.read_misses == 2
        assert ctrl.cache.read_hits == 0

    def test_partial_miss_fetches_only_missing(self):
        env, ctrl = make("base")
        run_one(env, ctrl, 5, 1, False)
        blocks_before = sum(d.blocks_transferred for d in ctrl.disks)
        run_one(env, ctrl, 5, 2, False)
        assert sum(d.blocks_transferred for d in ctrl.disks) == blocks_before + 1

    def test_scattered_misses_read_once_per_physical_run(self):
        """Resident blocks split the misses, and so does the disk boundary
        at block 240: one read per maximal run of missing blocks, and
        exactly the missing blocks inserted."""
        env, ctrl = make("base")
        for b in (238, 241):
            run_one(env, ctrl, b, 1, False)

        class Seen:
            def __init__(self):
                self.reads, self.inserted = [], []

            def on_disk_submit(self, disk, request):
                self.reads.append((ctrl.disks.index(disk), request.start_block, request.nblocks))

            def on_cache_op(self, cache, op, arg):
                if op == "insert_clean":
                    self.inserted.append(arg)

        seen = Seen()
        ProbeBus.of([ctrl]).subscribe(seen)
        run_one(env, ctrl, 236, 8, False)
        assert seen.reads == [(0, 236, 2), (0, 239, 1), (1, 0, 1), (1, 2, 2)]
        assert sorted(seen.inserted) == [236, 237, 239, 240, 242, 243]
        assert ctrl.cache.read_misses == 3


class TestWritePath:
    def test_write_response_is_channel_time(self):
        """§3.4: writes complete into the NV cache."""
        env, ctrl = make("raid5")
        rt = run_one(env, ctrl, 5, 1, True)
        assert rt == pytest.approx(CHAN)

    def test_write_dirties_block(self):
        env, ctrl = make("raid5")
        run_one(env, ctrl, 5, 1, True)
        assert 5 in ctrl.cache.dirty_blocks()

    def test_write_hit_keeps_old_copy_parity_org(self):
        env, ctrl = make("raid5")
        run_one(env, ctrl, 5, 1, False)  # read it in (clean)
        run_one(env, ctrl, 5, 1, True)
        assert ctrl.cache.get(5).has_old

    def test_write_no_old_copy_for_base(self):
        env, ctrl = make("base")
        run_one(env, ctrl, 5, 1, False)
        run_one(env, ctrl, 5, 1, True)
        assert not ctrl.cache.get(5).has_old

    def test_write_hit_counting_per_request(self):
        env, ctrl = make("base")
        run_one(env, ctrl, 5, 2, True)  # miss
        run_one(env, ctrl, 5, 2, True)  # hit (both blocks now present)
        assert ctrl.cache.write_misses == 1
        assert ctrl.cache.write_hits == 1


class TestDestage:
    def test_dirty_blocks_written_back(self):
        env, ctrl = make("base", destage_period_ms=100.0)
        run_one(env, ctrl, 5, 1, True)
        env.run(until=env.now + 500.0)
        assert ctrl.cache.dirty_blocks(include_destaging=True) == []
        assert sum(d.writes for d in ctrl.disks) >= 1
        assert ctrl.destaged_blocks >= 1

    def test_mirror_destage_writes_both(self):
        env, ctrl = make("mirror", destage_period_ms=100.0)
        run_one(env, ctrl, 0, 1, True)
        env.run(until=env.now + 500.0)
        assert ctrl.disks[0].writes == 1
        assert ctrl.disks[1].writes == 1

    def test_parity_destage_with_old_data_avoids_rmw_on_data_disk(self):
        env, ctrl = make("raid5", destage_period_ms=100.0)
        run_one(env, ctrl, 5, 1, False)  # read first: old data cached
        run_one(env, ctrl, 5, 1, True)
        env.run(until=env.now + 1000.0)
        daddr = ctrl.layout.map_block(5)
        paddr = ctrl.layout.parity_of(5)
        assert ctrl.disks[daddr.disk].writes == 1  # plain write
        assert ctrl.disks[daddr.disk].rmws == 0
        assert ctrl.disks[paddr.disk].rmws == 1  # parity still RMW

    def test_parity_destage_without_old_data_uses_rmw(self):
        env, ctrl = make("raid5", destage_period_ms=100.0)
        run_one(env, ctrl, 5, 1, True)  # write miss: no old data
        env.run(until=env.now + 1000.0)
        daddr = ctrl.layout.map_block(5)
        assert ctrl.disks[daddr.disk].rmws == 1

    def test_destage_groups_consecutive_blocks(self):
        env, ctrl = make("base", destage_period_ms=200.0)
        for b in (10, 11, 12):
            run_one(env, ctrl, b, 1, True)
        env.run(until=env.now + 1000.0)
        # One grouped write of 3 blocks, not three writes.
        assert ctrl.disks[0].writes == 1
        assert ctrl.disks[0].blocks_transferred == 3

    def test_old_copies_freed_after_destage(self):
        env, ctrl = make("raid5", destage_period_ms=100.0)
        run_one(env, ctrl, 5, 1, False)
        run_one(env, ctrl, 5, 1, True)
        assert ctrl.cache.old_copies == 1
        env.run(until=env.now + 1000.0)
        assert ctrl.cache.old_copies == 0


class TestEvictionPressure:
    def test_lru_eviction_on_full_cache(self):
        env, ctrl = make("base", cache_blocks=8, destage_period_ms=50.0)
        for b in range(12):
            run_one(env, ctrl, b, 1, False)
        assert ctrl.cache.occupancy <= 8
        # Oldest blocks were evicted.
        assert ctrl.cache.get(0) is None

    def test_sync_writeback_when_dirty_head(self):
        """With destage effectively off, a full cache of dirty blocks
        forces synchronous writebacks on replacement."""
        env, ctrl = make("raid5", cache_blocks=8, destage_period_ms=1e9)
        for b in range(0, 12, 1):
            run_one(env, ctrl, b, 1, True)
        assert ctrl.sync_writebacks > 0
        assert ctrl.cache.occupancy <= 8

    def test_no_deadlock_small_cache_many_writes(self):
        env, ctrl = make("raid5", cache_blocks=8, destage_period_ms=100.0)
        finished = []

        def writer(env, lb):
            yield from ctrl.handle(lb, 1, True)
            finished.append(lb)

        for lb in range(100):
            env.process(writer(env, lb % 50))
        env.run(until=120_000)
        assert len(finished) == 100


class TestRaid4ParityCaching:
    def test_parity_goes_to_dedicated_disk_async(self):
        env, ctrl = make("raid4", destage_period_ms=100.0)
        rt = run_one(env, ctrl, 5, 1, True)
        assert rt == pytest.approx(CHAN)
        env.run(until=env.now + 2000.0)
        parity_disk = ctrl.disks[ctrl.layout.parity_disk]
        assert parity_disk.completed >= 1
        # Data disks never see parity traffic.
        daddr = ctrl.layout.map_block(5)
        assert ctrl.disks[daddr.disk].completed == 1

    def test_parity_delta_needs_old_parity_read(self):
        """Single-block update: the spooler holds an XOR delta, so the
        parity disk does a read-modify-write."""
        env, ctrl = make("raid4", destage_period_ms=100.0)
        run_one(env, ctrl, 5, 1, True)
        env.run(until=env.now + 2000.0)
        assert ctrl.disks[ctrl.layout.parity_disk].rmws >= 1

    def test_full_stripe_parity_written_directly(self):
        """All data blocks of a row dirty -> real parity cached -> plain
        write on the parity disk (§3.4)."""
        env, ctrl = make("raid4", n=4, destage_period_ms=100.0)
        run_one(env, ctrl, 0, 4, True)  # full row with su=1
        env.run(until=env.now + 2000.0)
        pdisk = ctrl.disks[ctrl.layout.parity_disk]
        assert pdisk.writes >= 1
        assert pdisk.rmws == 0

    def test_pending_parity_occupies_cache(self):
        env, ctrl = make("raid4", destage_period_ms=100.0)
        run_one(env, ctrl, 5, 1, True)
        # Let the destage run but intercept before the spooler finishes:
        # right after destage the delta reserves a slot.
        env.run(until=110.0)
        # Either still pending (reserved) or already spooled (released).
        assert ctrl.cache.reserved_slots in (0, 1)

    def test_spool_backpressure_does_not_deadlock(self):
        env, ctrl = make("raid4", cache_blocks=8, destage_period_ms=50.0)
        finished = []

        def writer(env, lb):
            yield from ctrl.handle(lb, 1, True)
            finished.append(lb)

        for lb in range(0, 200, 2):
            env.process(writer(env, lb % BPD))
        env.run(until=300_000)
        assert len(finished) == 100
        env.run(until=env.now + 60_000)
        assert len(ctrl.parity_queue) == 0  # spooler caught up

    def test_scan_spooling_in_order(self):
        env, ctrl = make("raid4", n=4, destage_period_ms=500.0)
        # Dirty scattered blocks on one data disk.
        for lb in (0, 40, 80, 120, 160):
            run_one(env, ctrl, lb, 1, True)
        env.run(until=env.now + 5000.0)
        assert len(ctrl.parity_queue) == 0


class TestMirrorCachedRouting:
    def test_fetch_uses_nearest_arm(self):
        env, ctrl = make("mirror")
        ctrl.disks[0].cylinder = 300
        run_one(env, ctrl, 0, 1, False)
        assert ctrl.disks[1].reads == 1
        assert ctrl.disks[0].reads == 0
