"""Integration tests for the uncached controllers with exact timings."""

import pytest

from repro.des import Environment
from repro.disk import DiskGeometry
from repro.models.gray import ZeroLoadModel
from repro.sim import Organization, SystemConfig
from repro.sim.system import build_system

REV = DiskGeometry().revolution_time
XFER = DiskGeometry().block_transfer_time
CHAN = 4096 / 10000.0  # 4 KB at 10 MB/s in ms

BPD = 240


def make_controller(org, n=4, su=1, sync="DF", **kw):
    env = Environment()
    kw.setdefault("spindle_sync", True)  # exact-timing tests assume phase 0
    cfg = SystemConfig(
        organization=Organization.parse(org),
        n=n,
        blocks_per_disk=BPD,
        striping_unit=su,
        sync_policy=sync,
        cached=False,
        **kw,
    )
    system = build_system(env, cfg, 1)
    return env, system.controllers[0]


def run_one(env, ctrl, lstart, nblocks, is_write):
    done = {}

    def proc(env):
        yield from ctrl.handle(lstart, nblocks, is_write)
        done["t"] = env.now

    env.process(proc(env))
    env.run()
    return done["t"]


class TestBaseTiming:
    def test_read_block0(self):
        env, ctrl = make_controller("base")
        t = run_one(env, ctrl, 0, 1, False)
        assert t == pytest.approx(XFER + CHAN)

    def test_write_block0(self):
        env, ctrl = make_controller("base")
        t = run_one(env, ctrl, 0, 1, True)
        # The channel transfer finishes at CHAN; by then the platter has
        # rotated past sector 0, so the write waits almost a revolution.
        latency = ctrl.disks[0].rotational_latency(CHAN, 0)
        assert t == pytest.approx(CHAN + latency + XFER)

    def test_multiblock_read_single_disk(self):
        env, ctrl = make_controller("base")
        t = run_one(env, ctrl, 0, 4, False)
        assert t == pytest.approx(4 * XFER + 4 * CHAN)


class TestMirrorTiming:
    def test_write_goes_to_both(self):
        env, ctrl = make_controller("mirror")
        run_one(env, ctrl, 0, 1, True)
        assert ctrl.disks[0].writes == 1
        assert ctrl.disks[1].writes == 1

    def test_read_uses_one_arm(self):
        env, ctrl = make_controller("mirror")
        run_one(env, ctrl, 0, 1, False)
        assert ctrl.disks[0].reads + ctrl.disks[1].reads == 1

    def test_read_routed_to_nearest_arm(self):
        env, ctrl = make_controller("mirror")
        geo = ctrl.disks[0].geometry
        # Park disk 0's arm far away.
        far_block = geo.blocks_per_cylinder * 200
        ctrl.disks[0].cylinder = 200
        run_one(env, ctrl, 0, 1, False)
        # Disk 1 (at cylinder 0) must take the read of block 0.
        assert ctrl.disks[1].reads == 1
        assert ctrl.disks[0].reads == 0

    def test_write_response_is_max_of_pair(self):
        env, ctrl = make_controller("mirror")
        ctrl.disks[1].cylinder = 500  # one arm far away
        t = run_one(env, ctrl, 0, 1, True)
        sm = ctrl.disks[1].seek_model
        assert t > CHAN + sm.seek_time(500)  # waits for the far arm


class TestParityUpdateTiming:
    def test_raid5_single_block_write_ops(self):
        env, ctrl = make_controller("raid5")
        run_one(env, ctrl, 0, 1, True)
        rmws = sum(d.rmws for d in ctrl.disks)
        assert rmws == 2  # data disk + parity disk

    def test_raid5_update_costs_extra_revolution(self):
        env, ctrl = make_controller("raid5")
        t = run_one(env, ctrl, 0, 1, True)
        # Zero-load RMW on an idle array: channel + (seek=0) + latency
        # from the post-transfer rotational position + read + one full
        # revolution to rewrite in place.
        latency = ctrl.disks[0].rotational_latency(CHAN, 0)
        assert t == pytest.approx(CHAN + latency + XFER + REV)

    def test_raid5_read_has_no_penalty(self):
        env, ctrl = make_controller("raid5")
        t = run_one(env, ctrl, 0, 1, False)
        assert t == pytest.approx(XFER + CHAN)

    def test_full_stripe_write_no_rmw(self):
        env, ctrl = make_controller("raid5", su=2)
        run_one(env, ctrl, 0, 8, True)  # exactly one full row
        assert sum(d.rmws for d in ctrl.disks) == 0
        assert sum(d.writes for d in ctrl.disks) == 5  # 4 data + parity

    def test_reconstruct_write_reads_complement(self):
        env, ctrl = make_controller("raid5")
        run_one(env, ctrl, 0, 3, True)  # 3 of 4 units
        assert sum(d.reads for d in ctrl.disks) == 1
        assert sum(d.rmws for d in ctrl.disks) == 0

    def test_parity_striping_update_ops(self):
        env, ctrl = make_controller("parity_striping")
        run_one(env, ctrl, 0, 1, True)
        assert sum(d.rmws for d in ctrl.disks) == 2

    def test_raid4_parity_on_last_disk(self):
        env, ctrl = make_controller("raid4")
        run_one(env, ctrl, 0, 1, True)
        assert ctrl.disks[4].rmws == 1  # dedicated parity disk


class TestSyncPolicyBehaviour:
    def _update_with_busy_data_disk(self, sync):
        """Queue a read ahead of the update's data access and measure the
        parity disk's wasted revolutions."""
        env, ctrl = make_controller("raid5", sync=sync)
        layout = ctrl.layout
        # Find the data/parity disks for block 17.
        daddr = layout.map_block(17)
        # Keep the data disk busy with queued reads.
        from repro.disk import AccessKind, DiskRequest

        for _ in range(3):
            ctrl.disks[daddr.disk].submit(
                DiskRequest(AccessKind.READ, (daddr.block + 37) % BPD)
            )
        t = run_one(env, ctrl, 17, 1, True)
        spins = sum(
            getattr(req, "spin_revolutions", 0)
            for d in ctrl.disks
            for req in []
        )
        parity_disk = ctrl.disks[layout.parity_of(17).disk]
        return t, parity_disk

    def test_si_wastes_parity_disk_time(self):
        t_si, pdisk_si = self._update_with_busy_data_disk("SI")
        t_rf, pdisk_rf = self._update_with_busy_data_disk("RF")
        # SI holds the parity disk spinning; RF does not.
        assert pdisk_si.busy_time > pdisk_rf.busy_time

    def test_rf_slower_response_than_df(self):
        t_rf, _ = self._update_with_busy_data_disk("RF")
        t_df, _ = self._update_with_busy_data_disk("DF")
        assert t_df <= t_rf + 1e-9

    def test_pr_priority_jumps_queue(self):
        env, ctrl = make_controller("raid5", sync="DF/PR")
        layout = ctrl.layout
        paddr = layout.parity_of(0)
        from repro.disk import AccessKind, DiskRequest

        # Busy the parity disk, then queue competing reads behind.
        blocker = ctrl.disks[paddr.disk].submit(
            DiskRequest(AccessKind.RMW, (paddr.block + 60) % BPD)
        )
        competitors = [
            ctrl.disks[paddr.disk].submit(
                DiskRequest(AccessKind.READ, (paddr.block + 90 + i) % BPD)
            )
            for i in range(3)
        ]
        run_one(env, ctrl, 0, 1, True)
        parity_req_done = max(
            r.done.value for r in [blocker] if r.done.triggered
        )
        # The update's parity access beat at least the queued readers.
        assert any(
            not c.done.triggered or c.done.value > blocker.done.value
            for c in competitors
        )


class TestAgainstAnalyticalModel:
    """Idle-array response times must match the Gray-style zero-load
    model when seek and latency are controlled."""

    def test_rmw_formula(self):
        env, ctrl = make_controller("raid5")
        geo = ctrl.disks[0].geometry
        model = ZeroLoadModel(geo, ctrl.disks[0].seek_model)
        t = run_one(env, ctrl, 0, 1, True)
        # Block 0 on an idle disk: no seek; latency determined by the
        # rotational position when the channel transfer completes.
        latency = ctrl.disks[0].rotational_latency(CHAN, 0)
        expected = CHAN + latency + (
            model.rmw_update(1) - model.expected_seek - model.expected_latency
        )
        assert t == pytest.approx(expected)

    def test_read_formula(self):
        env, ctrl = make_controller("base")
        t = run_one(env, ctrl, 0, 1, False)
        assert t == pytest.approx(XFER + CHAN)


class TestBufferAccounting:
    def test_buffers_returned_after_requests(self):
        env, ctrl = make_controller("raid5")
        for i, (lb, w) in enumerate([(0, True), (5, False), (9, True), (30, True)]):
            run_one(env, ctrl, lb, 1, w)
        assert ctrl.buffers.in_use == 0

    def test_pool_sized_five_per_disk(self):
        env, ctrl = make_controller("raid5", n=4)
        assert ctrl.buffers.capacity == 25  # 5 disks x 5

    def test_no_deadlock_under_write_burst(self):
        """Regression: concurrent parity updates must not deadlock on
        the buffer pool (hold-and-wait)."""
        env, ctrl = make_controller("raid5", n=4)
        finished = []

        def writer(env, lb):
            yield from ctrl.handle(lb, 1, True)
            finished.append(lb)

        for lb in range(0, 200, 3):
            env.process(writer(env, lb))
        env.run(until=60_000)
        assert len(finished) == len(range(0, 200, 3))
        assert ctrl.buffers.in_use == 0


@pytest.mark.parametrize("is_write", [False, True], ids=["read", "write"])
@pytest.mark.parametrize("org", ["base", "mirror", "raid5", "parity_striping"])
def test_request_past_capacity_fails_fast(org, is_write):
    """A request running off the end of the logical space raises instead
    of being served from a wrapped or past-the-disk address."""
    env, ctrl = make_controller(org)
    with pytest.raises(ValueError, match="outside capacity"):
        run_one(env, ctrl, ctrl.layout.logical_blocks - 1, 4, is_write)
