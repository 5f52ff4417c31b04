"""Tests for the Disk service process: exact timing of the paper's model."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.des import Environment, Event
from repro.disk import AccessKind, Disk, DiskGeometry, DiskRequest, SeekModel
from repro.disk.request import Priority
from repro.disk.scheduler import FCFSScheduler, SSTFScheduler


@pytest.fixture
def geo():
    return DiskGeometry()


@pytest.fixture
def sm():
    return SeekModel.fit()


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def disk(env, geo, sm):
    return Disk(env, geo, sm)


XFER = DiskGeometry().block_transfer_time  # 1.8518.. ms
REV = DiskGeometry().revolution_time  # 11.111.. ms


class TestRequestValidation:
    def test_nonpositive_nblocks(self):
        with pytest.raises(ValueError):
            DiskRequest(AccessKind.READ, 0, nblocks=0)

    def test_negative_start(self):
        with pytest.raises(ValueError):
            DiskRequest(AccessKind.READ, -1)

    def test_end_block(self):
        r = DiskRequest(AccessKind.READ, 10, nblocks=4)
        assert r.end_block == 14


class TestBasicTiming:
    def test_read_block0_is_pure_transfer(self, env, disk):
        """Head starts at cyl 0 angle 0; block 0 needs no seek/latency."""
        r = disk.submit(DiskRequest(AccessKind.READ, 0))
        env.run(r.done)
        assert env.now == pytest.approx(XFER)

    def test_write_same_cost_as_read(self, env, disk):
        r = disk.submit(DiskRequest(AccessKind.WRITE, 0))
        env.run(r.done)
        assert env.now == pytest.approx(XFER)

    def test_rmw_costs_exactly_one_extra_revolution(self, env, disk):
        r = disk.submit(DiskRequest(AccessKind.RMW, 0))
        env.run(r.done)
        assert env.now == pytest.approx(REV + XFER)

    def test_rmw_read_complete_fires_after_read_phase(self, env, disk):
        r = disk.submit(DiskRequest(AccessKind.RMW, 0))
        env.run(r.read_complete)
        assert env.now == pytest.approx(XFER)

    def test_rotational_latency_for_second_block(self, env, disk, geo):
        """Block 1 starts at sector 8 -> latency of 8 sector times."""
        r = disk.submit(DiskRequest(AccessKind.READ, 1))
        env.run(r.done)
        expected = 8 * geo.sector_time + XFER
        assert env.now == pytest.approx(expected)

    def test_multiblock_transfer(self, env, disk, geo):
        r = disk.submit(DiskRequest(AccessKind.READ, 0, nblocks=6))
        env.run(r.done)
        assert env.now == pytest.approx(geo.transfer_time(6))

    def test_seek_included(self, env, disk, geo, sm):
        block = geo.compose(100, 0, 0)
        r = disk.submit(DiskRequest(AccessKind.READ, block))
        env.run(r.done)
        seek = sm.seek_time(100)
        arrive = seek
        lat = disk.rotational_latency(arrive, block)
        assert env.now == pytest.approx(seek + lat + XFER)

    def test_arm_moves_to_target(self, env, disk, geo):
        block = geo.compose(500, 3, 2)
        r = disk.submit(DiskRequest(AccessKind.READ, block))
        env.run(r.done)
        assert disk.cylinder == 500

    def test_arm_parks_at_end_of_run(self, env, disk, geo):
        # A run crossing a cylinder boundary parks at the last cylinder.
        start = geo.blocks_per_cylinder - 1
        r = disk.submit(DiskRequest(AccessKind.READ, start, nblocks=2))
        env.run(r.done)
        assert disk.cylinder == 1


class TestSubmitRangeCheck:
    @pytest.mark.parametrize(
        "offset, nblocks",
        [(-1, 2), (10, 1)],
        ids=["straddles-last-block", "wholly-past-end"],
    )
    def test_rejected_at_submit_and_nothing_queued(self, env, geo, sm, offset, nblocks):
        disk = Disk(env, geo, sm, name="array0.disk7")
        req = DiskRequest(AccessKind.READ, geo.total_blocks + offset, nblocks=nblocks)
        with pytest.raises(ValueError, match=r"array0\.disk7: blocks .* past"):
            disk.submit(req)
        assert disk.pending == 0
        assert disk.queue_length.value == 0
        assert req.done is None
        # The service process is still idle and serves the next request.
        ok = disk.submit(DiskRequest(AccessKind.READ, geo.total_blocks - 1))
        env.run()
        assert ok.done.processed
        assert disk.completed == 1
        assert disk.cylinder == geo.cylinders - 1


GEO = DiskGeometry()
SEEK = SeekModel.fit()


def _reference_latency(disk, time, block):
    """``Disk.rotational_latency`` computed through the geometry's methods."""
    return ((GEO.start_angle_of(block) - disk.angle_at(time)) % 1.0) * GEO.revolution_time


class TestArithmeticMatchesGeometry:
    """The disk's precomputed constants reproduce the DiskGeometry
    reference bit for bit: ``==``, never ``approx``."""

    @pytest.mark.parametrize("phase", [0.0, 0.5])
    def test_first_cylinder_and_last_block(self, phase):
        disk = Disk(Environment(), GEO, SEEK, phase=phase)
        disk.cylinder = 7
        for block in [*range(GEO.blocks_per_cylinder), GEO.total_blocks - 1]:
            for time in (0.0, 1.0, 5.55, 123.456789, 98765.4321):
                assert disk.rotational_latency(time, block) == _reference_latency(
                    disk, time, block
                )
            assert disk.seek_distance_to(block) == abs(GEO.cylinder_of(block) - 7)

    @given(
        block=st.integers(0, GEO.total_blocks - 1),
        time=st.floats(0.0, 1e8, allow_nan=False, allow_infinity=False),
        phase=st.sampled_from([0.0, 0.5]),
    )
    def test_drawn_block_and_time(self, block, time, phase):
        disk = Disk(Environment(), GEO, SEEK, phase=phase)
        assert disk.rotational_latency(time, block) == _reference_latency(disk, time, block)

    @given(
        block=st.integers(0, GEO.total_blocks - 1),
        nblocks=st.integers(1, 12),
        phase=st.sampled_from([0.0, 0.5]),
    )
    @example(block=GEO.blocks_per_cylinder - 1, nblocks=2, phase=0.0)  # crosses a cylinder
    @example(block=GEO.total_blocks - 1, nblocks=1, phase=0.5)
    def test_service_loop_matches_reference(self, block, nblocks, phase):
        """Seek, latency, transfer and the parked arm of one access."""
        block = min(block, GEO.total_blocks - nblocks)
        env = Environment()
        disk = Disk(env, GEO, SEEK, phase=phase)
        req = disk.submit(DiskRequest(AccessKind.READ, block, nblocks=nblocks))
        env.run(req.done)
        seek = SEEK.seek_time(GEO.cylinder_of(block))  # the arm starts at cylinder 0
        arrive = seek + _reference_latency(disk, seek, block)
        assert env.now == arrive + GEO.transfer_time(nblocks)
        assert disk.seek_time_total == seek
        assert disk.cylinder == GEO.cylinder_of(block + nblocks - 1)


class TestDependencies:
    def test_rmw_spins_until_data_ready(self, env, disk):
        dep = Event(env)

        def trigger(env):
            yield env.timeout(30.0)
            dep.succeed()

        env.process(trigger(env))
        r = disk.submit(DiskRequest(AccessKind.RMW, 0, data_ready=dep))
        env.run(r.done)
        # read ends at XFER; first slot at REV; dep at 30 -> 2 extra spins
        # -> write starts at 3*REV, ends 3*REV + XFER.
        assert env.now == pytest.approx(3 * REV + XFER)
        assert r.spin_revolutions == 2

    def test_rmw_no_spin_if_ready_before_slot(self, env, disk):
        dep = Event(env)

        def trigger(env):
            yield env.timeout(5.0)  # before the REV slot
            dep.succeed()

        env.process(trigger(env))
        r = disk.submit(DiskRequest(AccessKind.RMW, 0, data_ready=dep))
        env.run(r.done)
        assert env.now == pytest.approx(REV + XFER)
        assert r.spin_revolutions == 0

    def test_dependent_write_waits(self, env, disk):
        dep = Event(env)

        def trigger(env):
            yield env.timeout(20.0)
            dep.succeed()

        env.process(trigger(env))
        r = disk.submit(DiskRequest(AccessKind.WRITE, 0, data_ready=dep))
        env.run(r.done)
        # After dep at t=20, wait for sector 0: angle(20) = .8 -> latency
        lat = disk.rotational_latency(20.0, 0)
        assert env.now == pytest.approx(20.0 + lat + XFER)

    def test_pretriggered_dependency_costs_nothing(self, env, disk):
        dep = Event(env)
        dep.succeed()
        r = disk.submit(DiskRequest(AccessKind.WRITE, 0, data_ready=dep))
        env.run(r.done)
        assert env.now == pytest.approx(XFER)


class TestQueueing:
    def test_fifo_service(self, env, disk):
        r1 = disk.submit(DiskRequest(AccessKind.READ, 0))
        r2 = disk.submit(DiskRequest(AccessKind.READ, 0))
        env.run(r2.done)
        assert r1.done.value < r2.done.value

    def test_priority_served_first(self, env, disk, geo):
        # Occupy the disk, then queue a normal and an urgent request.
        r0 = disk.submit(DiskRequest(AccessKind.READ, 0))
        env.run(r0.started)
        normal = disk.submit(DiskRequest(AccessKind.READ, 6, priority=Priority.NORMAL))
        urgent = disk.submit(
            DiskRequest(AccessKind.READ, 12, priority=Priority.PARITY_URGENT)
        )
        env.run()
        assert urgent.done.value < normal.done.value
        assert r0.done.value < urgent.done.value  # no preemption

    def test_destage_priority_yields_to_reads(self, env, disk):
        r0 = disk.submit(DiskRequest(AccessKind.READ, 0))
        destage = disk.submit(DiskRequest(AccessKind.WRITE, 6, priority=Priority.DESTAGE))
        read = disk.submit(DiskRequest(AccessKind.READ, 12))
        env.run()
        assert read.done.value < destage.done.value

    def test_started_event(self, env, disk):
        r1 = disk.submit(DiskRequest(AccessKind.READ, 0))
        r2 = disk.submit(DiskRequest(AccessKind.READ, 6))
        env.run(r2.started)
        # r2 starts service exactly when r1 completes.
        assert env.now == pytest.approx(r1.done.value)

    def test_pending_counts(self, env, disk):
        disk.submit(DiskRequest(AccessKind.READ, 0))
        disk.submit(DiskRequest(AccessKind.READ, 6))
        disk.submit(DiskRequest(AccessKind.READ, 12))
        # Nothing processed yet: service hasn't started.
        env.run(until=1e-9)
        assert disk.pending == 2  # one in service
        assert disk.in_service is not None
        env.run()
        assert disk.pending == 0
        assert disk.in_service is None

    def test_statistics(self, env, disk):
        disk.submit(DiskRequest(AccessKind.READ, 0))
        disk.submit(DiskRequest(AccessKind.WRITE, 6))
        disk.submit(DiskRequest(AccessKind.RMW, 12))
        env.run()
        assert disk.completed == 3
        assert disk.reads == 1
        assert disk.writes == 1
        assert disk.rmws == 1
        assert disk.blocks_transferred == 3
        assert disk.busy_time > 0
        assert 0 < disk.utilization() <= 1

    def test_idle_disk_starts_immediately(self, env, disk):
        def late(env):
            yield env.timeout(100.0)
            r = disk.submit(DiskRequest(AccessKind.READ, 0))
            yield r.started
            return env.now

        p = env.process(late(env))
        env.run()
        assert p.value == pytest.approx(100.0)


class TestSSTFScheduler:
    def test_picks_nearest_cylinder(self, env, geo, sm):
        disk = Disk(env, geo, sm, scheduler=SSTFScheduler(geo))
        # Occupy with a long op, then queue far and near requests.
        disk.submit(DiskRequest(AccessKind.RMW, 0))
        far = disk.submit(DiskRequest(AccessKind.READ, geo.compose(1000, 0, 0)))
        near = disk.submit(DiskRequest(AccessKind.READ, geo.compose(10, 0, 0)))
        env.run()
        assert near.done.value < far.done.value

    def test_priority_beats_distance(self, env, geo, sm):
        disk = Disk(env, geo, sm, scheduler=SSTFScheduler(geo))
        disk.submit(DiskRequest(AccessKind.RMW, 0))
        near_low = disk.submit(
            DiskRequest(AccessKind.WRITE, geo.compose(1, 0, 0), priority=Priority.DESTAGE)
        )
        far_normal = disk.submit(DiskRequest(AccessKind.READ, geo.compose(1200, 0, 0)))
        env.run()
        assert far_normal.done.value < near_low.done.value

    def test_empty_pop_raises(self, geo):
        with pytest.raises(IndexError):
            SSTFScheduler(geo).pop(0)
        with pytest.raises(IndexError):
            FCFSScheduler().pop(0)

    def test_len_and_iter(self, geo):
        s = SSTFScheduler(geo)
        r = DiskRequest(AccessKind.READ, 0)
        s.put(r)
        assert len(s) == 1
        assert list(s) == [r]
