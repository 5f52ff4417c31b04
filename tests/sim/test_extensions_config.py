"""Tests for the extension configuration knobs: spindle phases, disk
scheduler selection, parity grain wiring."""

from dataclasses import replace

import numpy as np
import pytest

from repro.des import Environment
from repro.disk import Disk, DiskGeometry, SeekModel
from repro.disk.scheduler import FCFSScheduler, SSTFScheduler
from repro.sim import Organization, SystemConfig, build_system

BPD = 2640


class TestSpindlePhases:
    def test_phase_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            Disk(env, DiskGeometry(), SeekModel.fit(), phase=1.0)
        with pytest.raises(ValueError):
            Disk(env, DiskGeometry(), SeekModel.fit(), phase=-0.1)

    def test_phase_shifts_angle(self):
        env = Environment()
        geo = DiskGeometry()
        d0 = Disk(env, geo, SeekModel.fit(), phase=0.0)
        d5 = Disk(env, geo, SeekModel.fit(), phase=0.5)
        assert d0.angle_at(0.0) == 0.0
        assert d5.angle_at(0.0) == 0.5
        # Latency to block 0 differs by half a revolution.
        assert abs(
            d0.rotational_latency(0.0, 0) - d5.rotational_latency(0.0, 0)
        ) == pytest.approx(geo.revolution_time / 2)

    def test_unsynced_default_randomises(self):
        cfg = SystemConfig(organization=Organization.RAID5, blocks_per_disk=BPD)
        system = build_system(Environment(), cfg, cfg.arrays_for(cfg.n))
        phases = {d.phase for d in system.controllers[0].disks}
        assert len(phases) > 1

    def test_spindle_sync_zeroes_phases(self):
        cfg = SystemConfig(
            organization=Organization.RAID5, blocks_per_disk=BPD, spindle_sync=True
        )
        system = build_system(Environment(), cfg, cfg.arrays_for(cfg.n))
        assert {d.phase for d in system.controllers[0].disks} == {0.0}

    def test_phases_deterministic_by_seed(self):
        cfg = SystemConfig(organization=Organization.BASE, blocks_per_disk=BPD)
        a = build_system(Environment(), cfg, cfg.arrays_for(cfg.n))
        b = build_system(Environment(), cfg, cfg.arrays_for(cfg.n))
        assert [d.phase for d in a.controllers[0].disks] == [
            d.phase for d in b.controllers[0].disks
        ]
        seeded = replace(cfg, phase_seed=5)
        c = build_system(Environment(), seeded, seeded.arrays_for(seeded.n))
        assert [d.phase for d in a.controllers[0].disks] != [
            d.phase for d in c.controllers[0].disks
        ]


class TestSchedulerSelection:
    def test_default_fcfs(self):
        cfg = SystemConfig(blocks_per_disk=BPD)
        system = build_system(Environment(), cfg, cfg.arrays_for(cfg.n))
        assert isinstance(system.controllers[0].disks[0].scheduler, FCFSScheduler)

    def test_sstf_selected(self):
        cfg = SystemConfig(blocks_per_disk=BPD, disk_scheduler="sstf")
        system = build_system(Environment(), cfg, cfg.arrays_for(cfg.n))
        assert isinstance(system.controllers[0].disks[0].scheduler, SSTFScheduler)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(disk_scheduler="elevator")


class TestParityGrainWiring:
    def test_layout_receives_grain(self):
        cfg = SystemConfig(
            organization=Organization.PARITY_STRIPING,
            blocks_per_disk=BPD,
            parity_grain=8,
        )
        layout = cfg.make_layout()
        assert layout.parity_grain == 8

    def test_grain_none_classic(self):
        cfg = SystemConfig(
            organization=Organization.PARITY_STRIPING, blocks_per_disk=BPD
        )
        assert cfg.make_layout().parity_grain is None

    def test_end_to_end_run_with_grain(self):
        from repro.sim import run_trace
        from repro.trace import TRACE_DTYPE, Trace

        rng = np.random.default_rng(2)
        records = np.empty(200, dtype=TRACE_DTYPE)
        records["time"] = np.cumsum(rng.exponential(10.0, 200))
        records["lblock"] = rng.integers(0, 10 * BPD, 200)
        records["nblocks"] = 1
        records["is_write"] = rng.random(200) < 0.3
        trace = Trace(records, 10, BPD)
        cfg = SystemConfig(
            organization=Organization.PARITY_STRIPING,
            blocks_per_disk=BPD,
            parity_grain=4,
        )
        res = run_trace(cfg, trace)
        assert res.mean_response_ms > 0
