"""Tests for SystemConfig, DiskParams and system building."""

from dataclasses import replace

import pytest

from repro.des import Environment
from repro.disk.geometry import BLOCK_BYTES
from repro.layout import (
    BaseLayout,
    MirrorLayout,
    ParityStripingLayout,
    Raid4Layout,
    Raid5Layout,
)
from repro.sim import DiskParams, Organization, SystemConfig, build_system


class TestOrganizationParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("base", Organization.BASE),
            ("Mirror", Organization.MIRROR),
            ("RAID5", Organization.RAID5),
            ("raid4", Organization.RAID4),
            ("parity_striping", Organization.PARITY_STRIPING),
            ("parity-striping", Organization.PARITY_STRIPING),
            ("parstripe", Organization.PARITY_STRIPING),
        ],
    )
    def test_parse(self, text, expected):
        assert Organization.parse(text) is expected

    def test_unknown(self):
        with pytest.raises(ValueError):
            Organization.parse("raid6")


class TestDiskParams:
    def test_table1_defaults(self):
        p = DiskParams()
        assert p.rpm == 5400.0
        assert p.average_seek_ms == 11.2
        assert p.maximal_seek_ms == 28.0
        assert p.cylinders == 1260
        assert p.sectors_per_track == 48
        assert p.bytes_per_sector == 512

    def test_geometry_factory(self):
        geo = DiskParams().geometry()
        assert geo.total_blocks == 226_800

    def test_seek_model_factory(self):
        sm = DiskParams().seek_model()
        assert sm.average_seek_time() == pytest.approx(11.2)


class TestSystemConfig:
    def test_table4_defaults(self):
        cfg = SystemConfig()
        assert cfg.n == 10
        assert BLOCK_BYTES == 4096
        assert cfg.striping_unit == 1
        assert cfg.sync_policy == "DF"
        assert cfg.cache_mb == 16.0
        assert cfg.parity_placement.value == "middle"

    def test_validation(self):
        with pytest.raises(ValueError):
            SystemConfig(n=0)
        with pytest.raises(ValueError):
            SystemConfig(cache_mb=0)
        with pytest.raises(ValueError):
            SystemConfig(sync_policy="bogus")
        with pytest.raises(ValueError):
            SystemConfig(destage_policy="bogus")
        with pytest.raises(ValueError):
            SystemConfig(destage_period_ms=0)

    def test_cache_blocks(self):
        assert SystemConfig(cache_mb=16).cache_blocks == 4096

    @pytest.mark.parametrize(
        "org,disks",
        [
            (Organization.BASE, 10),
            (Organization.MIRROR, 20),
            (Organization.RAID5, 11),
            (Organization.RAID4, 11),
            (Organization.PARITY_STRIPING, 11),
        ],
    )
    def test_disks_per_array(self, org, disks):
        assert SystemConfig(organization=org).disks_per_array == disks

    @pytest.mark.parametrize(
        "org,cls",
        [
            (Organization.BASE, BaseLayout),
            (Organization.MIRROR, MirrorLayout),
            (Organization.RAID5, Raid5Layout),
            (Organization.RAID4, Raid4Layout),
            (Organization.PARITY_STRIPING, ParityStripingLayout),
        ],
    )
    def test_make_layout(self, org, cls):
        cfg = SystemConfig(organization=org, n=10, blocks_per_disk=2640)
        assert isinstance(cfg.make_layout(), cls)

    def test_arrays_for(self):
        cfg = SystemConfig(n=10)
        arrays = cfg.arrays_for(130)
        assert len(arrays) == 13
        assert all(acfg is cfg and disks == [cfg.disk] * 11 for acfg, disks in arrays)
        with pytest.raises(ValueError):
            cfg.arrays_for(7)

    def test_with_(self):
        """Sweeps derive configs with ``dataclasses.replace``."""
        cfg = SystemConfig(n=10)
        cfg2 = replace(cfg, n=5, cache_mb=8)
        assert cfg2.n == 5
        assert cfg2.cache_mb == 8
        assert cfg.n == 10  # original unchanged


class TestBuildSystem:
    def test_total_disks_equal_capacity_rule(self):
        """§3.2's cost accounting: Trace 1 at N=5 -> 26 arrays x 6 disks
        = 156 disks; at N=10 -> 13 arrays x 11 = 143 disks."""
        env = Environment()
        cfg5 = SystemConfig(organization=Organization.RAID5, n=5, blocks_per_disk=2640)
        sys5 = build_system(env, cfg5, cfg5.arrays_for(130))
        assert sys5.total_disks == 156
        cfg10 = SystemConfig(organization=Organization.RAID5, n=10, blocks_per_disk=2640)
        sys10 = build_system(Environment(), cfg10, cfg10.arrays_for(130))
        assert sys10.total_disks == 143

    def test_database_must_fit_disk(self):
        cfg = SystemConfig(blocks_per_disk=300_000)
        with pytest.raises(ValueError, match="exceeds"):
            build_system(Environment(), cfg, cfg.arrays_for(cfg.n))

    def test_needs_one_array(self):
        with pytest.raises(ValueError):
            build_system(Environment(), SystemConfig(blocks_per_disk=2640), [])

    def test_controller_routing(self):
        env = Environment()
        cfg = SystemConfig(organization=Organization.BASE, n=2, blocks_per_disk=2640)
        system = build_system(env, cfg, cfg.arrays_for(3 * cfg.n))
        idx, ctrl, local = system.controller_for(2 * 2640 + 17)
        assert idx == 1
        assert ctrl is system.controllers[1]
        assert local == 17

    def test_each_array_independent(self):
        env = Environment()
        cfg = SystemConfig(organization=Organization.RAID5, n=4, blocks_per_disk=2640)
        system = build_system(env, cfg, cfg.arrays_for(2 * cfg.n))
        a, b = system.controllers
        assert a.channel is not b.channel
        assert not set(id(d) for d in a.disks) & set(id(d) for d in b.disks)
