"""VAConfig / heterogeneous SystemConfig semantics.

Covers the config-layer half of the HDA refactor: VA validation, the
legacy-shaped ``va_view`` projection, span arithmetic, pool resolution
through the allocation policies, and the ``with_`` regression — a
piecemeal update must be validated exactly like a fresh construction.
"""

import pytest

from repro.layout import AllocationError
from repro.sim import (
    DiskParams,
    DiskPoolEntry,
    Organization,
    SystemConfig,
    VAConfig,
)

from tests.hda.util import BPD, HOT_BPD, hda_config, hda_vas

FAST = DiskParams(rpm=7200.0, average_seek_ms=8.5, maximal_seek_ms=18.0,
                  settle_ms=1.5, surfaces=24)


class TestVAConfig:
    def test_ndisks_by_organization(self):
        assert VAConfig(Organization.BASE, 4).ndisks == 4
        assert VAConfig(Organization.MIRROR, 4).ndisks == 8
        assert VAConfig(Organization.RAID5, 4).ndisks == 5
        assert VAConfig(Organization.PARITY_STRIPING, 4).ndisks == 5

    def test_label_defaults_to_organization(self):
        assert VAConfig(Organization.RAID5, 4).label == "raid5"
        assert VAConfig(Organization.RAID5, 4, name="cold").label == "cold"

    @pytest.mark.parametrize(
        "kw",
        [
            dict(n=0),
            dict(striping_unit=0),
            dict(blocks_per_disk=0),
            dict(heat=0.0),
            dict(heat=-1.0),
            dict(parity_grain=0),
            dict(cache_mb=0.0),
        ],
    )
    def test_validation(self, kw):
        base = dict(organization=Organization.RAID5, n=4)
        base.update(kw)
        with pytest.raises(ValueError):
            VAConfig(**base)


class TestHeterogeneousConfig:
    def test_spans_and_totals(self):
        cfg = hda_config()
        assert cfg.heterogeneous
        assert cfg.va_spans == (2 * HOT_BPD, 3 * BPD)
        assert cfg.total_logical_blocks == 4 * BPD
        assert cfg.organization_label == "hda(mirror+raid5)"

    def test_va_view_is_legacy_shaped(self):
        cfg = hda_config()
        hot = cfg.va_view(0)
        assert not hot.heterogeneous
        assert hot.organization is Organization.MIRROR
        assert hot.n == 2
        assert hot.blocks_per_disk == HOT_BPD
        cold = cfg.va_view(1)
        assert cold.organization is Organization.RAID5
        assert cold.blocks_per_disk == BPD

    def test_homogeneous_helpers_reject_hda(self):
        cfg = hda_config()
        with pytest.raises(ValueError):
            cfg.make_layout()
        with pytest.raises(ValueError):
            cfg.arrays_for(4)
        with pytest.raises(ValueError):
            SystemConfig(organization=Organization.RAID5, n=4).total_logical_blocks

    def test_pool_requires_vas(self):
        with pytest.raises(ValueError):
            SystemConfig(
                organization=Organization.RAID5,
                pool=(DiskPoolEntry(DiskParams(), 4),),
            )

    def test_unknown_allocation_rejected(self):
        with pytest.raises(ValueError):
            hda_config(allocation="greedy")


class TestPoolResolution:
    def test_without_pool_uses_va_disks(self):
        slow = DiskParams()
        cfg = hda_config(vas=(
            VAConfig(Organization.MIRROR, 2, blocks_per_disk=HOT_BPD, disk=FAST),
            VAConfig(Organization.RAID5, 3),
        ))
        assigned = cfg.resolve_disk_params()
        assert assigned == [[FAST] * 4, [slow] * 4]

    def test_bandwidth_policy_gives_hot_va_the_fast_disks(self):
        cfg = hda_config(
            vas=hda_vas(heat=3.0),
            pool=(DiskPoolEntry(DiskParams(), 6), DiskPoolEntry(FAST, 4)),
            allocation="bandwidth",
        )
        assigned = cfg.resolve_disk_params()
        assert assigned[0] == [FAST] * 4  # hot mirror: 4 disks, all fast
        assert FAST not in assigned[1]

    def test_first_fit_takes_pool_order(self):
        cfg = hda_config(
            vas=hda_vas(),
            pool=(DiskPoolEntry(DiskParams(), 6), DiskPoolEntry(FAST, 4)),
            allocation="first_fit",
        )
        assigned = cfg.resolve_disk_params()
        assert assigned[0] == [DiskParams()] * 4  # stock disks come first

    def test_infeasible_pool_raises(self):
        cfg = hda_config(pool=(DiskPoolEntry(DiskParams(), 4),))
        with pytest.raises(AllocationError):
            cfg.resolve_disk_params()  # 8 disks demanded, 4 slots


class TestWithValidation:
    """``with_`` must produce a validated config (regression: it used
    to hand back configs the builders later choked on)."""

    def test_valid_update_round_trips(self):
        cfg = SystemConfig(organization=Organization.RAID5, n=4)
        assert cfg.with_(striping_unit=4).striping_unit == 4

    @pytest.mark.parametrize(
        "kw",
        [
            dict(striping_unit=0),
            dict(blocks_per_disk=0),
            dict(n=0),
            dict(block_bytes=0),
            dict(channel_mb_per_s=0.0),
            dict(track_buffers_per_disk=0),
            dict(parity_grain=0),
            dict(allocation="bogus"),
        ],
    )
    def test_invalid_update_raises(self, kw):
        cfg = SystemConfig(organization=Organization.RAID5, n=4)
        with pytest.raises(ValueError):
            cfg.with_(**kw)

    def test_invalid_update_on_hda_config_raises(self):
        with pytest.raises(ValueError):
            hda_config().with_(allocation="bogus")
