"""VAConfig / heterogeneous SystemConfig semantics.

Covers the config-layer half of the HDA refactor: VA validation, the
single-organization ``va_view`` projection and what a VA inherits, the
one array list (``arrays_for``) that uniform and heterogeneous systems
share, pool resolution through the allocation policies, and the
``dataclasses.replace`` regression — a piecemeal update must be
validated exactly like a fresh construction.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.analytic import solve_trace
from repro.des import Environment
from repro.layout import AllocationError, ParityPlacement
from repro.sim import (
    DiskParams,
    DiskPoolEntry,
    Organization,
    SystemConfig,
    VAConfig,
    build_system,
    run_trace,
)

from tests.hda.util import BPD, HOT_BPD, hda_config, hda_vas, poisson_trace

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
            dict(blocks_per_disk=0),
            dict(heat=0.0),
            dict(heat=-1.0),
            # Settings a VA inherits are validated once, on the system.
            dict(striping_unit=0),
            dict(parity_grain=0),
            dict(cache_mb=0.0),
        ],
    )
    def test_validation(self, kw):
        own = {k: v for k, v in kw.items() if k in ("n", "blocks_per_disk", "heat")}
        inherited = {k: v for k, v in kw.items() if k not in own}
        with pytest.raises(ValueError):
            hda_config(vas=(VAConfig(Organization.RAID5, **{"n": 4, **own}),), **inherited)


class TestHeterogeneousConfig:
    def test_spans_and_totals(self):
        cfg = hda_config()
        assert cfg.heterogeneous
        arrays = cfg.arrays_for(4)
        assert [acfg.n * acfg.blocks_per_disk for acfg, _ in arrays] == [
            2 * HOT_BPD, 3 * BPD
        ]
        assert sum(acfg.n * acfg.blocks_per_disk for acfg, _ in arrays) == 4 * BPD
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
            cfg.disks_per_array
        with pytest.raises(ValueError):
            SystemConfig(organization=Organization.RAID5, n=4).resolve_disk_params()

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
    """``dataclasses.replace`` must produce a validated config
    (regression: a functional update used to hand back configs the
    builders later choked on)."""

    def test_valid_update_round_trips(self):
        cfg = SystemConfig(organization=Organization.RAID5, n=4)
        assert replace(cfg, striping_unit=4).striping_unit == 4

    @pytest.mark.parametrize(
        "kw",
        [
            dict(striping_unit=0),
            dict(blocks_per_disk=0),
            dict(n=0),
            dict(cache_mb=0.0),
            dict(destage_period_ms=0.0),
            dict(sync_policy="bogus"),
            dict(parity_grain=0),
            dict(allocation="bogus"),
        ],
    )
    def test_invalid_update_raises(self, kw):
        cfg = SystemConfig(organization=Organization.RAID5, n=4)
        with pytest.raises(ValueError):
            replace(cfg, **kw)

    def test_invalid_update_on_hda_config_raises(self):
        with pytest.raises(ValueError):
            replace(hda_config(), allocation="bogus")


class TestOneShape:
    """Uniform and heterogeneous systems are one list of arrays."""

    def test_cached_vas_are_refused_naming_both_fields(self):
        with pytest.raises(ValueError, match=r"cached=True.*vas"):
            hda_config(cached=True)

    def test_va_inherits_the_system_settings(self):
        cfg = hda_config(
            striping_unit=4,
            parity_placement=ParityPlacement.END,
            parity_grain=8,
            sync_policy="SI",
        )
        for vi in range(len(cfg.vas)):
            view = cfg.va_view(vi)
            assert view.striping_unit == 4
            assert view.parity_placement is ParityPlacement.END
            assert view.parity_grain == 8
            assert view.sync_policy == "SI"
            assert not view.cached
        # The inherited striping unit reaches the built RAID5 VA.
        system = build_system(Environment(), cfg, cfg.arrays_for(4))
        assert system.controllers[1].layout.striping_unit == 4

    def test_uniform_list_is_copies_of_the_config(self):
        cfg = SystemConfig(organization=Organization.RAID5, n=3, blocks_per_disk=BPD)
        arrays = cfg.arrays_for(12)
        assert len(arrays) == 4
        for acfg, disks in arrays:
            assert acfg is cfg
            assert disks == [cfg.disk] * 4
        # Routing by the cumulative spans gives every block the divmod
        # route, in the analytic decomposition and in the built system.
        per_array = cfg.n * cfg.blocks_per_disk
        spans = np.array([acfg.n * acfg.blocks_per_disk for acfg, _ in arrays])
        bounds = np.cumsum(spans)
        lblocks = np.arange(12 * BPD)
        owners = np.searchsorted(bounds, lblocks, side="right")
        assert (owners == lblocks // per_array).all()
        assert (lblocks - (bounds - spans)[owners] == lblocks % per_array).all()
        system = build_system(Environment(), cfg, arrays)
        assert system.spans == tuple(spans)
        for lblock in range(12 * BPD):
            idx, _, local = system.controller_for(lblock)
            assert (idx, local) == divmod(lblock, per_array)

    @pytest.mark.parametrize(
        "cfg,ndisks",
        [
            (hda_config(), 3),
            (hda_config(), 5),
            (SystemConfig(organization=Organization.RAID5, n=3, blocks_per_disk=BPD), 4),
        ],
        ids=["hda-short", "hda-long", "uniform-indivisible"],
    )
    def test_space_mismatch_raises_one_message_from_both_backends(self, cfg, ndisks):
        trace = poisson_trace(0.02, ndisks=ndisks, n=200)
        with pytest.raises(ValueError) as des:
            run_trace(cfg, trace)
        with pytest.raises(ValueError) as analytic:
            solve_trace(cfg, trace)
        assert str(des.value) == str(analytic.value)
        assert f"{ndisks} disks x {BPD} blocks/disk" in str(des.value)
