"""Unit and property tests for all array layouts.

The key invariants:

* mapping is a bijection between the logical space and the non-parity
  physical blocks;
* parity never lives on a disk that holds any of the data it protects;
* write plans cover exactly the written logical range.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.layout import (
    BaseLayout,
    MirrorLayout,
    ParityPlacement,
    ParityStripingLayout,
    Raid4Layout,
    Raid5Layout,
    WriteMode,
)

BPD = 2640  # small, divisible by 6, 11, 16, 21 and powers of two up to 16


def make_layout(kind, n=10, bpd=BPD, su=1, placement=ParityPlacement.MIDDLE):
    if kind == "base":
        return BaseLayout(n, bpd)
    if kind == "mirror":
        return MirrorLayout(n, bpd)
    if kind == "raid5":
        return Raid5Layout(n, bpd, striping_unit=su)
    if kind == "raid4":
        return Raid4Layout(n, bpd, striping_unit=su)
    if kind == "parstripe":
        return ParityStripingLayout(n, bpd, placement=placement)
    raise ValueError(kind)


ALL_KINDS = ["base", "mirror", "raid5", "raid4", "parstripe"]
PARITY_KINDS = ["raid5", "raid4", "parstripe"]


class TestShapes:
    @pytest.mark.parametrize(
        "kind,expected",
        [("base", 10), ("mirror", 20), ("raid5", 11), ("raid4", 11), ("parstripe", 11)],
    )
    def test_ndisks_table3(self, kind, expected):
        """§3.2: Base N, Mirror 2N, parity organizations N+1 disks."""
        assert make_layout(kind).ndisks == expected

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_logical_capacity(self, kind):
        assert make_layout(kind).logical_blocks == 10 * BPD

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_has_parity(self, kind):
        assert make_layout(kind).has_parity == (kind in PARITY_KINDS)

    def test_validation(self):
        with pytest.raises(ValueError):
            BaseLayout(0, BPD)
        with pytest.raises(ValueError):
            BaseLayout(1, 0)
        with pytest.raises(ValueError):
            Raid5Layout(10, BPD, striping_unit=0)
        with pytest.raises(ValueError):
            Raid5Layout(10, BPD, striping_unit=7)  # does not divide BPD
        with pytest.raises(ValueError):
            ParityStripingLayout(6, BPD)  # 7 does not divide BPD


class TestMappingInvariants:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("su", [1, 4, 16])
    def test_bijection(self, kind, su):
        """Every logical block maps to a unique in-range physical block
        and the inverse mapping recovers it."""
        layout = make_layout(kind, n=4, bpd=240, su=su)
        seen = set()
        for lb in range(layout.logical_blocks):
            addr = layout.map_block(lb)
            assert 0 <= addr.disk < layout.ndisks
            assert 0 <= addr.block < layout.blocks_per_disk
            key = (addr.disk, addr.block)
            assert key not in seen, f"collision at logical {lb}"
            seen.add(key)
            assert layout.logical_of(addr.disk, addr.block) == lb

    @pytest.mark.parametrize("kind", PARITY_KINDS)
    def test_parity_blocks_have_no_logical_address(self, kind):
        layout = make_layout(kind, n=4, bpd=240)
        for lb in range(layout.logical_blocks):
            p = layout.parity_of(lb)
            assert layout.logical_of(p.disk, p.block) is None
            assert layout.is_parity_block(p.disk, p.block)

    @pytest.mark.parametrize("kind", PARITY_KINDS)
    def test_parity_on_different_disk(self, kind):
        layout = make_layout(kind, n=4, bpd=240)
        for lb in range(layout.logical_blocks):
            assert layout.parity_of(lb).disk != layout.map_block(lb).disk

    @pytest.mark.parametrize("kind", ["base", "mirror"])
    def test_no_parity_for_unprotected(self, kind):
        layout = make_layout(kind)
        assert layout.parity_of(0) is None
        assert not layout.is_parity_block(0, 0)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_out_of_range_rejected(self, kind):
        layout = make_layout(kind)
        with pytest.raises(ValueError):
            layout.map_block(layout.logical_blocks)
        with pytest.raises(ValueError):
            layout.map_block(-1)
        with pytest.raises(ValueError):
            layout.logical_of(layout.ndisks, 0)
        assert layout.logical_of(0, layout.blocks_per_disk) is None

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("su", [1, 4])
    def test_vectorised_matches_scalar(self, kind, su):
        layout = make_layout(kind, n=4, bpd=240, su=su)
        lbs = np.arange(layout.logical_blocks)
        disks, pblocks = layout.map_blocks(lbs)
        for lb in range(0, layout.logical_blocks, 7):
            addr = layout.map_block(lb)
            assert disks[lb] == addr.disk
            assert pblocks[lb] == addr.block

    @given(st.integers(min_value=0, max_value=4 * 240 - 1), st.sampled_from([1, 2, 4, 8]))
    @settings(max_examples=200)
    def test_raid5_roundtrip_property(self, lb, su):
        layout = Raid5Layout(4, 240, striping_unit=su)
        addr = layout.map_block(lb)
        assert layout.logical_of(addr.disk, addr.block) == lb

    @given(st.integers(min_value=0, max_value=4 * 240 - 1))
    @settings(max_examples=200)
    def test_parstripe_roundtrip_property(self, lb):
        for placement in ParityPlacement:
            layout = ParityStripingLayout(4, 240, placement=placement)
            addr = layout.map_block(lb)
            assert layout.logical_of(addr.disk, addr.block) == lb


class TestRaid5Specifics:
    def test_parity_rotates_over_all_disks(self):
        layout = Raid5Layout(4, 240, striping_unit=1)
        parity_disks = {layout.parity_disk_of_row(r) for r in range(5)}
        assert parity_disks == set(range(5))

    def test_su1_consecutive_blocks_on_different_disks(self):
        layout = Raid5Layout(4, 240, striping_unit=1)
        disks = [layout.map_block(lb).disk for lb in range(4)]
        assert len(set(disks)) == 4

    def test_large_su_keeps_blocks_together(self):
        layout = Raid5Layout(4, 240, striping_unit=8)
        disks = {layout.map_block(lb).disk for lb in range(8)}
        assert len(disks) == 1

    def test_row_same_parity_block(self):
        """All data blocks of one row (su=1) share one parity block."""
        layout = Raid5Layout(4, 240, striping_unit=1)
        parities = {layout.parity_of(lb) for lb in range(4)}
        assert len(parities) == 1

    def test_striping_balances_hot_disk(self):
        """A hot logical disk's accesses spread over all physical disks."""
        layout = Raid5Layout(4, 240, striping_unit=1)
        hot = np.arange(0, 240)  # logical disk 0 in the base layout
        disks, _ = layout.map_blocks(hot)
        counts = np.bincount(disks, minlength=5)
        assert counts.min() > 0
        assert counts.max() - counts.min() <= counts.mean() * 0.5


class TestRaid4Specifics:
    def test_all_parity_on_last_disk(self):
        layout = Raid4Layout(4, 240, striping_unit=2)
        for lb in range(0, layout.logical_blocks, 3):
            assert layout.parity_of(lb).disk == 4
        assert layout.parity_disk == 4

    def test_data_never_on_parity_disk(self):
        layout = Raid4Layout(4, 240, striping_unit=2)
        for lb in range(layout.logical_blocks):
            assert layout.map_block(lb).disk < 4


class TestParityStripingSpecifics:
    def test_sequential_data_stays_on_one_disk(self):
        """No interleaving: a logical disk's worth of data is sequential."""
        layout = ParityStripingLayout(4, 240)
        dpd = layout.data_blocks_per_disk
        disks = {layout.map_block(lb).disk for lb in range(dpd)}
        assert disks == {0}

    def test_area_size(self):
        layout = ParityStripingLayout(4, 240)
        assert layout.area_blocks == 48
        assert layout.data_blocks_per_disk == 192

    def test_placement_middle_vs_end(self):
        mid = ParityStripingLayout(4, 240, placement=ParityPlacement.MIDDLE)
        end = ParityStripingLayout(4, 240, placement=ParityPlacement.END)
        assert mid.parity_area_index == 2
        assert end.parity_area_index == 4
        # End placement leaves data areas 0..N-1 in place.
        assert end.map_block(0).block == 0
        # Parity sits in the middle of the disk for MIDDLE.
        p = mid.parity_of(0)
        assert 2 * 48 <= p.block < 3 * 48

    def test_group_assignment_is_latin(self):
        """Each group has exactly one area on each other disk."""
        layout = ParityStripingLayout(4, 240)
        for g in range(5):
            members = layout.members_of_group(g)
            assert len(members) == 4
            assert {d for d, _ in members} == set(range(5)) - {g}
            # Inverse consistency.
            for d, k in members:
                assert layout.group_of(d, k) == g

    def test_group_never_own_disk(self):
        layout = ParityStripingLayout(4, 240)
        for disk in range(5):
            for k in range(4):
                assert layout.group_of(disk, k) != disk

    def test_validation_of_helpers(self):
        layout = ParityStripingLayout(4, 240)
        with pytest.raises(ValueError):
            layout.group_of(5, 0)
        with pytest.raises(ValueError):
            layout.group_of(0, 4)
        with pytest.raises(ValueError):
            layout.members_of_group(5)


class TestMirrorSpecifics:
    def test_pair_structure(self):
        layout = MirrorLayout(4, 240)
        assert layout.mirror_of(0) == 1
        assert layout.mirror_of(1) == 0
        assert layout.mirror_of(6) == 7
        with pytest.raises(ValueError):
            layout.mirror_of(8)

    def test_pair_of(self):
        layout = MirrorLayout(4, 240)
        a = layout.map_block(250)
        assert (a.disk, a.block) == (2, 10)
        assert layout.mirror_of(a.disk) == 3
        assert layout.logical_of(3, 10) == 250


class TestReadRuns:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_single_block(self, kind):
        layout = make_layout(kind, n=4, bpd=240)
        runs = layout.read_runs(17, 1)
        assert len(runs) == 1
        assert runs[0].nblocks == 1
        assert runs[0].start == layout.map_block(17).block

    def test_raid5_su1_multiblock_spreads(self):
        layout = Raid5Layout(4, 240, striping_unit=1)
        runs = layout.read_runs(0, 4)
        assert len(runs) == 4  # one block per disk

    def test_raid5_large_su_coalesces(self):
        layout = Raid5Layout(4, 240, striping_unit=8)
        runs = layout.read_runs(0, 4)
        assert len(runs) == 1
        assert runs[0].nblocks == 4

    def test_base_contiguous(self):
        layout = BaseLayout(4, 240)
        runs = layout.read_runs(10, 5)
        assert len(runs) == 1
        assert runs[0] .start == 10 and runs[0].nblocks == 5

    def test_run_validation(self):
        from repro.layout import Run

        with pytest.raises(ValueError):
            Run(0, 0, 0)
        with pytest.raises(ValueError):
            Run(0, -1, 1)
        assert Run(1, 5, 3).end == 8


class TestWritePlans:
    @pytest.mark.parametrize("kind", ["base", "mirror"])
    def test_plain_plans(self, kind):
        layout = make_layout(kind, n=4, bpd=240)
        plan = layout.write_plan(10, 3)
        assert len(plan) == 1
        assert plan[0].mode is WriteMode.PLAIN
        assert not plan[0].parity_runs
        assert sum(r.nblocks for r in plan[0].data_runs) == 3

    def test_raid5_single_block_is_rmw(self):
        layout = Raid5Layout(4, 240, striping_unit=1)
        plan = layout.write_plan(17, 1)
        assert len(plan) == 1
        g = plan[0]
        assert g.mode is WriteMode.RMW
        assert sum(r.nblocks for r in g.data_runs) == 1
        assert sum(r.nblocks for r in g.parity_runs) == 1
        assert g.parity_runs[0].disk == layout.parity_of(17).disk
        assert g.parity_runs[0].start == layout.parity_of(17).block

    def test_raid5_full_stripe(self):
        layout = Raid5Layout(4, 240, striping_unit=2)
        plan = layout.write_plan(0, 8)  # one full row: 4 units of 2 blocks
        assert len(plan) == 1
        g = plan[0]
        assert g.mode is WriteMode.FULL
        assert not g.read_runs
        assert sum(r.nblocks for r in g.data_runs) == 8
        assert sum(r.nblocks for r in g.parity_runs) == 2

    def test_raid5_reconstruct_write(self):
        layout = Raid5Layout(4, 240, striping_unit=1)
        plan = layout.write_plan(0, 3)  # 3 of 4 units -> reconstruct
        assert len(plan) == 1
        g = plan[0]
        assert g.mode is WriteMode.RECONSTRUCT
        assert sum(r.nblocks for r in g.read_runs) == 1  # the 4th unit
        # The read covers exactly the missing block.
        assert g.read_runs[0].disk == layout.map_block(3).disk

    def test_raid5_below_half_is_rmw(self):
        layout = Raid5Layout(10, 2640, striping_unit=1)
        plan = layout.write_plan(0, 4)  # 4 of 10 < half
        assert plan[0].mode is WriteMode.RMW

    def test_raid5_multirow_split(self):
        layout = Raid5Layout(4, 240, striping_unit=1)
        # Rows are 4 logical blocks; [2, 9) covers rows 0 (partial),
        # 1 (full), 2 (partial).
        plan = layout.write_plan(2, 7)
        assert len(plan) == 3
        modes = [g.mode for g in plan]
        assert modes[1] is WriteMode.FULL

    def test_plan_covers_exact_blocks(self):
        layout = Raid5Layout(4, 240, striping_unit=2)
        for start, n in [(0, 1), (3, 5), (7, 9), (230 * 4, 10)]:
            plan = layout.write_plan(start, n)
            covered = sum(sum(r.nblocks for r in g.data_runs) for g in plan)
            assert covered == n

    def test_parstripe_plan_always_rmw(self):
        layout = ParityStripingLayout(4, 240)
        plan = layout.write_plan(100, 4)
        assert all(g.mode is WriteMode.RMW for g in plan)

    def test_parstripe_plan_splits_at_area_boundary(self):
        layout = ParityStripingLayout(4, 240)  # areas of 48
        plan = layout.write_plan(46, 4)  # crosses area 0 -> 1 on disk 0
        assert len(plan) == 2
        assert plan[0].data_runs[0].nblocks == 2
        assert plan[1].data_runs[0].nblocks == 2
        # Different areas -> different parity group disks.
        assert plan[0].parity_runs[0].disk != plan[1].parity_runs[0].disk

    def test_parstripe_parity_offsets_match(self):
        layout = ParityStripingLayout(4, 240)
        plan = layout.write_plan(10, 1)
        p = layout.parity_of(10)
        assert plan[0].parity_runs[0].disk == p.disk
        assert plan[0].parity_runs[0].start == p.block

    @given(
        st.integers(min_value=0, max_value=4 * 240 - 16),
        st.integers(min_value=1, max_value=16),
        st.sampled_from([1, 2, 4, 8]),
    )
    @settings(max_examples=100)
    def test_raid5_plan_block_conservation(self, start, n, su):
        layout = Raid5Layout(4, 240, striping_unit=su)
        plan = layout.write_plan(start, n)
        covered = sum(sum(r.nblocks for r in g.data_runs) for g in plan)
        assert covered == n
        for g in plan:
            # Parity runs on a parity layout are never empty.
            assert g.parity_runs
            for r in g.parity_runs:
                # Parity run is within the row's unit range.
                assert 0 <= r.start and r.end <= layout.blocks_per_disk

    @given(
        st.integers(min_value=0, max_value=4 * 240 - 16),
        st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=100)
    def test_parstripe_plan_block_conservation(self, start, n):
        layout = ParityStripingLayout(4, 240)
        plan = layout.write_plan(start, n)
        covered = sum(sum(r.nblocks for r in g.data_runs) for g in plan)
        assert covered == n
        for g in plan:
            assert sum(r.nblocks for r in g.parity_runs) == sum(
                r.nblocks for r in g.data_runs
            )
