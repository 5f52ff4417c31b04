"""Randomized structural properties of every layout.

The layouts are the simulator's address arithmetic; a single off-by-one
silently corrupts every downstream figure.  These tests sweep the whole
(small) logical space of randomly-shaped layouts and assert the global
properties the per-case unit tests can't cover:

* the logical → physical map is injective and inverts exactly;
* data and parity never collide, and parity never shares a disk with a
  block it protects;
* RAID5's rotation spreads parity evenly across all disks, while RAID4
  concentrates it on the dedicated disk (the Fig. 6/7 contrast).
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.layout import (
    BaseLayout,
    MirrorLayout,
    ParityStripingLayout,
    Raid4Layout,
    Raid5Layout,
)

su_st = st.sampled_from([1, 2, 4, 8])
n_st = st.integers(min_value=2, max_value=6)


def make_layouts(n, bpd, su):
    return [
        BaseLayout(n, bpd),
        MirrorLayout(n, bpd),
        Raid5Layout(n, bpd, striping_unit=su),
        Raid4Layout(n, bpd, striping_unit=su),
        ParityStripingLayout(n, bpd),
    ]


class TestMappingIsABijection:
    @given(n=n_st, su=su_st)
    @settings(max_examples=40, deadline=None)
    def test_every_logical_block_maps_to_exactly_one_location(self, n, su):
        bpd = 5 * su * (n + 1)  # keep rows whole for the striped layouts
        for layout in make_layouts(n, bpd, su):
            seen = set()
            for lb in range(layout.logical_blocks):
                addr = layout.map_block(lb)
                assert 0 <= addr.disk < layout.ndisks
                assert 0 <= addr.block < bpd
                key = (addr.disk, addr.block)
                assert key not in seen, f"{layout!r}: collision at {key}"
                seen.add(key)
                # The inverse mapping agrees.
                assert layout.logical_of(addr.disk, addr.block) == lb
                # Data blocks are never classified as parity.
                assert not layout.is_parity_block(addr.disk, addr.block)

    @given(n=n_st, su=su_st)
    @settings(max_examples=40, deadline=None)
    def test_unmapped_physical_blocks_are_exactly_the_parity_blocks(self, n, su):
        bpd = 3 * su * (n + 1)
        for layout in make_layouts(n, bpd, su):
            if not layout.has_parity:
                continue
            data = {
                (layout.map_block(lb).disk, layout.map_block(lb).block)
                for lb in range(layout.logical_blocks)
            }
            for disk in range(layout.ndisks):
                for pb in range(bpd):
                    is_data = (disk, pb) in data
                    assert layout.is_parity_block(disk, pb) == (not is_data)
                    assert (layout.logical_of(disk, pb) is not None) == is_data


class TestParityPlacement:
    @given(n=n_st, su=su_st)
    @settings(max_examples=40, deadline=None)
    def test_parity_never_shares_a_disk_with_its_data(self, n, su):
        bpd = 4 * su * (n + 1)
        for layout in make_layouts(n, bpd, su):
            if not layout.has_parity:
                continue
            for lb in range(layout.logical_blocks):
                addr = layout.map_block(lb)
                parity = layout.parity_of(lb)
                assert parity is not None
                assert parity.disk != addr.disk
                assert layout.is_parity_block(parity.disk, parity.block)

    @given(n=n_st, su=su_st)
    @settings(max_examples=40, deadline=None)
    def test_raid5_rotation_covers_all_disks_evenly(self, n, su):
        rows_per_cycle = n + 1
        bpd = 2 * su * rows_per_cycle  # two full rotation cycles
        layout = Raid5Layout(n, bpd, striping_unit=su)
        counts = Counter()
        for disk in range(layout.ndisks):
            for pb in range(bpd):
                if layout.is_parity_block(disk, pb):
                    counts[disk] += 1
        assert set(counts) == set(range(layout.ndisks))
        assert len(set(counts.values())) == 1, f"uneven rotation: {counts}"

    @given(n=n_st, su=su_st)
    @settings(max_examples=40, deadline=None)
    def test_raid4_concentrates_parity_on_one_disk(self, n, su):
        bpd = 3 * su * (n + 1)
        layout = Raid4Layout(n, bpd, striping_unit=su)
        for disk in range(layout.ndisks):
            held = sum(layout.is_parity_block(disk, pb) for pb in range(bpd))
            assert held == (bpd if disk == layout.parity_disk else 0)

    @given(n=n_st)
    @settings(max_examples=30, deadline=None)
    def test_parity_striping_group_members_share_offsets(self, n):
        bpd = 6 * (n + 1)
        layout = ParityStripingLayout(n, bpd)
        for lb in range(layout.logical_blocks):
            parity = layout.parity_of(lb)
            # Parity lives in the dedicated parity area of its disk.
            area = parity.block // layout.area_blocks
            assert area == layout.parity_area_index


class TestMirrorPairing:
    @given(n=n_st)
    @settings(max_examples=30, deadline=None)
    def test_mirror_of_is_a_fixed_point_free_involution(self, n):
        layout = MirrorLayout(n, 24)
        for d in range(layout.ndisks):
            m = layout.mirror_of(d)
            assert m != d
            assert layout.mirror_of(m) == d

    @given(n=n_st)
    @settings(max_examples=30, deadline=None)
    def test_pair_members_hold_the_same_block_number(self, n):
        layout = MirrorLayout(n, 24)
        for lb in range(0, layout.logical_blocks, 7):
            a = layout.map_block(lb)
            assert layout.logical_of(a.disk, a.block) == lb
            assert layout.logical_of(layout.mirror_of(a.disk), a.block) == lb
