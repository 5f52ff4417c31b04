"""Every layout's redundancy geometry against its own parity map.

``reconstruction_sources`` answers degraded reads, degraded write
planning, the rebuild, the scrub and the cached RAID4 full-stripe
check; ``map_parity`` answers the analytic decomposition.  Over the
whole (small) block space of randomly shaped layouts:

* a data block's sources are its ``parity_of`` plus exactly the other
  data blocks with that parity;
* a parity block's sources are exactly the data blocks whose
  ``parity_of`` it is;
* a mirror copy's one source is the other copy;
* ``map_parity`` is ``parity_of`` block by block.
"""

from collections import defaultdict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.layout import (
    MirrorLayout,
    ParityPlacement,
    ParityStripingLayout,
    PhysicalAddress,
    Raid4Layout,
    Raid5Layout,
)


@st.composite
def parity_layouts(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    # A multiple of N+1 and of 8: every striping unit and grain divides it.
    bpd = (n + 1) * 8 * draw(st.integers(min_value=1, max_value=3))
    kind = draw(st.sampled_from(["raid5", "raid4", "parity_striping"]))
    if kind == "parity_striping":
        return ParityStripingLayout(
            n,
            bpd,
            draw(st.sampled_from(list(ParityPlacement))),
            parity_grain=draw(st.sampled_from([None, 1, 8])),
        )
    cls = Raid5Layout if kind == "raid5" else Raid4Layout
    return cls(n, bpd, striping_unit=draw(st.sampled_from([1, 2, 8])))


def _sources(layout, addr):
    sources = layout.reconstruction_sources(addr.disk, addr.block)
    assert len(sources) == len(set(sources)), f"{addr}: repeated source"
    return set(sources)


@settings(deadline=None)
@given(parity_layouts())
def test_sources_are_the_parity_group(layout):
    members = defaultdict(set)  # parity block -> the data blocks it protects
    for lb in range(layout.logical_blocks):
        members[layout.parity_of(lb)].add(layout.map_block(lb))
    for lb in range(layout.logical_blocks):
        addr, parity = layout.map_block(lb), layout.parity_of(lb)
        assert _sources(layout, addr) == {parity} | (members[parity] - {addr})
    for disk in range(layout.ndisks):
        for pb in range(layout.blocks_per_disk):
            if layout.is_parity_block(disk, pb):
                addr = PhysicalAddress(disk, pb)
                assert _sources(layout, addr) == members.get(addr, set())


@settings(deadline=None)
@given(parity_layouts())
def test_map_parity_is_parity_of_block_by_block(layout):
    disks, pblocks = layout.map_parity(np.arange(layout.logical_blocks))
    expected = [layout.parity_of(lb) for lb in range(layout.logical_blocks)]
    assert [PhysicalAddress(d, b) for d, b in zip(disks.tolist(), pblocks.tolist())] == expected


@settings(deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    bpd=st.integers(min_value=1, max_value=64),
)
def test_mirror_copy_is_the_only_source(n, bpd):
    layout = MirrorLayout(n, bpd)
    for lb in range(layout.logical_blocks):
        primary = layout.map_block(lb)
        partner = PhysicalAddress(layout.mirror_of(primary.disk), primary.block)
        assert layout.reconstruction_sources(primary.disk, primary.block) == [partner]
        assert layout.reconstruction_sources(partner.disk, partner.block) == [primary]
