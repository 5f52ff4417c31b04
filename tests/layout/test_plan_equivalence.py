"""Request planning equals the per-block reference, run for run.

``read_runs``, ``runs_of`` and ``write_plan`` must produce exactly what
mapping each logical block on its own and coalescing the addresses with
:func:`merge_runs` produces.  The write-plan reference below is the
straightforward per-block formulation of the Base, Mirror and striped
planners: every data and reconstruct-read run is ``merge_runs`` over
``map_block`` of the blocks it covers.  Hypothesis draws requests over
the whole logical space of small arrays of every layout, weighted
towards the disk, row, area and grain boundaries where runs split.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.layout import (
    BaseLayout,
    MirrorLayout,
    ParityPlacement,
    ParityStripingLayout,
    Raid4Layout,
    Raid5Layout,
    Run,
    WriteGroup,
    WriteMode,
)
from repro.layout.common import merge_runs
from repro.layout.striped import StripedParityLayout

#: Divisible by N+1 for every N in 2..6 and by every striping unit.
BPD = 840
NS = range(2, 7)
STRIPING_UNITS = (1, 2, 4, 8)


def _divisors(x):
    return [d for d in range(1, x) if x % d == 0]


ALL_KINDS = ("base", "mirror", "raid5", "raid4", "parstripe")
#: Layouts whose planner maps block by block (parity striping plans
#: whole area spans arithmetically).
PER_BLOCK_PLANNERS = ("base", "mirror", "raid5", "raid4")


@st.composite
def layouts(draw, kinds=ALL_KINDS):
    kind = draw(st.sampled_from(kinds))
    n = draw(st.sampled_from(NS))
    if kind == "base":
        return BaseLayout(n, BPD)
    if kind == "mirror":
        return MirrorLayout(n, BPD)
    if kind in ("raid5", "raid4"):
        su = draw(st.sampled_from(STRIPING_UNITS))
        cls = Raid5Layout if kind == "raid5" else Raid4Layout
        return cls(n, BPD, striping_unit=su)
    placement = draw(st.sampled_from(list(ParityPlacement)))
    area = BPD // (n + 1)
    grain = draw(st.none() | st.sampled_from(_divisors(area)))
    return ParityStripingLayout(n, BPD, placement=placement, parity_grain=grain)


def _boundaries(layout):
    """Logical block numbers where a request's runs may split."""
    steps = [layout.blocks_per_disk]
    if isinstance(layout, StripedParityLayout):
        steps += [layout.striping_unit, layout.row_blocks]
    if isinstance(layout, ParityStripingLayout):
        steps += [layout.area_blocks, layout.data_blocks_per_disk]
        if layout.parity_grain is not None:
            steps.append(layout.parity_grain)
    cap = layout.logical_blocks
    return sorted({b for step in steps for b in range(0, cap + 1, step)})


@st.composite
def requests(draw, kinds=ALL_KINDS):
    """``(layout, lstart, nblocks)`` anywhere in the logical space."""
    layout = draw(layouts(kinds))
    cap = layout.logical_blocks
    near = st.sampled_from(_boundaries(layout)).flatmap(
        lambda b: st.integers(b - 2, b + 2)
    )
    lstart = draw(st.integers(0, cap - 1) | near)
    lstart = min(max(lstart, 0), cap - 1)
    room = cap - lstart
    end = draw(
        st.integers(1, min(room, 40)).map(lambda k: lstart + k)
        | st.integers(1, room).map(lambda k: lstart + k)
        | near.map(lambda e: min(max(e, lstart + 1), cap))
    )
    return layout, lstart, end - lstart


def _per_block(layout, blocks):
    return merge_runs([layout.map_block(b) for b in blocks])


def reference_write_plan(layout, lstart, nblocks):
    """The per-block write planners of Base, Mirror and the striped layouts."""
    end = lstart + nblocks
    if isinstance(layout, (BaseLayout, MirrorLayout)):
        return [WriteGroup(mode=WriteMode.PLAIN, data_runs=_per_block(layout, range(lstart, end)))]
    assert isinstance(layout, StripedParityLayout)
    su = layout.striping_unit
    row_blocks = layout.row_blocks
    groups = []
    for row in range(lstart // row_blocks, (end - 1) // row_blocks + 1):
        row_lo = row * row_blocks
        row_hi = row_lo + row_blocks
        a, b = max(lstart, row_lo), min(end, row_hi)
        covered = b - a
        data_runs = _per_block(layout, range(a, b))
        p_disk = layout.parity_disk_of_row(row)
        if covered == row_blocks:
            parity = [Run(p_disk, row * su, su)]
            groups.append(WriteGroup(WriteMode.FULL, data_runs=data_runs, parity_runs=parity))
            continue
        offsets = {x % su for x in range(a, b)} if covered < su else set(range(su))
        lo, hi = min(offsets), max(offsets) + 1
        parity = [Run(p_disk, row * su + lo, hi - lo)]
        if 2 * covered >= row_blocks:  # read-modify-write below half a row
            others = [x for x in range(row_lo, row_hi) if not a <= x < b]
            groups.append(
                WriteGroup(
                    WriteMode.RECONSTRUCT,
                    data_runs=data_runs,
                    read_runs=_per_block(layout, others),
                    parity_runs=parity,
                )
            )
        else:
            groups.append(WriteGroup(WriteMode.RMW, data_runs=data_runs, parity_runs=parity))
    return groups


def _assert_same_groups(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.mode is w.mode
        assert g.data_runs == w.data_runs
        assert g.read_runs == w.read_runs
        assert g.parity_runs == w.parity_runs


@given(requests(), st.data())
@settings(max_examples=400, deadline=None)
def test_read_runs_equal_per_block_merge(request, data):
    layout, lstart, nblocks = request
    blocks = range(lstart, lstart + nblocks)
    assert layout.read_runs(lstart, nblocks) == _per_block(layout, blocks)
    # A partial cache miss plans the request's blocks minus the resident
    # ones: an ascending subset with holes anywhere.
    holes = data.draw(
        st.lists(st.tuples(st.integers(0, nblocks - 1), st.integers(1, 16)), max_size=8)
    )
    resident = {lstart + i for at, k in holes for i in range(at, at + k)}
    missed = [b for b in blocks if b not in resident]
    assert layout.runs_of(missed) == _per_block(layout, missed)


@given(requests(PER_BLOCK_PLANNERS))
@settings(max_examples=400, deadline=None)
def test_write_plan_equals_per_block_reference(request):
    layout, lstart, nblocks = request
    _assert_same_groups(
        layout.write_plan(lstart, nblocks),
        reference_write_plan(layout, lstart, nblocks),
    )

