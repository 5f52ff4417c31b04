"""Heterogeneous Disk Array sweep: allocation policy x VA mix.

The paper evaluates one organization at a time over identical disks.
A Heterogeneous Disk Array (HDA) instead carves one disk pool into
Virtual Arrays with different RAID levels — the transaction-processing
sweet spot being hot, small-write data on a mirrored VA of fast disks
and the cold bulk on RAID5 over stock disks (Thomasian & Xu).

``ext-hda`` sweeps the placement policy (first-fit / bandwidth-balanced
/ capacity-balanced) against two mirror+RAID5 splits of the Trace-2
database over a 16-stock + 4-fast disk pool:

* the pool lists the stock disks first, so **first-fit** strands the
  fast disks idle and the hot mirror lands on stock spindles — the
  naive baseline;
* **bandwidth** places the hottest VA (accesses per spindle) on the
  fastest disks first, so the mirror claims the fast disks;
* **capacity** best-fits by demanded blocks; the half-capacity mirror
  VA fits the smaller fast disks, the full-capacity RAID5 VA cannot.

The workload concentrates 75% of accesses (and, via the write-skew
knob, an even larger share of the small writes) on the mirror VA's
address range, so per-VA p95 and the fast/stock utilization split show
what each policy buys.  The experiment is a grid over Trace 2: one curve
per mix, one x per policy; the VAs, the pool and the generator
overrides (``hda``) ride in each cell.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Mapping, Tuple

from repro.experiments.grid import Curve, Grid, Panel, extra
from repro.layout import POLICIES
from repro.sim import (
    DiskParams,
    DiskPoolEntry,
    Organization,
    SystemConfig,
    VAConfig,
)
from repro.trace.synthetic import DEFAULT_BLOCKS_PER_DISK

__all__ = ["FAST", "SLOW", "POOL", "HOT_BPD", "HDA"]

#: Stock Table-1 disk (5400 rpm, 11.2 ms average seek, 226 800 blocks).
SLOW = DiskParams()

#: Faster, smaller disk class: higher rpm and quicker arm, but 24
#: surfaces instead of 30 — 181 440 blocks, too small to host a
#: full-capacity RAID5 member (which needs 221 760), roomy enough for
#: the half-capacity mirror VA.  That asymmetry is what makes the
#: three policies genuinely diverge.
FAST = DiskParams(rpm=7200.0, average_seek_ms=8.5, maximal_seek_ms=18.0,
                  settle_ms=1.5, surfaces=24)

#: Stock disks first: a declaration-order (first-fit) placement never
#: reaches the fast disks, which is exactly the baseline worth showing.
POOL = (DiskPoolEntry(SLOW, 16), DiskPoolEntry(FAST, 4))

#: Blocks per mirror-VA disk: half a stock disk, so two mirror spindles
#: carry one logical disk's worth of data and the VA fits on FAST.
HOT_BPD = DEFAULT_BLOCKS_PER_DISK // 2

#: Access share of (hot mirror, cold RAID5) VAs, and the extra
#: concentration of writes onto the hot VA (share ** skew).
_VA_WEIGHTS = (3.0, 1.0)
_WRITE_SKEW = 2.0


def _mix(mirror_n: int, raid5_n: int) -> Tuple[str, Dict[str, Any]]:
    """One split of the database, labelled, and its cell: *mirror_n*
    primaries on a mirror VA of twice as many disks, *raid5_n* data
    disks on a RAID5 VA of one more."""
    trace_disks = (mirror_n * HOT_BPD // DEFAULT_BLOCKS_PER_DISK, raid5_n)
    return f"m{mirror_n}+r{raid5_n}", {
        "org": "base",  # label only; the VAs carry the organizations
        "vas": (
            VAConfig(Organization.MIRROR, mirror_n, name="hot",
                     blocks_per_disk=HOT_BPD, heat=_VA_WEIGHTS[0]),
            VAConfig(Organization.RAID5, raid5_n, name="cold"),
        ),
        "pool": POOL,
        # The generator's logical disks per VA, at the stock block count.
        "hda": (
            ("ndisks", sum(trace_disks)),
            ("va_disks", trace_disks),
            ("va_weights", _VA_WEIGHTS),
            ("va_write_skew", _WRITE_SKEW),
        ),
        "keep_samples": True,
    }


#: The two splits swept: a minimal hot tier (one logical disk mirrored
#: over 2+2 spindles) and a deeper one (two logical disks over 4+4).
_MIXES = (_mix(2, 8), _mix(4, 6))


def _class_util(fast: bool):
    """The metric of the mean utilization (%) of the fast or the stock
    disks under the cell's placement.

    Each placed disk is attributed its VA's mean utilization (the
    per-point extras carry per-VA, not per-disk, numbers); unplaced
    pool slots idle at 0, which is the point — first-fit strands the
    fast disks.
    """

    def metric(cell: Mapping[str, Any], value) -> float:
        extras = dict(value.extras)
        placed = SystemConfig(
            organization=Organization.BASE, blocks_per_disk=DEFAULT_BLOCKS_PER_DISK,
            vas=cell["vas"], pool=cell["pool"], allocation=cell["allocation"],
        ).resolve_disk_params()
        busy = sum(
            extras.get(f"va{vi}_util", math.nan)
            for vi, params in enumerate(placed)
            for p in params
            if (p == FAST) == fast
        )
        disks = sum(e.count for e in cell["pool"] if (e.disk == FAST) == fast)
        return 100.0 * (busy / disks)

    return metric


HDA = Grid(
    "ext-hda", "Heterogeneous arrays: allocation policy x VA mix", cost=3, traces=(2,),
    panels=(
        Panel(
            "Per-VA p95 vs allocation policy (Trace {trace}, mirror+RAID5 HDA)",
            tuple(
                Curve(f"{key} {label}", cell, extra(f"va{vi}_p95_ms"))
                for key, cell in _MIXES
                for vi, label in enumerate(("hot mirror", "cold RAID5"))
            ),
            ylabel="p95 response time (ms)",
            notes=(
                f"pool {POOL[0].count} stock + {POOL[1].count} fast disks; "
                f"hot VA draws {_VA_WEIGHTS[0] / sum(_VA_WEIGHTS):.0%} of "
                f"accesses, writes skewed harder (skew {_WRITE_SKEW})"
            ),
        ),
        Panel(
            "Overall mean response vs allocation policy",
            tuple(Curve(key, cell) for key, cell in _MIXES),
        ),
        Panel(
            "Disk-class utilization vs allocation policy",
            tuple(
                Curve(f"{key} {cls}", cell, _class_util(cls == "fast"))
                for key, cell in _MIXES
                for cls in ("fast", "slow")
            ),
            ylabel="mean utilization (%)",
            notes=(
                "per-disk figure approximated by its VA's mean "
                "utilization; unplaced pool slots count as idle"
            ),
        ),
    ),
    xs=tuple((policy, {"allocation": policy}) for policy in POLICIES),
    xlabel="allocation policy",
)
