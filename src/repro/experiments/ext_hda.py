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
what each policy buys.  The experiment rides the standard point
machinery: ``--jobs`` fan-out, result-store memoization and manifests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.experiments.common import ExperimentResult, Series
from repro.experiments.points import Point, TraceSpec
from repro.layout import POLICIES
from repro.sim import (
    DiskParams,
    DiskPoolEntry,
    Organization,
    SystemConfig,
    VAConfig,
)
from repro.trace.synthetic import DEFAULT_BLOCKS_PER_DISK

__all__ = [
    "points",
    "assemble",
    "FAST",
    "SLOW",
    "POOL",
    "HOT_BPD",
    "MIXES",
]

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


@dataclass(frozen=True)
class VAMix:
    """One way to split the database between the mirror and RAID5 VAs."""

    key: str
    mirror_n: int  # primaries; the VA occupies 2x this many disks
    raid5_n: int  # data disks; the VA occupies this + 1 disks

    @property
    def vas(self) -> Tuple[VAConfig, ...]:
        return (
            VAConfig(Organization.MIRROR, self.mirror_n, name="hot",
                     blocks_per_disk=HOT_BPD, heat=_VA_WEIGHTS[0]),
            VAConfig(Organization.RAID5, self.raid5_n, name="cold"),
        )

    @property
    def trace_disks(self) -> Tuple[int, int]:
        """Logical (trace) disks per VA at the stock block count."""
        return (
            self.mirror_n * HOT_BPD // DEFAULT_BLOCKS_PER_DISK,
            self.raid5_n,
        )

    @property
    def hda(self) -> Tuple[Tuple[str, Any], ...]:
        """Sorted generator overrides for :class:`TraceSpec`."""
        return (
            ("ndisks", sum(self.trace_disks)),
            ("va_disks", self.trace_disks),
            ("va_weights", _VA_WEIGHTS),
            ("va_write_skew", _WRITE_SKEW),
        )


#: The two splits swept: a minimal hot tier (one logical disk mirrored
#: over 2+2 spindles) and a deeper one (two logical disks over 4+4).
MIXES = [VAMix("m2+r8", 2, 8), VAMix("m4+r6", 4, 6)]


def _system_config(mix: VAMix, policy: str) -> SystemConfig:
    """The config a point builds — reused by assemble() for placements."""
    return SystemConfig(
        organization=Organization.BASE,
        blocks_per_disk=DEFAULT_BLOCKS_PER_DISK,
        vas=mix.vas,
        pool=POOL,
        allocation=policy,
    )


def points(scale: float = 1.0) -> List[Point]:
    return [
        Point.sim(
            "ext-hda",
            (mix.key, policy),
            TraceSpec(2, scale, hda=mix.hda),
            "base",  # label only; the VAs carry the organizations
            vas=mix.vas,
            pool=POOL,
            allocation=policy,
            keep_samples=True,
        )
        for mix in MIXES
        for policy in POLICIES
    ]


def _class_utils(mix: VAMix, policy: str, extras: Dict[str, float]) -> Dict[str, float]:
    """Mean utilization of each disk class under one placement.

    Each placed disk is attributed its VA's mean utilization (the
    per-point extras carry per-VA, not per-disk, numbers); unplaced
    pool slots idle at 0, which is the point — first-fit strands the
    fast disks.
    """
    sums = {"fast": 0.0, "slow": 0.0}
    counts = {"fast": 0, "slow": 0}
    for entry in POOL:
        counts["fast" if entry.disk == FAST else "slow"] += entry.count
    assigned = _system_config(mix, policy).resolve_disk_params()
    for vi, params in enumerate(assigned):
        util = extras.get(f"va{vi}_util", math.nan)
        for p in params:
            sums["fast" if p == FAST else "slow"] += util
    return {cls: sums[cls] / counts[cls] for cls in sums}


def assemble(scale: float, values: dict) -> List[ExperimentResult]:
    policies = list(POLICIES)

    def extra(mix: VAMix, policy: str, name: str) -> float:
        return dict(values[(mix.key, policy)].extras).get(name, math.nan)

    va_labels = ["hot mirror", "cold RAID5"]
    p95_series = [
        Series(f"{mix.key} {label}", policies,
               [extra(mix, p, f"va{vi}_p95_ms") for p in policies])
        for mix in MIXES
        for vi, label in enumerate(va_labels)
    ]
    mean_series = [
        Series(mix.key, policies,
               [values[(mix.key, p)].mean_response_ms for p in policies])
        for mix in MIXES
    ]
    util_series = []
    for mix in MIXES:
        per_policy = [
            _class_utils(mix, p, dict(values[(mix.key, p)].extras))
            for p in policies
        ]
        for cls in ("fast", "slow"):
            util_series.append(
                Series(f"{mix.key} {cls}", policies,
                       [100.0 * u[cls] for u in per_policy])
            )
    return [
        ExperimentResult(
            exp_id="ext-hda",
            title="Per-VA p95 vs allocation policy (Trace 2, mirror+RAID5 HDA)",
            xlabel="allocation policy",
            ylabel="p95 response time (ms)",
            series=p95_series,
            notes=(
                f"pool {POOL[0].count} stock + {POOL[1].count} fast disks; "
                f"hot VA draws {_VA_WEIGHTS[0] / sum(_VA_WEIGHTS):.0%} of "
                f"accesses, writes skewed harder (skew {_WRITE_SKEW})"
            ),
        ),
        ExperimentResult(
            exp_id="ext-hda",
            title="Overall mean response vs allocation policy",
            xlabel="allocation policy",
            ylabel="mean response time (ms)",
            series=mean_series,
        ),
        ExperimentResult(
            exp_id="ext-hda",
            title="Disk-class utilization vs allocation policy",
            xlabel="allocation policy",
            ylabel="mean utilization (%)",
            series=util_series,
            notes=(
                "per-disk figure approximated by its VA's mean "
                "utilization; unplaced pool slots count as idle"
            ),
        ),
    ]
