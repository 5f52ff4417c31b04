"""Figures 15 and 16: RAID4 with parity caching vs RAID5 (cached).

Figure 15: hit ratios — buffered parity occupies cache slots, so
RAID4's hit ratio trails RAID5's slightly (visibly only for Trace 2 at
small caches).

Figure 16: response time vs cache size — RAID4-PC wins at every cache
size for N = 10; by ~1-2% on Trace 1 and up to ~15% on Trace 2 at
16 MB, the gap narrowing with cache size (§4.4.1).
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, Series
from repro.experiments.points import Point, TraceSpec

__all__ = [
    "points_fig15",
    "assemble_fig15",
    "points_fig16",
    "assemble_fig16",
    "CACHE_MB",
]

CACHE_MB = [8, 16, 32, 64]
BLOCKS_PER_MB = 256


def points_fig15(scale: float = 1.0) -> list[Point]:
    return [
        Point.hitratio(
            "fig15", (which, mode, mb), TraceSpec(which, scale * 4), mb * BLOCKS_PER_MB, mode
        )
        for which in (1, 2)
        for mode in ("parity", "raid4pc")
        for mb in CACHE_MB
    ]


def assemble_fig15(scale: float, values: dict) -> list[ExperimentResult]:
    results = []
    for which in (1, 2):
        r5 = [values[(which, "parity", mb)] for mb in CACHE_MB]
        r4 = [values[(which, "raid4pc", mb)] for mb in CACHE_MB]
        results.append(
            ExperimentResult(
                exp_id="fig15",
                title=f"Hit ratios, RAID5 vs RAID4 parity caching, Trace {which}",
                xlabel="cache size (MB)",
                ylabel="hit ratio",
                series=[
                    Series("read RAID5", CACHE_MB, [s.read_hit_ratio for s in r5]),
                    Series("read RAID4-PC", CACHE_MB, [s.read_hit_ratio for s in r4]),
                    Series("write RAID5", CACHE_MB, [s.write_hit_ratio for s in r5]),
                    Series("write RAID4-PC", CACHE_MB, [s.write_hit_ratio for s in r4]),
                ],
            )
        )
    return results


PAIR16 = (("raid5", "RAID5"), ("raid4", "RAID4-PC"))


def points_fig16(scale: float = 1.0) -> list[Point]:
    return [
        Point.sim(
            "fig16", (which, org, mb), TraceSpec(which, scale), org, cached=True, cache_mb=mb
        )
        for which in (1, 2)
        for org, _ in PAIR16
        for mb in CACHE_MB
    ]


def assemble_fig16(scale: float, values: dict) -> list[ExperimentResult]:
    results = []
    for which in (1, 2):
        series = [
            Series(
                label,
                CACHE_MB,
                [values[(which, org, mb)].mean_response_ms for mb in CACHE_MB],
            )
            for org, label in PAIR16
        ]
        results.append(
            ExperimentResult(
                exp_id="fig16",
                title=f"Response time vs cache size, RAID4-PC vs RAID5, Trace {which}",
                xlabel="cache size (MB)",
                ylabel="mean response time (ms)",
                series=series,
            )
        )
    return results
