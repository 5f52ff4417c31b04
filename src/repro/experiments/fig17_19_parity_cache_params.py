"""Figures 17-19: RAID4 parity caching vs RAID5 across parameters.

Figure 17 — array size at fixed total cache ((5, 8 MB), (10, 16 MB),
(20, 32 MB)): dedicating a disk to parity does not pay at N = 5 (fewer
arms for reads) but wins from N = 10 up, the gap widening with N.

Figure 18 — trace speed: RAID4-PC's advantage grows with load; the
buffered parity disk keeps up even at 2×.

Figure 19 — striping unit (cached): U-shaped curves; Trace 2's optimum
at a smaller unit than Trace 1's because its disks run busier.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, Series
from repro.experiments.fig08_striping_unit import UNITS
from repro.experiments.points import Point, TraceSpec

__all__ = [
    "points_fig17",
    "assemble_fig17",
    "points_fig18",
    "assemble_fig18",
    "points_fig19",
    "assemble_fig19",
]

PAIR = (("raid5", "RAID5"), ("raid4", "RAID4-PC"))
FIG17_POINTS = [(5, 8.0), (10, 16.0), (20, 32.0)]
SPEEDS = [0.5, 1.0, 2.0]


def points_fig17(scale: float = 1.0) -> list[Point]:
    return [
        Point.sim(
            "fig17",
            (which, org, n),
            TraceSpec(which, scale, n=n),
            org,
            n=n,
            cached=True,
            cache_mb=cache_mb,
        )
        for which in (1, 2)
        for org, _ in PAIR
        for n, cache_mb in FIG17_POINTS
    ]


def assemble_fig17(scale: float, values: dict) -> list[ExperimentResult]:
    results = []
    xs = [n for n, _ in FIG17_POINTS]
    for which in (1, 2):
        series = [
            Series(
                label, xs, [values[(which, org, n)].mean_response_ms for n, _ in FIG17_POINTS]
            )
            for org, label in PAIR
        ]
        results.append(
            ExperimentResult(
                exp_id="fig17",
                title=f"RAID4-PC vs RAID5 across array sizes, Trace {which}",
                xlabel="array size N (cache = 1.6 MB x N)",
                ylabel="mean response time (ms)",
                series=series,
            )
        )
    return results


def points_fig18(scale: float = 1.0) -> list[Point]:
    return [
        Point.sim(
            "fig18", (which, org, speed), TraceSpec(which, scale, speed=speed), org, cached=True
        )
        for which in (1, 2)
        for org, _ in PAIR
        for speed in SPEEDS
    ]


def assemble_fig18(scale: float, values: dict) -> list[ExperimentResult]:
    results = []
    for which in (1, 2):
        series = [
            Series(
                label,
                SPEEDS,
                [values[(which, org, speed)].mean_response_ms for speed in SPEEDS],
            )
            for org, label in PAIR
        ]
        results.append(
            ExperimentResult(
                exp_id="fig18",
                title=f"RAID4-PC vs RAID5 across trace speeds, Trace {which}",
                xlabel="trace speed",
                ylabel="mean response time (ms)",
                series=series,
            )
        )
    return results


def points_fig19(scale: float = 1.0) -> list[Point]:
    return [
        Point.sim(
            "fig19", (which, org, su), TraceSpec(which, scale), org,
            striping_unit=su, cached=True,
        )
        for which in (1, 2)
        for org, _ in PAIR
        for su in UNITS
    ]


def assemble_fig19(scale: float, values: dict) -> list[ExperimentResult]:
    results = []
    for which in (1, 2):
        series = [
            Series(label, UNITS, [values[(which, org, su)].mean_response_ms for su in UNITS])
            for org, label in PAIR
        ]
        results.append(
            ExperimentResult(
                exp_id="fig19",
                title=f"Striping unit (cached), RAID4-PC and RAID5, Trace {which}",
                xlabel="striping unit (blocks)",
                ylabel="mean response time (ms)",
                series=series,
            )
        )
    return results
