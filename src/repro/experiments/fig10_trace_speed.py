"""Figure 10: response time vs trace speed (non-cached, N = 10).

§4.2.4: RAID5 degrades gracefully with load and does better than
mirrors at 2×; Parity Striping (and to a lesser degree Base) degrade
severely; at 0.5× with little queueing Base beats RAID5 on Trace 2.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, Series
from repro.experiments.fig05_array_size import ORGS
from repro.experiments.points import Point, TraceSpec

__all__ = ["points", "assemble", "SPEEDS"]

SPEEDS = [0.5, 1.0, 2.0]


def points(scale: float = 1.0) -> list[Point]:
    return [
        Point.sim("fig10", (which, org, speed), TraceSpec(which, scale, speed=speed), org)
        for which in (1, 2)
        for org, _ in ORGS
        for speed in SPEEDS
    ]


def assemble(scale: float, values: dict) -> list[ExperimentResult]:
    results = []
    for which in (1, 2):
        series = [
            Series(
                label,
                SPEEDS,
                [values[(which, org, speed)].mean_response_ms for speed in SPEEDS],
            )
            for org, label in ORGS
        ]
        results.append(
            ExperimentResult(
                exp_id="fig10",
                title=f"Response time vs trace speed (uncached), Trace {which}",
                xlabel="trace speed",
                ylabel="mean response time (ms)",
                series=series,
            )
        )
    return results
