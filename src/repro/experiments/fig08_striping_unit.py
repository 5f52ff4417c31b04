"""Figure 8: response time vs RAID5 striping unit (non-cached, N = 10).

Expected shape (§4.2.2): Trace 1 optimal around 8 blocks with little
difference from 1 to 16, degrading from 32 up; Trace 2 optimal at
1 block (load balancing dominates), degrading steadily with size.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, Series
from repro.experiments.points import Point, TraceSpec

__all__ = ["points", "assemble", "UNITS"]

UNITS = [1, 2, 4, 8, 16, 32, 64]


def points(scale: float = 1.0) -> list[Point]:
    return [
        Point.sim("fig8", (which, su), TraceSpec(which, scale), "raid5", striping_unit=su)
        for which in (1, 2)
        for su in UNITS
    ]


def assemble(scale: float, values: dict) -> list[ExperimentResult]:
    return [
        ExperimentResult(
            exp_id="fig8",
            title=f"RAID5 striping unit (uncached), Trace {which}",
            xlabel="striping unit (blocks)",
            ylabel="mean response time (ms)",
            series=[
                Series("RAID5", UNITS, [values[(which, su)].mean_response_ms for su in UNITS])
            ],
        )
        for which in (1, 2)
    ]
