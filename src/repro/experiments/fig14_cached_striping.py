"""Figure 14: striping unit for the *cached* RAID5 organization.

§4.3.3: the cached array runs at lighter disk load, so larger striping
units become attractive — the Trace 1 optimum moves to ~16 blocks
(vs 8 uncached); Trace 2's optimum stays at 1 block (low hit ratio).
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, Series
from repro.experiments.fig08_striping_unit import UNITS
from repro.experiments.points import Point, TraceSpec

__all__ = ["points", "assemble"]


def points(scale: float = 1.0) -> list[Point]:
    return [
        Point.sim(
            "fig14", (which, su), TraceSpec(which, scale), "raid5",
            striping_unit=su, cached=True,
        )
        for which in (1, 2)
        for su in UNITS
    ]


def assemble(scale: float, values: dict) -> list[ExperimentResult]:
    return [
        ExperimentResult(
            exp_id="fig14",
            title=f"RAID5 striping unit (cached, 16 MB), Trace {which}",
            xlabel="striping unit (blocks)",
            ylabel="mean response time (ms)",
            series=[
                Series(
                    "RAID5 cached",
                    UNITS,
                    [values[(which, su)].mean_response_ms for su in UNITS],
                )
            ],
        )
        for which in (1, 2)
    ]
