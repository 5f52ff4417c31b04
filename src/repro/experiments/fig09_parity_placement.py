"""Figure 9: Parity Striping parity placement (middle vs end cylinders).

§4.2.3 derives the rule: the parity area is hotter than a data area iff
``w > 1/N``; for Trace 1 (w ≈ 0.1) the cutoff is N = 10 — middle
placement should win for large N and lose for small N.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, Series
from repro.experiments.points import Point, TraceSpec
from repro.layout import ParityPlacement
from repro.models import preferred_placement

__all__ = ["points", "assemble", "SIZES"]

SIZES = [5, 10, 15, 20]
PLACEMENTS = (ParityPlacement.MIDDLE, ParityPlacement.END)


def points(scale: float = 1.0) -> list[Point]:
    return [
        Point.sim(
            "fig9",
            (which, placement.value, n),
            TraceSpec(which, scale, n=n),
            "parity_striping",
            n=n,
            parity_placement=placement,
        )
        for which in (1, 2)
        for placement in PLACEMENTS
        for n in SIZES
    ]


def assemble(scale: float, values: dict) -> list[ExperimentResult]:
    results = []
    for which, wfrac in ((1, 0.10), (2, 0.28)):
        series = [
            Series(
                placement.value,
                SIZES,
                [values[(which, placement.value, n)].mean_response_ms for n in SIZES],
            )
            for placement in PLACEMENTS
        ]
        rule = ", ".join(
            f"N={n}:{preferred_placement(n, wfrac).value}" for n in SIZES
        )
        results.append(
            ExperimentResult(
                exp_id="fig9",
                title=f"Parity placement, Parity Striping, Trace {which}",
                xlabel="array size N",
                ylabel="mean response time (ms)",
                series=series,
                notes=f"w>1/N rule predicts: {rule}",
            )
        )
    return results
