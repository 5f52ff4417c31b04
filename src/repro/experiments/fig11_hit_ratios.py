"""Figure 11: cache hit ratios vs cache size.

Read and write hit ratios for the parity organizations (which retain
old copies of dirtied blocks) against the non-parity ones, per trace.

Expected shape (§4.3): write hit ratio far above read hit ratio;
Trace 1's write hit ratio near 1 for large caches; the parity
organizations' read hit ratio a few percent below the non-parity ones
at small caches, the gap shrinking as the cache grows.

Hit ratios are measured with the fast cache-only replay
(:mod:`repro.cache.fastsim`), so larger traces are affordable here.  The
replay is synchronous (a missed block is resident from the request's
arrival and destage is instant) and reads higher than the full
simulation: 0.3-1.0 points of read and 0.5-2.1 points of write hit
ratio on the configurations measured in that module (Base on Trace 2
at scale 0.25 with 8 MB: 7.8% read hits against the DES's 6.7%).
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, Series
from repro.experiments.points import Point, TraceSpec, run_points

__all__ = ["run", "points", "assemble", "CACHE_MB"]

CACHE_MB = [8, 16, 32, 64, 128, 256]
BLOCKS_PER_MB = 256


def points(scale: float = 1.0) -> list[Point]:
    # Hit ratios benefit from longer traces; the fast simulator affords
    # 4x the timing experiments' default.
    return [
        Point.hitratio(
            "fig11", (which, mode, mb), TraceSpec(which, scale * 4), mb * BLOCKS_PER_MB, mode
        )
        for which in (1, 2)
        for mode in ("plain", "parity")
        for mb in CACHE_MB
    ]


def assemble(scale: float, values: dict) -> list[ExperimentResult]:
    results = []
    for which in (1, 2):
        results.append(
            ExperimentResult(
                exp_id="fig11",
                title=f"Hit ratios vs cache size, Trace {which}",
                xlabel="cache size (MB)",
                ylabel="hit ratio",
                series=[
                    Series(
                        "read (Base/Mirror)",
                        CACHE_MB,
                        [values[(which, "plain", mb)].read_hit_ratio for mb in CACHE_MB],
                    ),
                    Series(
                        "read (parity orgs)",
                        CACHE_MB,
                        [values[(which, "parity", mb)].read_hit_ratio for mb in CACHE_MB],
                    ),
                    Series(
                        "write (Base/Mirror)",
                        CACHE_MB,
                        [values[(which, "plain", mb)].write_hit_ratio for mb in CACHE_MB],
                    ),
                    Series(
                        "write (parity orgs)",
                        CACHE_MB,
                        [values[(which, "parity", mb)].write_hit_ratio for mb in CACHE_MB],
                    ),
                ],
            )
        )
    return results


def run(scale: float = 1.0) -> list[ExperimentResult]:
    return assemble(scale, run_points(points(scale)))
