"""Extension experiments beyond the paper's figures, with their own code.

* ``ext-reliability`` — the introduction's MTTDL and storage-overhead
  trade-off, computed.
* ``ext-rebuild`` — degraded-mode and rebuild performance vs array size
  (the §4.2.1 remark that "large arrays... have worse performance
  during reconstruction").

The parameter-sweep extensions (``ext-destage``, ``ext-parity-grain``,
``ext-spindle``, ``ext-scheduler``) are grids in
:mod:`repro.experiments.registry`.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, Series
from repro.experiments.points import Point, TraceSpec
from repro.failure import FailureSchedule
from repro.trace import trace2_config

__all__ = [
    "run_reliability",
    "points_rebuild",
    "assemble_rebuild",
]


def run_reliability(scale: float = 1.0) -> list[ExperimentResult]:
    """The introduction's reliability/cost trade-off as a table.

    MTTDL (mean time to data loss) and storage overhead for the Trace-1
    system (130 data disks) under each organization — the numbers that
    motivate redundant arrays over both raw disks and mirrors.
    """
    from repro.models import ReliabilityModel, storage_overhead

    model = ReliabilityModel(disk_mttf_hours=100_000.0, mttr_hours=24.0)
    orgs = ["base", "mirror", "raid5", "parity_striping"]
    mttdl_years = [
        model.system_mttdl(org, 130, 10) / (24.0 * 365.0) for org in orgs
    ]
    overhead = [100.0 * storage_overhead(org, 10) for org in orgs]
    return [
        ExperimentResult(
            exp_id="ext-reliability",
            title="MTTDL and storage overhead, 130 data disks, N = 10",
            xlabel="organization",
            ylabel="MTTDL (years) / overhead (%)",
            series=[
                Series("MTTDL_years", orgs, mttdl_years),
                Series("overhead_pct", orgs, overhead),
            ],
            notes=(
                f"intro check: first failure among 150 disks every "
                f"{model.paper_intro_check(150):.1f} days (paper: < 28)"
            ),
        )
    ]


#: Array sizes of ``ext-rebuild``.
REBUILD_SIZES = (5, 10, 15)

#: Blocks per disk the ``ext-rebuild`` rebuild sweeps: the active slice,
#: to keep runtimes proportional.
_REBUILD_SLICE = 40_000


def points_rebuild(scale: float = 1.0) -> list[Point]:
    """Healthy vs degraded and rebuilding RAID5 arrays vs N (Trace 2)."""
    failure = FailureSchedule.single_failure(
        disk=0,
        spare_after_ms=0.0,
        rebuild_blocks=min(trace2_config().blocks_per_disk, _REBUILD_SLICE),
    )
    return [
        Point.sim(
            "ext-rebuild", (n, state), TraceSpec(2, scale * 0.5, n=n), "raid5", n=n, **kw
        )
        for n in REBUILD_SIZES
        for state, kw in (("healthy", {}), ("rebuild", {"failures": failure}))
    ]


def assemble_rebuild(scale: float, values: dict) -> list[ExperimentResult]:
    sizes = list(REBUILD_SIZES)

    def mean_ms(state):
        return [values[(n, state)].mean_response_ms for n in sizes]

    rebuild_s = [
        dict(values[(n, "rebuild")].extras)["rebuild_ms"] / 1000.0 for n in sizes
    ]
    return [
        ExperimentResult(
            exp_id="ext-rebuild",
            title="RAID5 degraded-mode response and rebuild time vs N (Trace 2)",
            xlabel="array size N",
            ylabel="ms",
            series=[
                Series("healthy rt", sizes, mean_ms("healthy")),
                Series("during rebuild rt", sizes, mean_ms("rebuild")),
                Series("rebuild duration/1000", sizes, rebuild_s),
            ],
            notes=(
                f"disk 0 of the first array fails at t=0, a spare arrives at "
                f"once, and the rebuild sweeps a fixed {_REBUILD_SLICE // 1000}k-block "
                f"slice per disk"
            ),
        )
    ]
