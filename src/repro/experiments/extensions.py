"""Two extensions beyond the paper's figures.

* ``ext-reliability`` — the introduction's MTTDL and storage-overhead
  trade-off, computed.
* ``ext-rebuild`` — degraded-mode and rebuild performance vs array size
  (the §4.2.1 remark that "large arrays... have worse performance
  during reconstruction"), a grid.

The other parameter-sweep extensions (``ext-destage``,
``ext-parity-grain``, ``ext-spindle``, ``ext-scheduler``) are grids in
:mod:`repro.experiments.registry`.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, Series
from repro.experiments.grid import Curve, Grid, Panel, extra
from repro.failure import FailureSchedule

__all__ = ["run_reliability", "REBUILD"]


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


#: Blocks per disk the rebuild sweeps: the active slice, to keep
#: runtimes proportional.
_REBUILD_SLICE = 40_000

#: Disk 0 of the first array fails at t=0 and a spare arrives at once.
_FAILURE = FailureSchedule.single_failure(
    disk=0, spare_after_ms=0.0, rebuild_blocks=_REBUILD_SLICE
)

#: Healthy vs degraded and rebuilding RAID5 arrays vs N, on Trace 2 at
#: half the campaign scale.
REBUILD = Grid(
    "ext-rebuild", "Degraded mode + rebuild vs N", cost=3, traces=(2,), trace_scale=0.5,
    panels=(Panel(
        "RAID5 degraded-mode response and rebuild time vs N (Trace {trace})",
        (
            Curve("healthy rt", {}),
            Curve("during rebuild rt", {"failures": _FAILURE}),
            Curve("rebuild duration/1000", {"failures": _FAILURE}, extra("rebuild_ms", 1000.0)),
        ),
        cell={"org": "raid5"},
        ylabel="ms",
        notes=(
            f"disk 0 of the first array fails at t=0, a spare arrives at "
            f"once, and the rebuild sweeps a fixed {_REBUILD_SLICE // 1000}k-block "
            f"slice per disk"
        ),
    ),),
    xs=tuple((n, {"n": n}) for n in (5, 10, 15)),
    xlabel="array size N",
)
