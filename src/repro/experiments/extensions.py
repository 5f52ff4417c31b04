"""Extension experiments beyond the paper's figures.

These exercise the features the paper mentions but does not evaluate:

* ``ext-rebuild`` — degraded-mode and rebuild performance vs array size
  (the §4.2.1 remark that "large arrays... have worse performance
  during reconstruction").
* ``ext-destage`` — the §3.4 destage-policy comparison (periodic vs
  basic LRU write-back) plus the decoupled policy the paper proposes.
* ``ext-parity-grain`` — the conclusions' future-work item: a finer
  grain for the parity in Parity Striping, to balance the parity
  update load while preserving data seek affinity.
* ``ext-spindle`` — spindle synchronization on/off ("no spindle
  synchronization is assumed"): what the assumption is worth.
* ``ext-scheduler`` — FCFS vs SSTF per-disk queue disciplines.
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
    "points_destage",
    "assemble_destage",
    "points_parity_grain",
    "assemble_parity_grain",
    "points_spindle",
    "assemble_spindle",
    "points_scheduler",
    "assemble_scheduler",
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


DESTAGE_POLICIES = ("periodic", "lru_demand", "decoupled")
DESTAGE_MB = (8, 16, 32)


def points_destage(scale: float = 1.0) -> list[Point]:
    """Periodic vs basic-LRU vs decoupled write-back (§3.4)."""
    return [
        Point.sim(
            "ext-destage",
            (which, policy, mb),
            TraceSpec(which, scale),
            "raid5",
            cached=True,
            cache_mb=mb,
            destage_policy=policy,
        )
        for which in (1, 2)
        for policy in DESTAGE_POLICIES
        for mb in DESTAGE_MB
    ]


def assemble_destage(scale: float, values: dict) -> list[ExperimentResult]:
    results = []
    for which in (1, 2):
        series = [
            Series(
                policy,
                list(DESTAGE_MB),
                [values[(which, policy, mb)].mean_response_ms for mb in DESTAGE_MB],
            )
            for policy in DESTAGE_POLICIES
        ]
        results.append(
            ExperimentResult(
                exp_id="ext-destage",
                title=f"Destage policies, cached RAID5, Trace {which}",
                xlabel="cache size (MB)",
                ylabel="mean response time (ms)",
                series=series,
                notes="paper: periodic always beats the basic LRU policy",
            )
        )
    return results


GRAIN_VARIANTS = (
    ("ParStripe classic", "parity_striping", {}),
    ("ParStripe grain=1", "parity_striping", {"parity_grain": 1}),
    ("ParStripe grain=8", "parity_striping", {"parity_grain": 8}),
    ("RAID5 su=1", "raid5", {}),
)


def points_parity_grain(scale: float = 1.0) -> list[Point]:
    """Fine-grained Parity Striping vs classic vs RAID5 (future work)."""
    return [
        Point.sim("ext-parity-grain", (which, label), TraceSpec(which, scale), org, **kw)
        for which in (1, 2)
        for label, org, kw in GRAIN_VARIANTS
    ]


def assemble_parity_grain(scale: float, values: dict) -> list[ExperimentResult]:
    results = []
    for which in (1, 2):
        labels = [label for label, _, _ in GRAIN_VARIANTS]
        results.append(
            ExperimentResult(
                exp_id="ext-parity-grain",
                title=f"Fine-grained parity striping, Trace {which}",
                xlabel="organization",
                ylabel="mean response time (ms)",
                series=[
                    Series(
                        "response",
                        labels,
                        [values[(which, label)].mean_response_ms for label in labels],
                    )
                ],
                notes="grain spreads parity-update load while data stays sequential",
            )
        )
    return results


def points_spindle(scale: float = 1.0) -> list[Point]:
    """Spindle synchronization on/off for Mirror and RAID5."""
    return [
        Point.sim(
            "ext-spindle", (which, org, sync), TraceSpec(which, scale), org, spindle_sync=sync
        )
        for which in (1, 2)
        for org in ("mirror", "raid5")
        for sync in (False, True)
    ]


def assemble_spindle(scale: float, values: dict) -> list[ExperimentResult]:
    results = []
    for which in (1, 2):
        series = [
            Series(
                org,
                ["unsynced", "synced"],
                [values[(which, org, sync)].mean_response_ms for sync in (False, True)],
            )
            for org in ("mirror", "raid5")
        ]
        results.append(
            ExperimentResult(
                exp_id="ext-spindle",
                title=f"Spindle synchronization, Trace {which}",
                xlabel="spindles",
                ylabel="mean response time (ms)",
                series=series,
                notes="the paper assumes unsynchronized spindles",
            )
        )
    return results


def points_scheduler(scale: float = 1.0) -> list[Point]:
    """FCFS vs SSTF per-disk scheduling across organizations."""
    return [
        Point.sim(
            "ext-scheduler", (which, org, s), TraceSpec(which, scale), org, disk_scheduler=s
        )
        for which in (1, 2)
        for org in ("base", "raid5")
        for s in ("fcfs", "sstf")
    ]


def assemble_scheduler(scale: float, values: dict) -> list[ExperimentResult]:
    results = []
    for which in (1, 2):
        series = [
            Series(
                org,
                ["fcfs", "sstf"],
                [values[(which, org, s)].mean_response_ms for s in ("fcfs", "sstf")],
            )
            for org in ("base", "raid5")
        ]
        results.append(
            ExperimentResult(
                exp_id="ext-scheduler",
                title=f"Disk queue discipline, Trace {which}",
                xlabel="discipline",
                ylabel="mean response time (ms)",
                series=series,
            )
        )
    return results
