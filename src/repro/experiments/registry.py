"""Registry of all experiments (one per paper table/figure).

Every experiment registers

``points(scale) -> list[Point]``
    the independent (trace x organization x sweep-value) cells, and
``assemble(scale, values: dict[key, PointValue]) -> list[ExperimentResult]``
    the pure merge of evaluated cells back into figures.

The pure-computation artifacts (the parameter tables, the skew
histograms, the reliability table) have no cells: their ``points`` is
empty and their ``assemble`` computes the result.  All of them run
through :func:`repro.experiments.parallel.run_campaign`, serially or
over worker processes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.experiments.points import Point, PointValue

from repro.experiments import tables
from repro.experiments import fig04_sync
from repro.experiments import fig05_array_size
from repro.experiments import fig06_07_skew
from repro.experiments import fig08_striping_unit
from repro.experiments import fig09_parity_placement
from repro.experiments import fig10_trace_speed
from repro.experiments import fig11_hit_ratios
from repro.experiments import fig12_cache_size
from repro.experiments import fig13_cached_array_size
from repro.experiments import fig14_cached_striping
from repro.experiments import fig15_16_parity_cache
from repro.experiments import fig17_19_parity_cache_params
from repro.experiments import extensions
from repro.experiments import ext_failure
from repro.experiments import ext_hda
from repro.experiments.common import ExperimentResult

__all__ = ["Experiment", "EXPERIMENTS", "get_experiment", "run_experiment"]


@dataclass(frozen=True)
class Experiment:
    """A registered, runnable paper artifact."""

    exp_id: str
    title: str
    #: Point decomposition (empty for pure computations).
    points: Callable[[float], List[Point]]
    assemble: Callable[[float, Dict[tuple, PointValue]], List[ExperimentResult]]
    #: Rough relative cost (1 = seconds, 3 = minutes at default scale).
    cost: int = 2


def _no_points(scale: float) -> List[Point]:
    return []


def _computed(
    compute: Callable[[float], List[ExperimentResult]]
) -> Callable[[float, Dict[tuple, PointValue]], List[ExperimentResult]]:
    """``assemble`` for an experiment that simulates nothing."""
    return lambda scale, values: compute(scale)


EXPERIMENTS: dict[str, Experiment] = {
    e.exp_id: e
    for e in [
        Experiment("table1", "Disk and channel parameters", cost=1,
                   points=_no_points, assemble=_computed(tables.table1)),
        Experiment("table2", "Trace characteristics", cost=1,
                   points=_no_points, assemble=_computed(tables.table2)),
        Experiment("table3", "Organization matrix smoke", cost=2,
                   points=tables.points_table3, assemble=tables.assemble_table3),
        Experiment("table4", "Default parameters", cost=1,
                   points=_no_points, assemble=_computed(tables.table4)),
        Experiment("fig4", "Synchronization policies vs N", cost=3,
                   points=fig04_sync.points, assemble=fig04_sync.assemble),
        Experiment("fig5", "Array size, uncached orgs", cost=3,
                   points=fig05_array_size.points, assemble=fig05_array_size.assemble),
        Experiment("fig6", "Disk access skew, Base", cost=1,
                   points=_no_points, assemble=_computed(fig06_07_skew.run_fig6)),
        Experiment("fig7", "Disk access skew, RAID5", cost=1,
                   points=_no_points, assemble=_computed(fig06_07_skew.run_fig7)),
        Experiment("fig8", "Striping unit, uncached RAID5", cost=2,
                   points=fig08_striping_unit.points, assemble=fig08_striping_unit.assemble),
        Experiment("fig9", "Parity placement, ParStripe", cost=3,
                   points=fig09_parity_placement.points, assemble=fig09_parity_placement.assemble),
        Experiment("fig10", "Trace speed, uncached orgs", cost=3,
                   points=fig10_trace_speed.points, assemble=fig10_trace_speed.assemble),
        Experiment("fig11", "Hit ratios vs cache size", cost=2,
                   points=fig11_hit_ratios.points, assemble=fig11_hit_ratios.assemble),
        Experiment("fig12", "Cache size, cached orgs", cost=3,
                   points=fig12_cache_size.points, assemble=fig12_cache_size.assemble),
        Experiment("fig13", "Array size, fixed total cache", cost=3,
                   points=fig13_cached_array_size.points, assemble=fig13_cached_array_size.assemble),
        Experiment("fig14", "Striping unit, cached RAID5", cost=2,
                   points=fig14_cached_striping.points, assemble=fig14_cached_striping.assemble),
        Experiment("fig15", "Hit ratios, RAID4-PC vs RAID5", cost=2,
                   points=fig15_16_parity_cache.points_fig15,
                   assemble=fig15_16_parity_cache.assemble_fig15),
        Experiment("fig16", "Cache size, RAID4-PC vs RAID5", cost=2,
                   points=fig15_16_parity_cache.points_fig16,
                   assemble=fig15_16_parity_cache.assemble_fig16),
        Experiment("fig17", "Array size, RAID4-PC vs RAID5", cost=3,
                   points=fig17_19_parity_cache_params.points_fig17,
                   assemble=fig17_19_parity_cache_params.assemble_fig17),
        Experiment("fig18", "Trace speed, RAID4-PC vs RAID5", cost=3,
                   points=fig17_19_parity_cache_params.points_fig18,
                   assemble=fig17_19_parity_cache_params.assemble_fig18),
        Experiment("fig19", "Striping unit, RAID4-PC vs RAID5", cost=3,
                   points=fig17_19_parity_cache_params.points_fig19,
                   assemble=fig17_19_parity_cache_params.assemble_fig19),
        # Extensions beyond the paper's figures.
        Experiment("ext-rebuild", "Degraded mode + rebuild vs N", cost=3,
                   points=extensions.points_rebuild, assemble=extensions.assemble_rebuild),
        Experiment("ext-destage", "Destage policy comparison", cost=3,
                   points=extensions.points_destage, assemble=extensions.assemble_destage),
        Experiment("ext-parity-grain", "Fine-grained parity striping", cost=2,
                   points=extensions.points_parity_grain, assemble=extensions.assemble_parity_grain),
        Experiment("ext-spindle", "Spindle synchronization", cost=2,
                   points=extensions.points_spindle, assemble=extensions.assemble_spindle),
        Experiment("ext-scheduler", "FCFS vs SSTF disk scheduling", cost=2,
                   points=extensions.points_scheduler, assemble=extensions.assemble_scheduler),
        Experiment("ext-reliability", "MTTDL / storage overhead", cost=1,
                   points=_no_points, assemble=_computed(extensions.run_reliability)),
        Experiment("ext-rebuild-rate", "Rebuild rate vs foreground p95", cost=3,
                   points=ext_failure.points_rebuild_rate, assemble=ext_failure.assemble_rebuild_rate),
        Experiment("ext-scrub", "Scrub interval vs latent-error exposure", cost=2,
                   points=ext_failure.points_scrub, assemble=ext_failure.assemble_scrub),
        Experiment("ext-hda", "Heterogeneous arrays: allocation policy x VA mix", cost=3,
                   points=ext_hda.points, assemble=ext_hda.assemble),
    ]
}


def get_experiment(exp_id: str) -> Experiment:
    """Look up an experiment by id.

    Accepts zero-padded and module-style aliases: ``fig05`` and
    ``fig05_array_size`` both resolve to ``fig5``.
    """
    key = exp_id.lower().strip()
    if key not in EXPERIMENTS and key.startswith("fig"):
        m = re.match(r"fig0*(\d+)", key)
        if m and "fig" + m.group(1) in EXPERIMENTS:
            key = "fig" + m.group(1)
        else:
            key = "fig" + key[3:].lstrip("0")
    try:
        return EXPERIMENTS[key]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; known: {sorted(EXPERIMENTS)}"
        ) from None


def run_experiment(exp_id: str, scale: float = 1.0) -> list[ExperimentResult]:
    """Run one experiment (serially, through the campaign engine)."""
    from repro.experiments.parallel import run_campaign

    exp_id = get_experiment(exp_id).exp_id
    return run_campaign([exp_id], scale)[exp_id]
