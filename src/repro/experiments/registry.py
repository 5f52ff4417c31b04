"""Registry of all experiments, in the order ``all`` runs them.

Every experiment has

``points(scale) -> list[Point]``
    the independent (trace x organization x sweep-value) cells, and
``assemble(scale, values: dict[key, PointValue]) -> list[ExperimentResult]``
    the pure merge of evaluated cells back into figures.

Every experiment that simulates is a :class:`~repro.experiments.grid.Grid`
declaration, data only: the paper's figures and four extensions here;
Table 3 and the rebuild, scrub and HDA sweeps in the modules that hold
the schedules, disk pools and metrics they use.  The artifacts that
simulate nothing (the parameter tables, the skew histograms, the
reliability table) are :class:`Experiment` records: no points, and a
``compute`` that makes the result.  All of them run through
:func:`repro.experiments.parallel.run_campaign`, serially or over worker
processes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Union

from repro.experiments.points import Point, PointValue

from repro.experiments import tables
from repro.experiments import fig06_07_skew
from repro.experiments import extensions
from repro.experiments import ext_failure
from repro.experiments import ext_hda
from repro.experiments.common import ExperimentResult
from repro.experiments.grid import Curve, Grid, Panel
from repro.layout import ParityPlacement
from repro.models import preferred_placement

__all__ = ["Experiment", "EXPERIMENTS", "get_experiment", "run_experiment"]


@dataclass(frozen=True)
class Experiment:
    """A registered paper artifact that simulates nothing."""

    exp_id: str
    title: str
    #: ``compute(scale)``: the artifact's results.
    compute: Callable[[float], List[ExperimentResult]]
    #: Rough relative cost (1 = seconds, 3 = minutes at default scale).
    cost: int = 1

    def points(self, scale: float) -> List[Point]:
        """None: nothing here is simulated."""
        return []

    def assemble(
        self, scale: float, values: Dict[tuple, PointValue]
    ) -> List[ExperimentResult]:
        """The computed results (*values* is empty)."""
        return self.compute(scale)


def _sweep(field: str, values) -> tuple:
    """x values that set *field* to each of *values*, labelled by value."""
    return tuple((v, {field: v}) for v in values)


def _hit_cache(sizes_mb) -> tuple:
    """Hit-ratio x values: cache sizes labelled in MB, set in 4 KB blocks."""
    return tuple((mb, {"cache_blocks": mb * 256}) for mb in sizes_mb)


def _n_and_cache(pairs) -> tuple:
    """x values that set the array size N and its cache, labelled by N."""
    return tuple((n, {"n": n, "cache_mb": mb}) for n, mb in pairs)


def _placement_rule(write_fraction: float) -> str:
    """§4.2.3: the parity area is hotter than a data area iff w > 1/N."""
    return "w>1/N rule predicts: " + ", ".join(
        f"N={n}:{preferred_placement(n, write_fraction).value}" for n in SIZES
    )


_ORG_LABELS = (
    ("base", "Base"), ("mirror", "Mirror"), ("raid5", "RAID5"), ("parity_striping", "ParStripe")
)
ORGS = tuple(Curve(label, {"org": org}) for org, label in _ORG_LABELS)
CACHED_ORGS = tuple(Curve(label, {"org": org, "cached": True}) for org, label in _ORG_LABELS)
#: RAID5 against RAID4 with parity caching (§4.4), both cached.
PC_PAIR = (
    Curve("RAID5", {"org": "raid5", "cached": True}),
    Curve("RAID4-PC", {"org": "raid4", "cached": True}),
)
SIZES = (5, 10, 15, 20)
N = _sweep("n", SIZES)
UNITS = _sweep("striping_unit", (1, 2, 4, 8, 16, 32, 64))
SPEEDS = _sweep("speed", (0.5, 1.0, 2.0))
CACHE_MB = _sweep("cache_mb", (8, 16, 32, 64))


EXPERIMENTS: dict[str, Union[Experiment, Grid]] = {
    e.exp_id: e
    for e in [
        Experiment("table1", "Disk and channel parameters", tables.table1),
        Experiment("table2", "Trace characteristics", tables.table2),
        tables.TABLE3,
        Experiment("table4", "Default parameters", tables.table4),
        Grid("fig4", "Synchronization policies vs N", cost=3,
             panels=tuple(
                 Panel(f"Sync policies, {label}, Trace {{trace}}",
                       tuple(Curve(p, {"sync_policy": p})
                             for p in ("SI", "RF", "RF/PR", "DF", "DF/PR")),
                       cell={"org": org})
                 for org, label in (("raid5", "RAID5"), ("parity_striping", "ParStripe"))
             ),
             xs=N, xlabel="array size N"),
        Grid("fig5", "Array size, uncached orgs", cost=3,
             panels=(Panel("Response time vs array size (uncached), Trace {trace}", ORGS),),
             xs=N, xlabel="array size N"),
        Experiment("fig6", "Disk access skew, Base", fig06_07_skew.run_fig6),
        Experiment("fig7", "Disk access skew, RAID5", fig06_07_skew.run_fig7),
        Grid("fig8", "Striping unit, uncached RAID5",
             panels=(Panel("RAID5 striping unit (uncached), Trace {trace}",
                           (Curve("RAID5", {"org": "raid5"}),)),),
             xs=UNITS, xlabel="striping unit (blocks)"),
        Grid("fig9", "Parity placement, ParStripe", cost=3,
             panels=(Panel("Parity placement, Parity Striping, Trace {trace}",
                           tuple(Curve(p.value, {"org": "parity_striping", "parity_placement": p})
                                 for p in (ParityPlacement.MIDDLE, ParityPlacement.END)),
                           notes={1: _placement_rule(0.10), 2: _placement_rule(0.28)}),),
             xs=N, xlabel="array size N"),
        Grid("fig10", "Trace speed, uncached orgs", cost=3,
             panels=(Panel("Response time vs trace speed (uncached), Trace {trace}", ORGS),),
             xs=SPEEDS, xlabel="trace speed"),
        Grid("fig11", "Hit ratios vs cache size",
             panels=(Panel("Hit ratios vs cache size, Trace {trace}", (
                 Curve("read (Base/Mirror)", {"mode": "plain"}, "read_hit_ratio"),
                 Curve("read (parity orgs)", {"mode": "parity"}, "read_hit_ratio"),
                 Curve("write (Base/Mirror)", {"mode": "plain"}, "write_hit_ratio"),
                 Curve("write (parity orgs)", {"mode": "parity"}, "write_hit_ratio"),
             ), ylabel="hit ratio"),),
             xs=_hit_cache((8, 16, 32, 64, 128, 256)), xlabel="cache size (MB)"),
        Grid("fig12", "Cache size, cached orgs", cost=3,
             panels=(Panel("Response time vs cache size (cached), Trace {trace}", CACHED_ORGS),),
             xs=CACHE_MB, xlabel="cache size (MB)"),
        Grid("fig13", "Array size, fixed total cache", cost=3,
             panels=(Panel("Array size at fixed total cache (cached), Trace {trace}",
                           CACHED_ORGS),),
             xs=_n_and_cache(((5, 8.0), (10, 16.0), (15, 24.0))),
             xlabel="array size N (cache = 1.6 MB x N per array)"),
        Grid("fig14", "Striping unit, cached RAID5",
             panels=(Panel("RAID5 striping unit (cached, 16 MB), Trace {trace}",
                           (Curve("RAID5 cached", {"org": "raid5", "cached": True}),)),),
             xs=UNITS, xlabel="striping unit (blocks)"),
        Grid("fig15", "Hit ratios, RAID4-PC vs RAID5",
             panels=(Panel("Hit ratios, RAID5 vs RAID4 parity caching, Trace {trace}", (
                 Curve("read RAID5", {"mode": "parity"}, "read_hit_ratio"),
                 Curve("read RAID4-PC", {"mode": "raid4pc"}, "read_hit_ratio"),
                 Curve("write RAID5", {"mode": "parity"}, "write_hit_ratio"),
                 Curve("write RAID4-PC", {"mode": "raid4pc"}, "write_hit_ratio"),
             ), ylabel="hit ratio"),),
             xs=_hit_cache((8, 16, 32, 64)), xlabel="cache size (MB)"),
        Grid("fig16", "Cache size, RAID4-PC vs RAID5",
             panels=(Panel("Response time vs cache size, RAID4-PC vs RAID5, Trace {trace}",
                           PC_PAIR),),
             xs=CACHE_MB, xlabel="cache size (MB)"),
        Grid("fig17", "Array size, RAID4-PC vs RAID5", cost=3,
             panels=(Panel("RAID4-PC vs RAID5 across array sizes, Trace {trace}", PC_PAIR),),
             xs=_n_and_cache(((5, 8.0), (10, 16.0), (20, 32.0))),
             xlabel="array size N (cache = 1.6 MB x N)"),
        Grid("fig18", "Trace speed, RAID4-PC vs RAID5", cost=3,
             panels=(Panel("RAID4-PC vs RAID5 across trace speeds, Trace {trace}", PC_PAIR),),
             xs=SPEEDS, xlabel="trace speed"),
        Grid("fig19", "Striping unit, RAID4-PC vs RAID5", cost=3,
             panels=(Panel("Striping unit (cached), RAID4-PC and RAID5, Trace {trace}",
                           PC_PAIR),),
             xs=UNITS, xlabel="striping unit (blocks)"),
        # Extensions beyond the paper's figures.
        extensions.REBUILD,
        # §3.4's periodic vs basic-LRU write-back, plus the decoupled
        # policy the paper suggests investigating.
        Grid("ext-destage", "Destage policy comparison", cost=3,
             panels=(Panel("Destage policies, cached RAID5, Trace {trace}",
                           tuple(Curve(p, {"org": "raid5", "cached": True, "destage_policy": p})
                                 for p in ("periodic", "lru_demand", "decoupled")),
                           notes="paper: periodic always beats the basic LRU policy"),),
             xs=_sweep("cache_mb", (8, 16, 32)), xlabel="cache size (MB)"),
        # The conclusions' future work: a finer parity grain balances the
        # parity-update load while data keeps its seek affinity.
        Grid("ext-parity-grain", "Fine-grained parity striping",
             panels=(Panel("Fine-grained parity striping, Trace {trace}",
                           (Curve("response", {}),),
                           notes="grain spreads parity-update load while data stays sequential"),),
             xs=(
                 ("ParStripe classic", {"org": "parity_striping"}),
                 ("ParStripe grain=1", {"org": "parity_striping", "parity_grain": 1}),
                 ("ParStripe grain=8", {"org": "parity_striping", "parity_grain": 8}),
                 ("RAID5 su=1", {"org": "raid5"}),
             ),
             xlabel="organization"),
        # What the paper's "no spindle synchronization" assumption is worth.
        Grid("ext-spindle", "Spindle synchronization",
             panels=(Panel("Spindle synchronization, Trace {trace}",
                           (Curve("mirror", {"org": "mirror"}), Curve("raid5", {"org": "raid5"})),
                           notes="the paper assumes unsynchronized spindles"),),
             xs=(("unsynced", {"spindle_sync": False}), ("synced", {"spindle_sync": True})),
             xlabel="spindles"),
        Grid("ext-scheduler", "FCFS vs SSTF disk scheduling",
             panels=(Panel("Disk queue discipline, Trace {trace}",
                           (Curve("base", {"org": "base"}), Curve("raid5", {"org": "raid5"}))),),
             xs=(("fcfs", {"disk_scheduler": "fcfs"}), ("sstf", {"disk_scheduler": "sstf"})),
             xlabel="discipline"),
        Experiment("ext-reliability", "MTTDL / storage overhead", extensions.run_reliability),
        ext_failure.REBUILD_RATE,
        ext_failure.SCRUB,
        ext_hda.HDA,
    ]
}


def get_experiment(exp_id: str) -> Union[Experiment, Grid]:
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
