"""Failure-domain scenario subsystem.

Deterministic fault injection for the reproduction: declarative
:class:`FailureSchedule` timelines (disk failures, spare arrivals,
latent sector errors, periodic scrubbing) driven into the DES by a
:class:`FailureInjector`, background :class:`RebuildProcess` /
:class:`ScrubProcess` activity competing with foreground traffic, and a
per-run :class:`FailureReport` summarizing the outcome.  The failure
state lives in the uncached controllers of :mod:`repro.array.uncached`,
which degrade gracefully instead of crashing; every block's redundancy
group comes from its layout
(:meth:`~repro.layout.common.Layout.reconstruction_sources`).

Entry point: ``run_trace(config, workload, failures=FailureSchedule(...))``
— see :mod:`repro.sim.runner`.  The experiment drivers ``ext-rebuild``
(array size), ``ext-rebuild-rate`` and ``ext-scrub`` sweep the scenario
knobs (array size, rebuild rate, scrub interval) as registered
campaigns.
"""

from repro.failure.degraded import RebuildProcess
from repro.failure.errors import DataLossError, FailureScheduleError
from repro.failure.injector import FailureInjector
from repro.failure.report import FailureReport, RebuildStats, ScrubStats, build_report
from repro.failure.schedule import (
    DiskFailure,
    FailureSchedule,
    LatentError,
    ScrubPolicy,
    SpareArrival,
)
from repro.failure.scrub import ScrubProcess

__all__ = [
    "DataLossError",
    "DiskFailure",
    "FailureInjector",
    "FailureReport",
    "FailureSchedule",
    "FailureScheduleError",
    "LatentError",
    "RebuildProcess",
    "RebuildStats",
    "ScrubPolicy",
    "ScrubProcess",
    "ScrubStats",
    "SpareArrival",
    "build_report",
]
