"""The paper's tables and figures, and the extensions, as experiments.

Every experiment is registered in :mod:`repro.experiments.registry` —
every one that simulates as :class:`~repro.experiments.grid.Grid` data,
the computed tables and histograms as a ``compute`` function — and
runnable from the command line::

    python -m repro.experiments fig5 --scale 0.5
    python -m repro.experiments --list

``--scale`` multiplies each experiment's default trace size; the
default sizes are chosen so a figure regenerates in minutes on a
laptop.  Relative comparisons (who wins, by what factor) are stable in
scale; see EXPERIMENTS.md for recorded full runs.
"""

from repro.experiments.common import ExperimentResult, Series
from repro.experiments.registry import EXPERIMENTS, get_experiment, run_experiment

__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "Series",
    "get_experiment",
    "run_experiment",
]
