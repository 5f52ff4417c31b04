"""Analytic fast-solve backend (M/G/1 + fork-join, no events).

Select it with ``run_trace(..., backend="analytic")`` or
``python -m repro.experiments <id> --backend analytic``; answers arrive
in milliseconds instead of the DES's seconds-to-minutes, with accuracy
bounded by the cross-validation tolerance bands in
:mod:`repro.analytic.validation`.
"""

from repro.analytic.decompose import ArrayLoad, Branch, DiskClass, RequestClass, decompose
from repro.analytic.service import DiskServiceModel, Moments
from repro.analytic.solver import (
    AnalyticSaturationError,
    AnalyticTally,
    AnalyticUnsupportedError,
    SOLVED_VALUES,
    check_supported,
    solve_trace,
    unsupported,
)
from repro.analytic.validation import (
    CAMPAIGN_TOLERANCE,
    HDA_P95_TOLERANCE,
    TOLERANCE_BANDS,
    hda_tolerance,
    tolerance_for,
)

__all__ = [
    "AnalyticSaturationError",
    "AnalyticTally",
    "AnalyticUnsupportedError",
    "ArrayLoad",
    "Branch",
    "CAMPAIGN_TOLERANCE",
    "DiskClass",
    "DiskServiceModel",
    "HDA_P95_TOLERANCE",
    "Moments",
    "RequestClass",
    "SOLVED_VALUES",
    "TOLERANCE_BANDS",
    "check_supported",
    "decompose",
    "hda_tolerance",
    "solve_trace",
    "tolerance_for",
    "unsupported",
]
