"""Simulation validation: invariant checking, replay and golden regression.

Opt-in (``run_trace(..., validate=True)``) runtime verification of the
simulator's physics:

* :class:`ValidationMonitor` subscribes pluggable
  :class:`InvariantChecker` s to the probe taps of
  :data:`repro.obs.probes.TAPS` and hooks the kernel's event loop;
* the stock checkers guard request conservation, parity-group
  consistency, cache accounting, resource sanity and the failed disk
  (no access may reach a block a disk failure took);
* :func:`verify_replay` enforces the determinism contract (same seed ⇒
  bit-identical results);
* :mod:`repro.validate.golden` snapshots results for regression
  fixtures under ``tests/golden/``.

The probes cost one ``is not None`` check per tap when validation is
off, so the default path is unaffected.
"""

from repro.validate.cache_accounting import CacheAccountingChecker
from repro.validate.checker import CheckContext, InvariantChecker, InvariantViolation
from repro.validate.conservation import RequestConservationChecker
from repro.validate.failed_disk import FailedDiskChecker
from repro.validate.golden import (
    GoldenMismatch,
    compare_snapshots,
    diff_snapshots,
    load_snapshot,
    save_snapshot,
    snapshot,
)
from repro.validate.monitor import ValidationMonitor, default_checkers
from repro.validate.parity import ParityConsistencyChecker
from repro.validate.replay import ReplayMismatch, result_fingerprint, verify_replay
from repro.validate.resources import ResourceSanityChecker

__all__ = [
    "CacheAccountingChecker",
    "CheckContext",
    "FailedDiskChecker",
    "InvariantChecker",
    "InvariantViolation",
    "RequestConservationChecker",
    "GoldenMismatch",
    "compare_snapshots",
    "diff_snapshots",
    "load_snapshot",
    "save_snapshot",
    "snapshot",
    "ValidationMonitor",
    "default_checkers",
    "ParityConsistencyChecker",
    "ReplayMismatch",
    "result_fingerprint",
    "verify_replay",
    "ResourceSanityChecker",
]
