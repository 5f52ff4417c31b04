"""Simulation outputs.

:class:`RunResult` aggregates what the paper reports: mean response time
(overall and split by direction), cache hit ratios, per-disk access
counts (Figs. 6/7), disk and channel utilizations, and destage/sync
counters for diagnosing the cached organizations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.des import Tally

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.failure.report import FailureReport
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.span import TraceData

__all__ = ["RunResult", "ArrayMetrics"]


@dataclass
class ArrayMetrics:
    """Per-array counters harvested after a run."""

    disk_accesses: np.ndarray  # completed requests per physical disk
    disk_utilization: np.ndarray
    channel_utilization: float
    read_hits: int = 0
    read_misses: int = 0
    write_hits: int = 0
    write_misses: int = 0
    sync_writebacks: int = 0
    destaged_blocks: int = 0


@dataclass
class RunResult:
    """Everything measured in one simulation run."""

    name: str
    organization: str
    n: int
    narrays: int
    simulated_ms: float
    requests: int
    warmup_ms: float
    response: Tally = field(default_factory=Tally)
    read_response: Tally = field(default_factory=Tally)
    write_response: Tally = field(default_factory=Tally)
    arrays: list[ArrayMetrics] = field(default_factory=list)
    #: Per-Virtual-Array response tallies for heterogeneous runs, in VA
    #: order (a split request counts toward its first VA).  Empty for
    #: homogeneous runs, so legacy results are unchanged.
    va_response: list[Tally] = field(default_factory=list)
    #: Kernel events scheduled during the run (0 for the analytic
    #: backend, which has no event loop).  Telemetry only — excluded
    #: from equality so it can never perturb result comparisons.
    events: int = field(default=0, compare=False)
    #: Span trace from ``run_trace(..., trace=True)``; ``None`` otherwise.
    #: Excluded from equality so instrumented results compare equal to
    #: plain ones.
    trace: Optional["TraceData"] = field(default=None, repr=False, compare=False)
    #: Metrics registry from ``run_trace(..., metrics=True)``.
    metrics: Optional["MetricsRegistry"] = field(
        default=None, repr=False, compare=False
    )
    #: Failure-scenario outcome from ``run_trace(..., failures=...)``;
    #: ``None`` for healthy runs.  Excluded from equality like the other
    #: instrumentation fields (the response statistics already reflect
    #: the scenario's performance impact).
    failures: Optional["FailureReport"] = field(
        default=None, repr=False, compare=False
    )

    # -- headline numbers -------------------------------------------------------
    @property
    def mean_response_ms(self) -> float:
        """The paper's primary metric (NaN when nothing was measured)."""
        return self.response.mean

    @property
    def p95_response_ms(self) -> float:
        """95th-percentile response (NaN when nothing was measured)."""
        if self.response.count == 0:
            return math.nan
        return self.response.percentile(95)

    @property
    def read_hit_ratio(self) -> float:
        hits = sum(a.read_hits for a in self.arrays)
        total = hits + sum(a.read_misses for a in self.arrays)
        return hits / total if total else math.nan

    @property
    def write_hit_ratio(self) -> float:
        hits = sum(a.write_hits for a in self.arrays)
        total = hits + sum(a.write_misses for a in self.arrays)
        return hits / total if total else math.nan

    @property
    def per_disk_accesses(self) -> np.ndarray:
        """Access counts for every physical disk, array-major."""
        if not self.arrays:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate([a.disk_accesses for a in self.arrays])

    @property
    def mean_disk_utilization(self) -> float:
        if not self.arrays:
            return math.nan
        return float(np.mean(np.concatenate([a.disk_utilization for a in self.arrays])))

    @property
    def max_disk_utilization(self) -> float:
        if not self.arrays:
            return math.nan
        return float(np.max(np.concatenate([a.disk_utilization for a in self.arrays])))

    def summary(self) -> str:
        """Human-readable one-run report."""
        if self.response.keeps_samples:
            p95 = f"{self.p95_response_ms:.2f} ms"
        else:
            p95 = "n/a (samples not kept)"
        lines = [
            f"{self.name}: {self.organization} N={self.n} x{self.narrays} arrays",
            f"  requests measured   {self.response.count:,} "
            f"({self.requests:,} total, warmup {self.warmup_ms:.0f} ms)",
            f"  mean response       {self.mean_response_ms:.2f} ms "
            f"(reads {self.read_response.mean:.2f}, writes {self.write_response.mean:.2f})",
            f"  p95 response        {p95}",
            f"  disk utilization    mean {self.mean_disk_utilization:.1%}, "
            f"max {self.max_disk_utilization:.1%}",
        ]
        if not math.isnan(self.read_hit_ratio):
            lines.append(
                f"  hit ratios          read {self.read_hit_ratio:.1%}, "
                f"write {self.write_hit_ratio:.1%}"
            )
        return "\n".join(lines)
