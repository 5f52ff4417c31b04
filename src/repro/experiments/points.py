"""Point decomposition of the experiments.

A campaign (``python -m repro.experiments all``) is hundreds of
independent simulation runs — (figure x trace x organization x sweep
value) cells.  The experiments describe those cells declaratively as
:class:`Point` work units, which the campaign engine in
:mod:`repro.experiments.parallel` evaluates in this process or fans out
over worker processes:

* a :class:`TraceSpec` names the workload *by construction recipe*
  (trace number, scale, speed, array size) instead of carrying a
  materialized :class:`~repro.trace.record.Trace` — the spec pickles in
  bytes, and each worker materializes it through
  :func:`~repro.experiments.common.get_trace`, which generates each base
  trace once per process;
* a :class:`Point` is one cell: the spec plus the organization and the
  ``run_trace``/``simulate_hit_ratios`` keyword overrides, tagged
  with a hashable ``key`` the experiment uses to place the value back into
  its figure;
* :func:`run_point` evaluates one cell and returns a compact, picklable
  :class:`PointValue`;
* :func:`point_key` hashes everything that decides a cell's value, so
  the engine evaluates each distinct cell once per campaign and a
  resumed campaign finds a value in its manifest by that hash.

Determinism: evaluating a point touches no shared mutable state beyond
the per-process trace memo (which holds exactly what the generator
returned, so a hit and a miss materialize bit-identical traces), and
every simulation seeds its own RNGs — so any execution order, in any
process layout, yields the same values.  That is what makes
``--jobs N`` output byte-identical to a serial run.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Point",
    "PointValue",
    "TraceSpec",
    "point_key",
    "run_point",
    "with_backend",
]


@dataclass(frozen=True)
class TraceSpec:
    """Recipe for an experiment trace (the arguments of ``get_trace``)."""

    which: int
    scale: float
    speed: float = 1.0
    n: int = 10
    #: Heterogeneous-array generator overrides (sorted keyword pairs for
    #: :class:`~repro.trace.synthetic.SyntheticTraceConfig`, e.g.
    #: ``ndisks``/``va_disks``/``va_weights``/``va_write_skew``).  Empty
    #: for every legacy spec, so their pickles and content hashes are
    #: unchanged.
    hda: Tuple[Tuple[str, Any], ...] = ()

    def materialize(self):
        """Build the trace (through the per-process trace memo)."""
        from repro.experiments.common import get_trace

        return get_trace(
            self.which, self.scale, speed=self.speed, n=self.n, hda=self.hda
        )


@dataclass(frozen=True)
class Point:
    """One independent work unit of an experiment.

    ``kind`` selects the evaluator: ``"sim"`` runs the full
    simulation (``run_trace``, see :meth:`sim_args`), ``"hitratio"`` the
    fast cache-only pass (``simulate_hit_ratios``).  ``overrides`` is a
    sorted tuple of keyword pairs so the point stays hashable and
    pickles canonically.
    """

    exp_id: str
    key: Tuple
    spec: TraceSpec
    kind: str = "sim"
    org: str = ""
    overrides: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def sim(cls, exp_id: str, key: Tuple, spec: TraceSpec, org: str, **overrides) -> "Point":
        """A full-simulation point (mean response time of one run)."""
        return cls(
            exp_id=exp_id,
            key=key,
            spec=spec,
            kind="sim",
            org=org,
            overrides=tuple(sorted(overrides.items())),
        )

    @classmethod
    def hitratio(
        cls, exp_id: str, key: Tuple, spec: TraceSpec, cache_blocks: int, mode: str
    ) -> "Point":
        """A cache-only hit-ratio point (no timing simulation)."""
        return cls(
            exp_id=exp_id,
            key=key,
            spec=spec,
            kind="hitratio",
            overrides=(("cache_blocks", cache_blocks), ("mode", mode)),
        )

    @property
    def kwargs(self) -> Dict[str, Any]:
        return dict(self.overrides)

    def sim_args(self, blocks_per_disk: Optional[int] = None) -> Tuple[Any, Dict[str, Any]]:
        """This simulation point as ``(SystemConfig, run_trace keywords)``.

        ``backend``, ``failures`` (a
        :class:`~repro.failure.FailureSchedule`) and ``keep_samples``
        route to :func:`~repro.sim.run_trace`; every other keyword
        overrides a :class:`~repro.sim.SystemConfig` field.  The config
        takes *blocks_per_disk* from the trace it will run, if given.
        Failure sweeps set ``keep_samples=True`` because their headline
        metric is the p95 during the scenario, which needs the sample
        store.
        """
        from repro.sim import Organization, SystemConfig

        overrides = self.kwargs
        run = {
            "backend": overrides.pop("backend", "des"),
            "failures": overrides.pop("failures", None),
            "keep_samples": overrides.pop("keep_samples", False),
        }
        if blocks_per_disk is not None:
            overrides["blocks_per_disk"] = blocks_per_disk
        return SystemConfig(organization=Organization.parse(self.org), **overrides), run

    @property
    def des_reason(self) -> Optional[str]:
        """Why this point runs on the DES under every backend, or ``None``:
        what :func:`repro.analytic.unsupported` names in its run."""
        if self.kind != "sim":
            return None
        from repro.analytic import unsupported

        config, run = self.sim_args()
        return unsupported(config, run["failures"])

    def label(self) -> str:
        """Human-readable identity for progress lines and errors."""
        parts = [self.exp_id]
        if self.org:
            parts.append(self.org)
        parts.append("/".join(str(k) for k in self.key))
        return " ".join(parts)


@dataclass(frozen=True)
class PointValue:
    """The picklable result of one point.

    Only the fields the figures actually plot are carried back from
    workers; full :class:`~repro.sim.results.RunResult` objects (with
    their numpy arrays and tallies) stay worker-local.
    """

    mean_response_ms: float = math.nan
    read_hit_ratio: float = math.nan
    write_hit_ratio: float = math.nan
    physical_disks: int = 0
    extras: Tuple[Tuple[str, float], ...] = field(default=())


#: Hashed into every point key.  It stays 1: the manifest's code
#: fingerprint, not the key, tells values of other code apart, and a
#: new value would change every key that ``tests/experiments/cells.json``
#: pins.
_FORMAT_VERSION = 1


def point_key(point: Point) -> str:
    """Stable content hash of everything that determines a point's value.

    The figure-placement identity (``exp_id``, ``key``) is deliberately
    excluded: two figures sweeping the same (trace, organization,
    overrides) cell share one value, evaluated once per campaign.
    """
    payload = {
        "__format__": _FORMAT_VERSION,
        "spec": {
            "which": point.spec.which,
            "scale": point.spec.scale,
            "speed": point.spec.speed,
            "n": point.spec.n,
        },
        "kind": point.kind,
        "org": point.org,
        "overrides": [[k, repr(v)] for k, v in point.overrides],
    }
    if point.spec.hda:
        # Added only when present so every legacy point's hash survives
        # unchanged.
        payload["spec"]["hda"] = [[k, repr(v)] for k, v in point.spec.hda]
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()[:32]


def run_point(point: Point) -> PointValue:
    """Evaluate one work unit (in whatever process this is called)."""
    trace = point.spec.materialize()
    if point.kind == "sim":
        from repro.sim import run_trace

        config, run = point.sim_args(trace.blocks_per_disk)
        res = run_trace(config, trace, **run)
        extras = [("events", float(res.events))]
        if res.failures is not None:
            # Failure-scenario points carry the scenario outcome in the
            # extras channel so assemble() can build tradeoff curves
            # without re-running anything.  Healthy points are untouched
            # (byte-identical extras).
            f = res.failures
            try:
                p95 = res.p95_response_ms
            except ValueError:  # samples not kept for this point
                p95 = float("nan")
            extras += [
                ("p95_ms", float(p95)),
                ("rebuild_ms", float(f.rebuild_duration_ms)),
                ("degraded_reads", float(f.degraded_reads)),
                ("degraded_writes", float(f.degraded_writes)),
                ("latent_injected", float(f.latent_injected)),
                ("latent_repaired", float(f.latent_repaired)),
                ("latent_outstanding", float(f.latent_outstanding)),
                ("exposure_mean_ms", float(f.exposure_mean_ms)),
                ("lost_requests", float(f.lost_reads + f.lost_writes)),
            ]
        if res.va_response:
            # Heterogeneous (multi-VA) points report per-VA latency and
            # the VA's mean disk utilization so assemble() can plot
            # per-class curves.  Homogeneous points never populate
            # ``va_response``, so their extras stay byte-identical.
            for vi, tally in enumerate(res.va_response):
                try:
                    p95 = tally.percentile(95) if tally.count else float("nan")
                except ValueError:  # samples not kept for this point
                    p95 = float("nan")
                util = float("nan")
                if vi < len(res.arrays) and len(res.arrays[vi].disk_utilization):
                    util = float(res.arrays[vi].disk_utilization.mean())
                extras += [
                    (f"va{vi}_mean_ms", float(tally.mean)),
                    (f"va{vi}_p95_ms", float(p95)),
                    (f"va{vi}_util", util),
                ]
        return PointValue(
            mean_response_ms=res.mean_response_ms,
            physical_disks=len(res.per_disk_accesses),
            extras=tuple(extras),
        )
    if point.kind == "hitratio":
        from repro.cache import simulate_hit_ratios
        from repro.layout import Raid4Layout

        kw = point.kwargs
        mode = kw["mode"]
        layout = None
        if mode == "raid4pc":
            layout = Raid4Layout(10, trace.blocks_per_disk, striping_unit=1)
        stats = simulate_hit_ratios(trace, 10, kw["cache_blocks"], mode, layout=layout)
        return PointValue(
            read_hit_ratio=stats.read_hit_ratio,
            write_hit_ratio=stats.write_hit_ratio,
        )
    raise ValueError(f"unknown point kind {point.kind!r}")


def with_backend(points: Iterable[Point], backend: str) -> List[Point]:
    """Retarget the simulation points of a campaign onto *backend*.

    Hit-ratio points are backend-independent (the fast cache pass *is*
    the analytic answer) and pass through unchanged, as do points with
    a :attr:`Point.des_reason`; ``"des"`` is the identity so existing
    call sites stay byte-identical.
    """
    out: List[Point] = []
    for point in points:
        if backend == "des" or point.kind != "sim" or point.des_reason:
            out.append(point)
            continue
        overrides = dict(point.overrides)
        overrides["backend"] = backend
        out.append(replace(point, overrides=tuple(sorted(overrides.items()))))
    return out
