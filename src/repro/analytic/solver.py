"""The analytic fast-solve backend.

:func:`solve_trace` answers the same question as
:func:`repro.sim.runner.run_trace` — mean/percentile response time,
per-disk utilization, channel utilization, cache hit ratios — without
simulating a single event:

1. :func:`~repro.analytic.decompose.decompose` turns the trace into
   per-array Poisson access streams and request classes;
2. every physical disk becomes an M/G/1 queue (two-class non-preemptive
   priority when background destage traffic is present) fed by the
   composite service moments of its streams
   (:class:`~repro.analytic.service.DiskServiceModel`);
3. each request class's mean response is composed from the queue waits:
   channel M/G/1 + fork-join over its parallel disk branches, with a
   serialization offset for parity accesses gated behind the data
   access (RF/DF sync policies);
4. the class means aggregate into a :class:`~repro.sim.results.RunResult`
   whose tallies are :class:`AnalyticTally` objects — mean is exact
   (within the model), percentiles use a shifted-exponential tail
   around the zero-load floor.

A workload pushing any disk or the channel to utilization ≥ 1 has no
steady state; the solver raises :class:`AnalyticSaturationError` (a
``ValueError``) naming the saturated resource.  What the model cannot
represent — a failure schedule, or a config that sets one of
:data:`UNMODELLED_FIELDS` away from its default — is refused with
:class:`AnalyticUnsupportedError` naming it (:func:`unsupported`).
"""

from __future__ import annotations

import math
from dataclasses import fields
from typing import List, Optional, Tuple

import numpy as np

from repro.analytic.decompose import ArrayLoad, decompose
from repro.analytic.service import DiskServiceModel
from repro.des.monitor import Tally
from repro.models.queueing import (
    fork_join_response,
    mg1_priority_waiting_times,
    mg1_waiting_time,
)
from repro.sim.config import SystemConfig
from repro.sim.results import ArrayMetrics, RunResult
from repro.trace.record import Trace

__all__ = [
    "AnalyticSaturationError",
    "AnalyticTally",
    "AnalyticUnsupportedError",
    "UNMODELLED_FIELDS",
    "check_supported",
    "solve_trace",
    "unsupported",
]

#: :class:`SystemConfig` fields the model has no equations for, so it
#: accepts only their defaults: FCFS disk queues, unsynchronized
#: spindles, periodic destage (which matters only to a cache), the RMW
#: threshold, track buffers per disk and the SI hold bound.
UNMODELLED_FIELDS = (
    "disk_scheduler",
    "spindle_sync",
    "destage_policy",
    "rmw_threshold",
    "track_buffers_per_disk",
    "si_max_hold_revolutions",
)

_DEFAULTS = {f.name: f.default for f in fields(SystemConfig)}


class AnalyticSaturationError(ValueError):
    """A resource's offered load is at or above its capacity."""


class AnalyticUnsupportedError(ValueError):
    """The analytic model cannot represent the requested scenario.

    Raised instead of silently solving a different (usually the healthy
    steady-state) model — e.g. ``run_trace(backend="analytic",
    failures=...)``: degraded mode, rebuild interference and scrubbing
    are transient behaviours the M/G/1 steady-state solver has no
    equations for.  The guidance in the message names the supported
    alternative (the DES backend).
    """


def unsupported(config: SystemConfig, failures=None) -> Optional[str]:
    """What the model cannot solve in a run of *config*, or ``None``.

    ``"failures"`` for a failure schedule (the model solves the healthy
    steady state only), else the first of :data:`UNMODELLED_FIELDS`
    that *config* sets away from its default.
    """
    if failures is not None:
        return "failures"
    for name in UNMODELLED_FIELDS:
        if name == "destage_policy" and not config.any_cached:
            continue
        if getattr(config, name) != _DEFAULTS[name]:
            return name
    return None


def check_supported(config: SystemConfig, failures=None) -> None:
    """Raise :class:`AnalyticUnsupportedError` naming
    :func:`unsupported` of *config* and *failures*, if anything."""
    reason = unsupported(config, failures)
    if reason is None:
        return
    if reason == "failures":
        why = (
            "solves the healthy steady state only; failure schedules "
            "(degraded mode, rebuild, scrubbing) are transient behaviours "
            "it cannot represent"
        )
    else:
        why = (
            f"has no equations for {reason}={getattr(config, reason)!r}; "
            f"it accepts only the default {_DEFAULTS[reason]!r}"
        )
    raise AnalyticUnsupportedError(
        f"the analytic backend {why} — run it with backend='des' instead"
    )


class AnalyticTally(Tally):
    """A :class:`Tally` describing a modelled (not sampled) distribution.

    The solver knows the mean exactly (within the model) and the
    zero-load floor of the response distribution; the tail above the
    floor is approximated as exponential — the classic heavy-traffic
    shape of M/G/1 response times — which gives closed-form percentiles
    so golden snapshots and ``p95_response_ms`` keep working without a
    sample store.
    """

    def __init__(self, count: int, mean: float, floor: float = 0.0) -> None:
        super().__init__(keep_samples=False)
        self.count = count
        if count:
            self._mean = mean
            excess = max(mean - floor, 0.0)
            # Exponential excess: variance = excess².
            self._m2 = excess * excess * max(count - 1, 0)
            self.min = min(floor, mean)
            self.max = self.percentile(99.9)

    def percentile(self, q: float) -> float:
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile {q} outside [0, 100]")
        if self.count == 0:
            return math.nan
        floor = self.min
        excess = max(self._mean - floor, 0.0)
        if q >= 100.0:
            q = 99.999
        return floor + excess * -math.log(1.0 - q / 100.0)


class _ServiceBank:
    """Per-disk service models of one array.

    The homogeneous case (every disk the same model object — all legacy
    configs, and any VA whose disks share a :class:`DiskParams`) keeps
    the solver's original scalar arithmetic bit-for-bit; heterogeneous
    VAs mix per-disk moments weighted by each branch's disk-visit
    probabilities (per-disk-class queues still solve independently in
    :func:`_disk_waits`).
    """

    __slots__ = ("models", "model", "homogeneous")

    def __init__(self, models: List[DiskServiceModel]) -> None:
        self.models = list(models)
        self.model = self.models[0]
        self.homogeneous = all(m is self.model for m in self.models)

    def branch_service_mean(self, branch) -> float:
        """Mean service time of one fork-join branch."""
        if self.homogeneous:
            return self.model.access(
                branch.kind, branch.nblocks, None, branch.nearest_of_two
            ).mean
        means = np.array(
            [
                m.access(branch.kind, branch.nblocks, None, branch.nearest_of_two).mean
                for m in self.models
            ]
        )
        return float(np.dot(branch.weights, means))


def solve_trace(
    config: SystemConfig,
    workload: Trace,
    warmup_fraction: float = 0.1,
    name: Optional[str] = None,
) -> RunResult:
    """Analytically solve *workload* on *config* (drop-in for the DES)."""
    check_supported(config)
    hetero = config.heterogeneous
    if hetero:
        total = workload.ndisks * workload.blocks_per_disk
        if total != config.total_logical_blocks:
            raise ValueError(
                f"trace addresses {total} logical blocks but the VAs define "
                f"{config.total_logical_blocks} (spans {config.va_spans})"
            )
    elif workload.blocks_per_disk != config.blocks_per_disk:
        raise ValueError(
            f"trace uses {workload.blocks_per_disk} blocks/disk but the config "
            f"expects {config.blocks_per_disk}"
        )
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError("warmup_fraction must be in [0, 1)")
    narrays = len(config.vas) if hetero else config.arrays_for(workload.ndisks)
    warmup_ms = workload.duration_ms * warmup_fraction

    result = RunResult(
        name=name or workload.name,
        organization=config.organization_label,
        n=sum(va.n for va in config.vas) if hetero else config.n,
        narrays=narrays,
        simulated_ms=workload.duration_ms,
        requests=len(workload),
        warmup_ms=warmup_ms,
    )
    if len(workload) == 0:
        result.response = AnalyticTally(0, math.nan)
        result.read_response = AnalyticTally(0, math.nan)
        result.write_response = AnalyticTally(0, math.nan)
        if hetero:
            result.va_response = [AnalyticTally(0, math.nan) for _ in config.vas]
        return result

    banks = _service_banks(config)

    # (weight, mean response, zero-load floor) per request class, globally.
    read_terms: List[Tuple[float, float, float]] = []
    write_terms: List[Tuple[float, float, float]] = []
    va_terms: List[List[Tuple[float, float, float]]] = [[] for _ in range(narrays)]
    measured_reads = 0
    measured_writes = 0

    loads = decompose(config, workload, warmup_ms)
    for a, load in enumerate(loads):
        bank = banks[a] if hetero else banks[0]
        waits, rho = _disk_waits(load, bank, a)
        w_chan, s_chan, rho_chan = _channel(config, load, a)

        metrics = ArrayMetrics(
            disk_accesses=_access_counts(load),
            disk_utilization=rho,
            channel_utilization=rho_chan,
        )
        if load.cache_share is not None:
            for field_name, value in load.cache_share.items():
                setattr(metrics, field_name, value)
        result.arrays.append(metrics)

        for rc in load.requests:
            if rc.weight <= 0:
                continue
            mean = _class_response(rc, bank, waits, rho, w_chan, s_chan)
            floor = _class_response(
                rc, bank, np.zeros_like(waits), rho, 0.0, s_chan
            )
            term = (rc.weight, mean, floor)
            (write_terms if rc.is_write else read_terms).append(term)
            va_terms[a].append(term)
        measured_reads += load.measured_reads
        measured_writes += load.measured_writes

    result.read_response = _tally(read_terms, measured_reads)
    result.write_response = _tally(write_terms, measured_writes)
    result.response = _tally(
        read_terms + write_terms, measured_reads + measured_writes
    )
    if hetero:
        result.va_response = [
            _tally(
                va_terms[a],
                loads[a].measured_reads + loads[a].measured_writes,
            )
            for a in range(narrays)
        ]
    return result


def _service_banks(config: SystemConfig) -> List[_ServiceBank]:
    """One service bank per array (shared across arrays when legacy)."""
    if not config.heterogeneous:
        service = DiskServiceModel(
            config.disk.geometry(config.block_bytes),
            config.disk.seek_model(),
            config.blocks_per_disk,
        )
        return [_ServiceBank([service])]
    assigned = config.resolve_disk_params()
    model_cache: dict = {}
    banks = []
    for vi in range(len(config.vas)):
        vcfg = config.va_view(vi)
        models = []
        for params in assigned[vi]:
            key = (params, vcfg.blocks_per_disk)
            model = model_cache.get(key)
            if model is None:
                model = DiskServiceModel(
                    params.geometry(config.block_bytes),
                    params.seek_model(),
                    vcfg.blocks_per_disk,
                )
                model_cache[key] = model
            models.append(model)
        banks.append(_ServiceBank(models))
    return banks


# -- per-array solution -------------------------------------------------------


def _disk_waits(
    load: ArrayLoad, bank: _ServiceBank, array_index: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Foreground mean waits and total utilization per disk."""
    ndisks = load.ndisks
    lam = {True: np.zeros(ndisks), False: np.zeros(ndisks)}
    m1 = {True: np.zeros(ndisks), False: np.zeros(ndisks)}
    m2 = {True: np.zeros(ndisks), False: np.zeros(ndisks)}
    for cls in load.classes:
        if bank.homogeneous:
            mom = bank.model.access(
                cls.kind, cls.nblocks, cls.nblocks_second, cls.nearest_of_two
            )
            lam[cls.background] += cls.rates
            m1[cls.background] += cls.rates * mom.mean
            m2[cls.background] += cls.rates * mom.second
        else:
            moms = [
                m.access(cls.kind, cls.nblocks, cls.nblocks_second, cls.nearest_of_two)
                for m in bank.models
            ]
            lam[cls.background] += cls.rates
            m1[cls.background] += cls.rates * np.array([mm.mean for mm in moms])
            m2[cls.background] += cls.rates * np.array([mm.second for mm in moms])

    rho = m1[False] + m1[True]
    waits = np.zeros(ndisks)
    for d in range(ndisks):
        if rho[d] >= 1.0:
            raise AnalyticSaturationError(
                f"disk {d} of array {array_index} saturated: "
                f"offered utilization {rho[d]:.3f} >= 1"
            )
        lf, lb = lam[False][d], lam[True][d]
        if lf == 0.0:
            continue
        fg = (lf, m1[False][d] / lf, m2[False][d] / lf)
        if lb == 0.0:
            waits[d] = mg1_waiting_time(*fg)
        else:
            bg = (lb, m1[True][d] / lb, m2[True][d] / lb)
            waits[d] = mg1_priority_waiting_times([fg, bg])[0]
    return waits, rho


def _channel(
    config: SystemConfig, load: ArrayLoad, array_index: int
) -> Tuple[float, float, float]:
    """Channel mean wait, per-block transfer time, and utilization."""
    bytes_per_ms = config.channel_mb_per_s * 1e6 / 1000.0
    per_block = config.block_bytes / bytes_per_ms
    if load.channel_rate == 0.0:
        return 0.0, per_block, 0.0
    mean = load.channel_nb * per_block
    second = load.channel_nb_second * per_block * per_block
    rho = load.channel_rate * mean
    if rho >= 1.0:
        raise AnalyticSaturationError(
            f"channel of array {array_index} saturated: "
            f"offered utilization {rho:.3f} >= 1"
        )
    return mg1_waiting_time(load.channel_rate, mean, second), per_block, rho


def _class_response(
    rc,
    bank: _ServiceBank,
    waits: np.ndarray,
    rho: np.ndarray,
    w_chan: float,
    per_block_chan: float,
) -> float:
    """Mean response of one request class under the given queue waits."""
    response = 0.0
    if rc.channel_blocks > 0:
        response += w_chan + rc.channel_blocks * per_block_chan
    if not rc.branches:
        return response

    # Serialization offset for parity branches: under RF/DF the parity
    # access only enters its queue once the data access has progressed
    # past its own queue (DF) — approximated by the data branch's wait.
    data_wait = 0.0
    for b in rc.branches:
        if not b.after_data:
            data_wait = float(np.dot(b.weights, waits))
            break

    branch_means = []
    util = 0.0
    for b in rc.branches:
        mean = float(np.dot(b.weights, waits)) + bank.branch_service_mean(b)
        if b.after_data:
            mean += data_wait
        branch_means.append(mean)
        util += float(np.dot(b.weights, rho))
    util = min(max(util / len(rc.branches), 0.0), 1.0)
    return response + fork_join_response(branch_means, util)


def _access_counts(load: ArrayLoad) -> np.ndarray:
    rates = np.zeros(load.ndisks)
    for cls in load.classes:
        rates += cls.rates
    if not math.isfinite(load.duration_ms):
        return np.zeros(load.ndisks, dtype=np.int64)
    return np.rint(rates * load.duration_ms).astype(np.int64)


def _tally(terms: List[Tuple[float, float, float]], count: int) -> AnalyticTally:
    weight = sum(t[0] for t in terms)
    if weight <= 0 or count <= 0:
        return AnalyticTally(0, math.nan)
    mean = sum(w * m for w, m, _ in terms) / weight
    floor = sum(w * f for w, _, f in terms) / weight
    return AnalyticTally(count, mean, floor)
