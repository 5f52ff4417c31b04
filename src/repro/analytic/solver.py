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
represent — a failure schedule, or a config field set to a value
outside :data:`SOLVED_VALUES` — is refused with
:class:`AnalyticUnsupportedError` naming it (:func:`unsupported`).
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.analytic.decompose import ArrayLoad, decompose
from repro.analytic.service import DiskServiceModel
from repro.channel.bus import CHANNEL_MB_PER_S
from repro.des.monitor import Tally
from repro.disk.geometry import BLOCK_BYTES
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
    "SOLVED_VALUES",
    "check_supported",
    "solve_trace",
    "unsupported",
]

#: The values of each :class:`SystemConfig` field the model has
#: equations for; any other value is refused.  FCFS disk queues,
#: unsynchronized spindles and periodic destage (which matters only to
#: a cache) are the defaults.  Synchronization enters only as whether
#: the parity access waits for the data access (SI does not, DF does),
#: so RF and the /PR variants, which the DES tells apart, are refused.
SOLVED_VALUES = {
    "disk_scheduler": ("fcfs",),
    "spindle_sync": (False,),
    "destage_policy": ("periodic",),
    "sync_policy": ("SI", "DF"),
}


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
    steady state only), else the first field of :data:`SOLVED_VALUES`
    that *config* sets to a value outside its solved ones.
    """
    if failures is not None:
        return "failures"
    for name, solved in SOLVED_VALUES.items():
        if name == "destage_policy" and not config.cached:
            continue
        if getattr(config, name) not in solved:
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
        solved = " or ".join(repr(v) for v in SOLVED_VALUES[reason])
        why = (
            f"has no equations for {reason}={getattr(config, reason)!r}; "
            f"it solves only {solved}"
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

    The homogeneous case (every disk the same model object — every
    array of a uniform config, and any VA whose disks share a
    :class:`DiskParams`) keeps the solver's scalar arithmetic; a VA over
    mixed disks mixes per-disk moments weighted by each branch's
    disk-visit probabilities (per-disk-class queues still solve
    independently in :func:`_disk_waits`).
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
    arrays = config.arrays_for(workload.ndisks, workload.blocks_per_disk)
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError("warmup_fraction must be in [0, 1)")
    narrays = len(arrays)
    hetero = config.heterogeneous
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

    banks = _service_banks(arrays)

    # (weight, mean response, zero-load floor) per request class, globally.
    read_terms: List[Tuple[float, float, float]] = []
    write_terms: List[Tuple[float, float, float]] = []
    va_terms: List[List[Tuple[float, float, float]]] = [[] for _ in range(narrays)]
    measured_reads = 0
    measured_writes = 0

    loads = decompose(config, workload, warmup_ms)
    for a, (load, bank) in enumerate(zip(loads, banks)):
        waits, rho = _disk_waits(load, bank, a)
        w_chan, s_chan, rho_chan = _channel(load, a)

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


def _service_banks(arrays) -> List[_ServiceBank]:
    """One service bank per entry of ``SystemConfig.arrays_for``.

    Models are shared by (disk model, blocks per disk), so every disk
    of a uniform system holds one model object.
    """
    model_cache: dict = {}
    banks = []
    for acfg, params_list in arrays:
        models = []
        for params in params_list:
            key = (params, acfg.blocks_per_disk)
            model = model_cache.get(key)
            if model is None:
                model = DiskServiceModel(
                    params.geometry(), params.seek_model(), acfg.blocks_per_disk
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


def _channel(load: ArrayLoad, array_index: int) -> Tuple[float, float, float]:
    """Channel mean wait, per-block transfer time, and utilization."""
    bytes_per_ms = CHANNEL_MB_PER_S * 1e6 / 1000.0
    per_block = BLOCK_BYTES / bytes_per_ms
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
