"""The benchmark's four workloads and the digest that checks their outputs.

Each workload's :func:`setup` generates its inputs from the generator
seed (``dataclasses.replace(preset, seed=...)``; ``None`` keeps each
preset's own seed) and calls ``build_system`` once; :func:`run_job`
then simulates or solves one job through the public ``run_trace``.
Functions are looked up on their modules at call time, so the layer
ledger's patches see every call.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import repro.sim as rsim
import repro.trace as rtrace
from repro.des import Environment
from repro.trace.synthetic import TraceStream

__all__ = ["WORKLOADS", "Job", "digest", "run_job", "setup"]

#: ``--quick`` shrinks every workload by this factor.
QUICK_DIVISOR = 20

#: Trace-1 logical disks simulated (of the 130 traced), as in the
#: paper experiments: 60 divides into arrays for every N swept.
T1_DISKS = 60

STREAM_REQUESTS = 100_000
STREAM_CHUNK = 65_536

ORGS = ("base", "mirror", "raid5", "parity_striping")
ARRAY_SIZES = (5, 10, 15, 20)
CACHE_MB = (8, 16, 32, 64)


@dataclass(frozen=True)
class Job:
    """One ``run_trace`` call: a configuration and its workload."""

    config: rsim.SystemConfig
    workload: object  # Trace or TraceStream
    backend: str = "des"
    keep_samples: bool = True

    @property
    def requests(self) -> int:
        return len(self.workload)


def _seeded(cfg, seed: Optional[int]):
    return cfg if seed is None else replace(cfg, seed=seed)


def _trace1(scale: float, seed: Optional[int]):
    full = rtrace.generate_trace(_seeded(rtrace.trace1_config(scale), seed))
    return rtrace.slice_arrays(full, 0, T1_DISKS)


def _trace2(scale: float, seed: Optional[int]):
    return rtrace.generate_trace(_seeded(rtrace.trace2_config(scale), seed))


def _config(org: str, **fields) -> rsim.SystemConfig:
    return rsim.SystemConfig(organization=rsim.Organization.parse(org), **fields)


def _t2_raid5(seed, quick):
    trace = _trace2(1.0 / QUICK_DIVISOR if quick else 1.0, seed)
    return [Job(_config("raid5", n=10, sync_policy="DF"), trace)]


def _t1_raid4pc(seed, quick):
    trace = _trace1(0.05 / QUICK_DIVISOR if quick else 0.05, seed)
    cfg = _config("raid4", n=10, cached=True, parity_caching=True)
    return [Job(cfg, trace)]


def _stream_base(seed, quick):
    requests = STREAM_REQUESTS // QUICK_DIVISOR if quick else STREAM_REQUESTS
    chunk = STREAM_CHUNK // QUICK_DIVISOR if quick else STREAM_CHUNK
    preset = rtrace.trace2_config()
    # Rate-preserving: requests and duration scale together.
    cfg = _seeded(preset.scaled(requests / preset.n_requests), seed)
    stream = TraceStream(cfg, chunk_requests=chunk)
    return [Job(_config("base", n=10), stream, keep_samples=False)]


def _analytic_sweep(seed, quick):
    div = QUICK_DIVISOR if quick else 1
    t1 = _trace1(0.02 / div, seed)
    t2 = _trace2(0.25 / div, seed)
    jobs = [
        Job(_config(org, n=n), t1, backend="analytic")
        for org in ORGS
        for n in ARRAY_SIZES
    ]
    for trace in (t1, t2):
        jobs += [
            Job(_config(org, cached=True, cache_mb=mb), trace, backend="analytic")
            for org in ORGS
            for mb in CACHE_MB
        ]
        jobs += [
            Job(
                _config("raid4", cached=True, cache_mb=mb, parity_caching=True),
                trace,
                backend="analytic",
            )
            for mb in CACHE_MB
        ]
    return jobs


#: Name -> job factory ``(seed, quick) -> [Job]``.  Why each workload
#: was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS: dict[str, Callable[[Optional[int], bool], list[Job]]] = {
    "t2-raid5": _t2_raid5,
    "t1-raid4pc": _t1_raid4pc,
    "stream-base": _stream_base,
    "analytic-sweep": _analytic_sweep,
}


def setup(name: str, seed: Optional[int], quick: bool) -> list[Job]:
    """Generate the workload's inputs and build its first system once.

    A stream generates its inputs while the run consumes them, so its
    set-up draws the first chunk, the input the first request waits
    for; the run draws it again from the seed.  The analytic sweep never
    builds a system, so its set-up is input generation alone.
    """
    jobs = WORKLOADS[name](seed, quick)
    first = jobs[0]
    if isinstance(first.workload, TraceStream):
        next(first.workload.chunks())
    if first.backend == "des":
        narrays = first.config.arrays_for(first.workload.ndisks)
        rsim.build_system(Environment(), first.config, narrays)
    return jobs


def run_job(job: Job) -> rsim.RunResult:
    return rsim.run_trace(
        job.config, job.workload, keep_samples=job.keep_samples, backend=job.backend
    )


def digest(job: Job, result: rsim.RunResult) -> str:
    """Hash of the simulated statistics a correct run must reproduce."""
    resp = result.response
    stats = {
        "simulated_ms": result.simulated_ms,
        "events": result.events,
        "responses": resp.count,
        "mean_ms": resp.mean,
        "p95_ms": (
            result.p95_response_ms
            if job.keep_samples or job.backend == "analytic"
            else None
        ),
        "disk_accesses": result.per_disk_accesses.tolist(),
        "read_hit_ratio": _finite(result.read_hit_ratio),
        "write_hit_ratio": _finite(result.write_hit_ratio),
    }
    text = json.dumps(stats, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _finite(x: float) -> Optional[float]:
    return None if math.isnan(x) else x
