"""Measure one workload in this process and print the result as JSON.

``run.py`` starts one of these per workload, in a fresh process with
``src`` on ``PYTHONPATH``.  The steps, in order:

1. import (done before :func:`measure` is called);
2. set-up: generate the inputs and build the first system, at least
   :data:`MIN_SETUPS` times; ``setup_s`` is the median;
3. timed runs with tracing off, at least ``--repeats`` (two or more)
   of them, and more while the next one still ends within ``--seconds``;
   ``req_per_s`` is the median;
4. peak RSS of this process;
5. with ``--trace 1``, one more set-up and run under the layer ledger
   (:mod:`ledger`), which gives the per-layer metrics.

Set-ups and timed runs are read in reference seconds
(:mod:`hostclock`), so that a slow phase of a shared host does not
read as a slower program.  The ledger run is timed by the wall clock.

Every run is checked: it must not raise, its statistics must be sane,
and its digest must equal the expected one (``--expect``) or, without
one, the first untraced run's.  The traced run's digest must equal the
untraced one, which shows that the ledger does not perturb the
simulation.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Optional

import workloads as wl
from hostclock import HostClock
from ledger import Ledger

#: Set-ups per measurement; more are run until :data:`SETUP_BUDGET_S`
#: has passed, so that one slow set-up moves the median of many, not
#: of five.
MIN_SETUPS = 5
MAX_SETUPS = 200
SETUP_BUDGET_S = 1.0

#: Timed runs at least: at a seed with no recorded digests, the second
#: run is the replay check of the first.
MIN_REPEATS = 2


def _run(job: wl.Job, errors: list):
    """The job's RunResult, or ``None`` (and a message) if it raised."""
    try:
        return wl.run_job(job)
    except Exception:
        errors.append(traceback.format_exc(limit=4))
        return None


def _digest(job: wl.Job, result, errors: list) -> Optional[str]:
    """The result's digest, or ``None`` (and a message) if it is not sane."""
    if result is None:
        return None
    problem = _sanity(job, result)
    if problem:
        errors.append(problem)
        return None
    return wl.digest(job, result)


def _sanity(job: wl.Job, result) -> Optional[str]:
    """Structural checks a correct run always passes, whatever the seed."""
    count = result.response.count
    if not 0 < count <= job.requests:
        return f"{count} responses measured for {job.requests} requests"
    mean = result.response.mean
    if not (math.isfinite(mean) and mean > 0):
        return f"mean response {mean!r} ms"
    for ratio in (result.read_hit_ratio, result.write_hit_ratio):
        if not (math.isnan(ratio) or 0.0 <= ratio <= 1.0):
            return f"hit ratio {ratio!r} outside [0, 1]"
    if job.backend == "des" and result.per_disk_accesses.sum() < count:
        return "fewer disk accesses than measured requests"
    return None


class _Tally:
    """Attempted and failed runs with the failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, what: str, digests: list, reference: list) -> None:
        for i, (got, want) in enumerate(zip(digests, reference)):
            self.attempted += 1
            if got is None or got != want:
                self.failed += 1
                if got is not None:
                    self.errors.append(f"{what} job {i}: digest {got} != {want}")


def measure(
    name: str,
    seed: Optional[int] = None,
    quick: bool = False,
    repeats: int = MIN_REPEATS,
    seconds: float = 0.0,
    trace: bool = False,
    trace_dir: Optional[str] = None,
    expected: Optional[list] = None,
) -> dict:
    """Set up, time and check workload *name*; see the module docstring."""
    if repeats < MIN_REPEATS:
        raise ValueError(f"repeats must be at least {MIN_REPEATS}")
    tally = _Tally()

    setups: list = []
    runs: list = []
    rep_events: list[int] = []
    rep_digests: list[list] = []
    budget = SETUP_BUDGET_S / wl.QUICK_DIVISOR if quick else SETUP_BUDGET_S
    with HostClock() as clock:
        start = time.perf_counter()
        while len(setups) < MIN_SETUPS or (
            time.perf_counter() - start < budget and len(setups) < MAX_SETUPS
        ):
            jobs = None  # every set-up starts without the previous inputs
            gc.collect()
            with clock.span() as span:
                jobs = wl.setup(name, seed, quick)
            setups.append(span)
        requests = sum(job.requests for job in jobs)

        # Stop before a run that would end past ``seconds``, judged by the last.
        while len(runs) < repeats or sum(s.wall_s for s in runs) + runs[-1].wall_s <= seconds:
            gc.collect()
            with clock.span() as span:
                results = [_run(job, tally.errors) for job in jobs]
            runs.append(span)
            rep_events.append(sum(r.events for r in results if r is not None))
            rep_digests.append([_digest(j, r, tally.errors) for j, r in zip(jobs, results)])
            del results

    reference = expected if expected is not None else rep_digests[0]
    if len(reference) != len(jobs):
        raise ValueError(f"{len(reference)} expected digests for {len(jobs)} jobs")
    for i, digests in enumerate(rep_digests):
        tally.check(f"run {i}", digests, reference)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run_s = [clock.seconds(s) for s in runs]
    out = {
        "workload": name,
        "seed": seed,
        "requests": requests,
        "digests": rep_digests[0],
        "end_to_end": {
            "req_per_s": statistics.median(requests / s for s in run_s),
            "setup_s": statistics.median(clock.seconds(s) for s in setups),
            "peak_rss_mb": peak_rss_mb,
        },
    }

    if trace:
        ledger, traced = _ledger_run(name, seed, quick, tally.errors)
        tally.check(
            "traced run", [_digest(j, r, tally.errors) for j, r in traced], reference
        )
        # The ledger run is timed by the wall clock, so its overhead is
        # taken against the untraced wall time.
        untraced_s = statistics.median(s.wall_s for s in setups) + statistics.median(
            s.wall_s for s in runs
        )
        events_per_s = statistics.median(e / s for e, s in zip(rep_events, run_s))
        out["per_layer"] = layer_metrics(ledger, traced, requests, events_per_s, untraced_s)
        out["per_layer"]["host.speed"] = statistics.median(clock.speed(s) for s in runs)
        out["per_layer"]["host.wall_req_per_s"] = statistics.median(
            requests / s.wall_s for s in runs
        )
        out["ledger"] = {
            "requests": requests,
            "untraced_s": untraced_s,
            "root_s": ledger.root_ns / 1e9,
            "self_s": ledger.self_seconds(),
            "calls": dict(zip(ledger.layers, ledger.calls)),
            "resumes": dict(zip(ledger.layers, ledger.resumes)),
            "events": ledger.event_kinds(),
        }
        if trace_dir:
            directory = Path(trace_dir)
            directory.mkdir(parents=True, exist_ok=True)
            ledger.write_spans(directory / f"{name}.spans.jsonl")
            (directory / f"{name}.ledger.json").write_text(
                json.dumps(out["ledger"], indent=2) + "\n"
            )

    out["attempted"] = tally.attempted
    out["failed"] = tally.failed
    out["errors"] = tally.errors[:20]
    return out


def _ledger_run(name, seed, quick, errors):
    """One set-up plus one run of every job under the layer ledger."""
    ledger = Ledger()
    traced: list = []

    def traced_workload():
        jobs = wl.setup(name, seed, quick)
        ledger.systems.clear()  # keep only the systems the runs build
        traced.extend((job, _run(job, errors)) for job in jobs)

    gc.collect()
    with ledger.installed():
        ledger.root(traced_workload)
    return ledger, traced


def layer_metrics(ledger: Ledger, traced: list, requests: int,
                  events_per_s: float, untraced_s: float) -> dict:
    """Per-layer metrics from the ledger and the traced run's outputs."""
    per_req = 1.0 / requests
    self_s = ledger.self_seconds()
    metrics = {}
    for layer in ("des", "sim", "array", "layout", "disk", "channel",
                  "cache", "analytic", "trace"):
        metrics[f"{layer}.self_us_per_req"] = self_s.get(layer, 0.0) * 1e6 * per_req

    kinds = ledger.event_kinds()
    metrics["des.events_per_s"] = events_per_s
    metrics["des.events_per_req"] = sum(kinds.values()) * per_req
    for kind, n in kinds.items():
        metrics[f"des.{kind}_events_per_req"] = n * per_req
    metrics["array.resumes_per_req"] = ledger.count("array", resumes=True) * per_req
    metrics["layout.calls_per_req"] = ledger.count("layout") * per_req
    trace_s = self_s.get("trace", 0.0)
    inputs = {id(job.workload): job.workload for job, _ in traced}
    generated = sum(len(w) for w in inputs.values())
    metrics["trace.gen_req_per_s"] = generated / trace_s if trace_s > 0 else 0.0
    metrics["ledger.spans_per_req"] = ledger.spans_opened * per_req

    # Simulated (model) statistics: bit-identical under a simulator-only change.
    results = [r for _, r in traced if r is not None]
    arrays = [a for r in results for a in r.arrays]
    utils = [u for a in arrays for u in a.disk_utilization.tolist()]
    disks = [d for system in ledger.systems for c in system.controllers for d in c.disks]
    services = sum(d.reads + d.writes + d.rmws for d in disks)
    read_hits = sum(a.read_hits for a in arrays)
    read_all = read_hits + sum(a.read_misses for a in arrays)
    write_hits = sum(a.write_hits for a in arrays)
    write_all = write_hits + sum(a.write_misses for a in arrays)
    metrics.update({
        "disk.accesses_per_req": sum(float(a.disk_accesses.sum()) for a in arrays) * per_req,
        "disk.rmw_share": sum(d.rmws for d in disks) / services if services else 0.0,
        "disk.util_mean": statistics.fmean(utils) if utils else 0.0,
        "disk.util_max": max(utils, default=0.0),
        "disk.queue_mean": (
            statistics.fmean(d.queue_length.mean(d.env.now) for d in disks) if disks else 0.0
        ),
        "channel.util_mean": (
            statistics.fmean(a.channel_utilization for a in arrays) if arrays else 0.0
        ),
        "cache.read_hit_ratio": read_hits / read_all if read_all else 0.0,
        "cache.write_hit_ratio": write_hits / write_all if write_all else 0.0,
        "cache.destaged_per_req": sum(a.destaged_blocks for a in arrays) * per_req,
    })

    metrics["ledger.overhead_x"] = ledger.root_ns / 1e9 / untraced_s
    return {k: float(v) for k, v in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--repeats", type=int, default=MIN_REPEATS)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir")
    parser.add_argument("--expect", help="comma-separated expected digests")
    args = parser.parse_args(argv)

    import repro

    src = Path(__file__).resolve().parents[2] / "src"
    if Path(repro.__file__).resolve().parent.parent != src:
        print(f"error: repro imported from {repro.__file__}, not {src}", file=sys.stderr)
        return 2
    out = measure(
        args.workload,
        seed=args.seed,
        quick=args.quick,
        repeats=args.repeats,
        seconds=args.seconds,
        trace=bool(args.trace),
        trace_dir=args.trace_dir,
        expected=args.expect.split(",") if args.expect else None,
    )
    for message in out["errors"]:
        print(message, file=sys.stderr)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
