"""Campaign and kernel benchmark harness.

Times a small experiment campaign serially and with ``--jobs N``
workers (verifying the outputs are identical along the way), plus a set
of kernel microbenchmarks covering the DES hot path: event throughput,
seek-time LUT vs. closed-form, synthetic trace generation, and the
streaming trace pipeline (a million-request run at O(chunk) resident
trace memory).

Usage::

    PYTHONPATH=src python benchmarks/bench_campaign.py \
        --scale 0.02 --jobs 2 --out BENCH_10.json

Not collected by pytest (no ``test_`` prefix) — this is a standalone
script whose JSON output is committed as ``BENCH_10.json`` (earlier
revisions: ``BENCH_5.json``) and uploaded as a CI artifact at a tiny
scale.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time


DEFAULT_EXPERIMENTS = ["fig8", "fig6"]


def _campaign_dict(campaign) -> dict:
    return {
        exp_id: [r.to_dict() for r in results]
        for exp_id, results in campaign.items()
    }


def bench_campaign(experiments, scale, jobs):
    """Serial vs parallel campaign wall-clock, with an equality check."""
    from repro.experiments.parallel import run_campaign

    t0 = time.perf_counter()
    serial = run_campaign(experiments, scale, jobs=1)
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = run_campaign(experiments, scale, jobs=jobs)
    parallel_s = time.perf_counter() - t0

    identical = _campaign_dict(serial) == _campaign_dict(parallel)
    if not identical:
        print("ERROR: parallel output differs from serial", file=sys.stderr)
    return {
        "experiments": experiments,
        "scale": scale,
        "jobs": jobs,
        "serial_s": round(serial_s, 4),
        "parallel_s": round(parallel_s, 4),
        "speedup": round(serial_s / parallel_s, 3) if parallel_s else None,
        "outputs_identical": identical,
    }


def bench_event_throughput(n_events=200_000, repeats=5):
    """Schedule/step throughput of the bare DES kernel.

    Reports the fastest of ``repeats`` runs with the garbage collector
    paused during timing (the same noise-floor methodology as
    :mod:`timeit`): a single draw on a shared host mixes scheduler
    preemption and interpreter warm-up into the number.
    """
    import gc

    from repro.des import Environment

    def chain(env, remaining):
        while remaining:
            remaining -= 1
            yield env.timeout(1.0)

    per = n_events // 8
    best = float("inf")
    for _ in range(repeats):
        env = Environment()
        # 8 interleaved timeout chains: exercises heap ordering, not
        # just FIFO pop.
        for _ in range(8):
            env.process(chain(env, per))
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            env.run()
            best = min(best, time.perf_counter() - t0)
        finally:
            if gc_was_enabled:
                gc.enable()
    return {
        "events": per * 8,
        "repeats": repeats,
        "elapsed_s": round(best, 4),
        "events_per_s": round(per * 8 / best),
    }


def bench_seek(n=500_000):
    """LUT-backed scalar seek_time vs the closed-form curve."""
    from repro.disk.seek import SeekModel

    model = SeekModel.fit()
    distances = [(i * 37) % model.cylinders for i in range(n)]

    t0 = time.perf_counter()
    for d in distances:
        model.seek_time(d)
    lut_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    for d in distances:
        model._curve(d)
    curve_s = time.perf_counter() - t0

    return {
        "calls": n,
        "lut_s": round(lut_s, 4),
        "closed_form_s": round(curve_s, 4),
        "lut_speedup": round(curve_s / lut_s, 3) if lut_s else None,
    }


def bench_trace_gen(scale=0.01):
    """Synthetic trace generation throughput (the vectorized loop)."""
    from repro.trace.synthetic import generate_trace, trace1_config

    cfg = trace1_config(scale=scale)
    t0 = time.perf_counter()
    trace = generate_trace(cfg)
    elapsed = time.perf_counter() - t0
    return {
        "requests": len(trace),
        "elapsed_s": round(elapsed, 4),
        "requests_per_s": round(len(trace) / elapsed),
    }


def bench_streaming(n_requests=1_000_000, chunk_requests=65536):
    """Million-request run fed from a streaming trace source.

    Measures end-to-end simulation throughput plus the tracemalloc peak
    while draining the generator — the evidence that trace memory stays
    O(chunk) instead of O(n_requests).  ``bounded`` asserts the peak is
    under an absolute budget proportional to the chunk size — 512 bytes
    per chunked request covers the generator's ten float64 draw columns
    (80 bytes a request), the address core's masks and index arrays,
    and the record chunk, with room for the rings of recent addresses
    it carries — and independent of ``n_requests``: a materialized
    million-request run would hold the full record array at once and
    keeps growing with the trace.
    """
    import tracemalloc

    from repro.sim import SystemConfig, run_trace
    from repro.sim.config import Organization
    from repro.trace.record import TRACE_DTYPE
    from repro.trace.synthetic import TraceStream, trace2_config

    cfg = trace2_config(scale=n_requests / 69_539)  # rate-preserving
    stream = TraceStream(cfg, chunk_requests=chunk_requests)
    full_trace_mb = len(stream) * TRACE_DTYPE.itemsize / 1e6

    tracemalloc.start()
    for _ in stream.chunks():
        pass
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    peak_trace_mb = peak / 1e6
    budget_mb = 512 * chunk_requests / 1e6
    bounded = peak_trace_mb < budget_mb

    config = SystemConfig(
        organization=Organization.BASE,
        blocks_per_disk=stream.blocks_per_disk,
        n=10,
    )
    t0 = time.perf_counter()
    result = run_trace(config, stream, keep_samples=False)
    elapsed = time.perf_counter() - t0

    return {
        "requests": len(stream),
        "chunk_requests": chunk_requests,
        "organization": "base",
        "elapsed_s": round(elapsed, 4),
        "requests_per_s": round(len(stream) / elapsed),
        "events": result.events,
        "events_per_s": round(result.events / elapsed),
        "peak_trace_mb": round(peak_trace_mb, 3),
        "budget_mb": round(budget_mb, 3),
        "full_trace_mb": round(full_trace_mb, 3),
        "bounded": bounded,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.02,
                        help="campaign trace scale (default 0.02)")
    parser.add_argument("--jobs", type=int, default=2,
                        help="parallel worker count (default 2)")
    parser.add_argument("--experiments", nargs="*", default=DEFAULT_EXPERIMENTS,
                        help="experiment ids for the campaign benchmark")
    parser.add_argument("--out", default="BENCH_10.json",
                        help="output JSON path (default BENCH_10.json)")
    parser.add_argument("--streaming-requests", type=int, default=1_000_000,
                        help="streaming-bench request count (default 1e6; "
                             "CI smoke uses a small value)")
    args = parser.parse_args(argv)

    import os

    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    # The kernel microbenchmark is the most contention-sensitive number
    # on a shared host: each call is over in ~1s, so a single draw
    # rides whatever scheduling weather that second had.  Sample it at
    # the start, middle, and end of the run — minutes apart — and keep
    # the fastest draw (the same noise-floor rationale as the per-call
    # best-of-five, stretched across the run).
    report = {
        "benchmark": "campaign+kernel",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cores": cores,
    }
    draws = [bench_event_throughput()]
    report["campaign"] = bench_campaign(args.experiments, args.scale, args.jobs)
    report["seek_time"] = bench_seek()
    draws.append(bench_event_throughput())
    report["trace_generation"] = bench_trace_gen()
    report["streaming"] = bench_streaming(n_requests=args.streaming_requests)
    draws.append(bench_event_throughput())
    best = min(draws, key=lambda d: d["elapsed_s"])
    best["repeats"] = sum(d["repeats"] for d in draws)
    report["event_throughput"] = best
    # Persist in the normalized repro-bench/1 schema (raw report kept
    # inside) so the file feeds straight into `python -m repro.bench
    # compare` without the legacy adapter.
    from repro.bench.schema import normalize, to_json

    with open(args.out, "w") as fh:
        json.dump(to_json(normalize(report, source=args.out)), fh, indent=2)
        fh.write("\n")
    print(json.dumps(report, indent=2))
    print(f"wrote {args.out}", file=sys.stderr)
    ok = (
        report["campaign"]["outputs_identical"]
        and report["streaming"]["bounded"]
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
