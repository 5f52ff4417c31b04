"""Cost of observability, measured and guarded.

Two promises back the "opt-in" claim:

* **non-perturbation** — tracing and metrics never change what the
  simulator computes, alone or composed with validation on one probe
  bus.  Checked exactly: the
  :func:`~repro.validate.replay.result_fingerprint` of a traced and
  metered run, and of one run with validation, tracing and metrics all
  subscribed, must equal the plain run's, bit for bit.
* **bounded slowdown** — the instrumented run's wall time stays within a
  small multiple of the plain run.  Wall time on shared CI machines is
  noisy, so the plain run is repeated and the *best* time of each mode
  is compared (best-of-k is the standard way to strip scheduler noise
  from a deterministic workload).

:func:`overhead_report` produces the measurements; :func:`check` turns
them into a pass/fail list for the CI guard
(``python -m repro.obs overhead --check``).
"""

from __future__ import annotations

import time
from typing import Optional

__all__ = ["overhead_report", "check", "reference_run_args"]

#: Default ceiling for instrumented/plain wall-time ratio.  Tracing a
#: request-heavy run roughly doubles Python-level work per event; 5x
#: leaves headroom for timer jitter on loaded CI hosts.
DEFAULT_MAX_RATIO = 5.0


def reference_run_args(n_requests: int = 2000):
    """A small, deterministic (config, workload) pair for benchmarking.

    RAID5 over 10 data disks on a Trace-2-flavoured mix (28% writes) —
    enough parity traffic to exercise every probe tap (RMW phases, sync
    waits, channel transfers) without taking more than ~a second per
    run.
    """
    from repro.sim import Organization, SystemConfig
    from repro.trace import generate_trace, trace2_config

    tcfg = trace2_config(scale=n_requests / 69_539)
    config = SystemConfig(
        organization=Organization.RAID5,
        n=10,
        blocks_per_disk=tcfg.blocks_per_disk,
    )
    return config, generate_trace(tcfg)


def overhead_report(
    n_requests: int = 2000,
    repeats: int = 3,
    config=None,
    workload=None,
) -> dict:
    """Time plain vs instrumented runs and compare result fingerprints.

    One further, untimed run subscribes validation, tracing and metrics
    together; its fingerprint must match the plain run's as well.
    """
    from repro.sim.runner import run_trace
    from repro.validate.replay import result_fingerprint

    if config is None or workload is None:
        config, workload = reference_run_args(n_requests)

    def timed(**kwargs):
        t0 = time.perf_counter()
        result = run_trace(config, workload, **kwargs)
        return time.perf_counter() - t0, result

    plain_times = []
    plain_fp: Optional[str] = None
    for _ in range(max(repeats, 1)):
        dt, result = timed()
        plain_times.append(dt)
        fp = result_fingerprint(result)
        plain_fp = fp if plain_fp is None else plain_fp
        if fp != plain_fp:
            raise AssertionError("plain runs disagree with each other")

    traced_times = []
    traced_fp = None
    for _ in range(max(repeats, 1)):
        dt, result = timed(trace=True, metrics=True)
        traced_times.append(dt)
        traced_fp = result_fingerprint(result)

    composed_fp = result_fingerprint(
        run_trace(config, workload, validate=True, trace=True, metrics=True)
    )

    best_plain = min(plain_times)
    best_traced = min(traced_times)
    return {
        "requests": len(workload),
        "repeats": max(repeats, 1),
        "plain_times_s": plain_times,
        "traced_times_s": traced_times,
        "best_plain_s": best_plain,
        "best_traced_s": best_traced,
        "ratio": best_traced / best_plain if best_plain > 0 else float("inf"),
        "plain_fingerprint": plain_fp,
        "traced_fingerprint": traced_fp,
        "fingerprints_equal": plain_fp == traced_fp,
        "composed_fingerprint": composed_fp,
        "composed_equal": plain_fp == composed_fp,
    }


def check(report: dict, max_ratio: float = DEFAULT_MAX_RATIO) -> list[str]:
    """Problems with *report*; empty list means the guard passes."""
    problems = []
    if not report["fingerprints_equal"]:
        problems.append(
            "instrumented run perturbed the simulation: fingerprint "
            f"{report['traced_fingerprint']} != {report['plain_fingerprint']}"
        )
    if not report["composed_equal"]:
        problems.append(
            "validation, tracing and metrics together perturbed the "
            f"simulation: fingerprint {report['composed_fingerprint']} != "
            f"{report['plain_fingerprint']}"
        )
    if report["ratio"] > max_ratio:
        problems.append(
            f"instrumented/plain wall-time ratio {report['ratio']:.2f} "
            f"exceeds the {max_ratio:.1f}x budget "
            f"(best plain {report['best_plain_s']:.3f}s, "
            f"best traced {report['best_traced_s']:.3f}s)"
        )
    return problems


def render(report: dict) -> str:
    lines = [
        f"overhead: {report['requests']:,} requests, "
        f"best of {report['repeats']}",
        f"  plain   {report['best_plain_s'] * 1000.0:>9.1f} ms  "
        f"(all: {', '.join(f'{t * 1000.0:.1f}' for t in report['plain_times_s'])})",
        f"  traced  {report['best_traced_s'] * 1000.0:>9.1f} ms  "
        f"(all: {', '.join(f'{t * 1000.0:.1f}' for t in report['traced_times_s'])})",
        f"  ratio   {report['ratio']:>9.2f}x",
        f"  fingerprints equal: {report['fingerprints_equal']}",
        f"  with validation too: {report['composed_equal']}",
    ]
    return "\n".join(lines)
