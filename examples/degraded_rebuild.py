#!/usr/bin/env python3
"""Media recovery in action: disk failure, degraded service, rebuild.

The paper's whole motivation is media recovery without mirroring's 100%
storage overhead.  This example fails a disk in a RAID5 array, serves a
workload in degraded mode, rebuilds onto a hot spare, and reports the
performance cost at every stage — the effect the paper alludes to in
§4.2.1 ("worse performance during reconstruction following a disk
failure").

Run:  python examples/degraded_rebuild.py
"""

import numpy as np

from repro.failure import FailureSchedule
from repro.sim import Organization, SystemConfig, run_trace
from repro.trace import TRACE_DTYPE, Trace

BPD = 221_760
N = 5
USED_BLOCKS = 30_000  # active slice rebuilt per disk


def workload(n=4000, seed=13):
    rng = np.random.default_rng(seed)
    records = np.empty(n, dtype=TRACE_DTYPE)
    records["time"] = np.cumsum(rng.exponential(12.0, size=n))
    records["lblock"] = rng.integers(0, N * BPD, size=n)
    records["nblocks"] = 1
    records["is_write"] = rng.random(n) < 0.2
    return Trace(records, N, BPD, name="recovery-demo")


def main():
    trace = workload()
    config = SystemConfig(
        organization=Organization.RAID5, n=N, blocks_per_disk=BPD
    )

    healthy = run_trace(config, trace, keep_samples=False)
    print(f"healthy array:      mean rt {healthy.mean_response_ms:6.2f} ms")

    # Same workload with disk 2 failed from the start, a hot spare at
    # once, and a rebuild of the active slice running underneath.
    degraded = run_trace(
        config,
        trace,
        keep_samples=False,
        failures=FailureSchedule.single_failure(
            disk=2, spare_after_ms=0.0, rebuild_blocks=USED_BLOCKS
        ),
    )
    report = degraded.failures
    print(f"during rebuild:     mean rt {degraded.mean_response_ms:6.2f} ms "
          f"({report.degraded_reads} degraded reads, "
          f"{report.degraded_writes} degraded writes)")
    print(f"rebuild duration:   {report.rebuild_duration_ms / 1000.0:6.1f} s "
          f"for {USED_BLOCKS} blocks/disk")
    print()
    print("Degraded reads cost a whole-group reconstruction (max over")
    print(f"{N} surviving arms); the spare absorbs traffic as the")
    print("watermark advances. Mirrors recover faster but cost 100%")
    print("extra storage — the paper's central trade-off.")


if __name__ == "__main__":
    main()
