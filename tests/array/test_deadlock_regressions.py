"""Regression tests for cross-disk circular-wait hazards.

Two deadlock classes were found under concurrent parity updates:

1. **SI holding**: a parity RMW holding disk A spinning for old data
   queued on disk B, while disk B's in-service parity RMW spins for old
   data queued on disk A.  Broken by the bounded hold
   (``SI_MAX_HOLD_REVOLUTIONS``) with requeue.
2. **Priority reconstruct parity**: an RF/PR or DF/PR reconstruct
   parity write jumping (priority) ahead of another update's stripe
   reads on its disk while its own reads queue behind a symmetric
   parity write.  Broken by submitting reconstruct parity only after
   its reads complete.
"""

import numpy as np
import pytest

from repro.des import Environment
from repro.sim import Organization, SystemConfig
from repro.sim.system import build_system

BPD = 2640


def flood(org, sync, writes, n=4, nblocks=1, seed=0):
    """Issue many concurrent updates and require all to finish."""
    env = Environment()
    cfg = SystemConfig(
        organization=Organization.parse(org),
        n=n,
        blocks_per_disk=BPD,
        sync_policy=sync,
    )
    system = build_system(env, cfg, cfg.arrays_for(cfg.n))
    ctrl = system.controllers[0]
    rng = np.random.default_rng(seed)
    finished = []

    def writer(env, lb, k):
        yield from ctrl.handle(lb, k, True)
        finished.append(lb)

    for _ in range(writes):
        lb = int(rng.integers(0, n * BPD - nblocks))
        env.process(writer(env, lb, nblocks))
    env.run(until=600_000)
    return finished, writes, ctrl


class TestSIHoldBound:
    def test_si_concurrent_single_block_updates_all_finish(self):
        finished, total, _ = flood("raid5", "SI", writes=150)
        assert len(finished) == total

    def test_si_parity_striping_all_finish(self):
        finished, total, _ = flood("parity_striping", "SI", writes=150)
        assert len(finished) == total

    def test_si_hold_retries_counted_under_contention(self):
        """The bounded hold is actually exercised: under a write flood
        some parity accesses give up and requeue."""
        from repro.disk.request import DiskRequest  # noqa: F401

        finished, total, ctrl = flood("raid5", "SI", writes=300, seed=3)
        assert len(finished) == total
        # Spins happen under SI (the policy's signature cost).
        assert all(d.completed > 0 for d in ctrl.disks)


class TestPriorityReconstructParity:
    @pytest.mark.parametrize("sync", ["RF/PR", "DF/PR"])
    def test_concurrent_reconstruct_writes_all_finish(self, sync):
        # 3-of-4-unit writes -> reconstruct path, many in flight.
        finished, total, _ = flood("raid5", sync, writes=120, nblocks=3, seed=1)
        assert len(finished) == total

    @pytest.mark.parametrize("sync", ["SI", "RF", "RF/PR", "DF", "DF/PR"])
    def test_mixed_sizes_all_policies(self, sync):
        env = Environment()
        cfg = SystemConfig(
            organization=Organization.RAID5,
            n=4,
            blocks_per_disk=BPD,
            sync_policy=sync,
        )
        system = build_system(env, cfg, cfg.arrays_for(cfg.n))
        ctrl = system.controllers[0]
        rng = np.random.default_rng(7)
        finished = []

        def writer(env, lb, k):
            yield from ctrl.handle(lb, k, True)
            finished.append(lb)

        total = 0
        for _ in range(120):
            k = int(rng.choice([1, 1, 1, 2, 3, 4, 8]))
            lb = int(rng.integers(0, 4 * BPD - k))
            env.process(writer(env, lb, k))
            total += 1
        env.run(until=600_000)
        assert len(finished) == total
