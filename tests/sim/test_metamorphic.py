"""Metamorphic cross-organization tests.

No oracle gives the absolute response time of a disk array, but the
paper's analysis fixes how the organizations must relate to each other.
Each test runs the same workload through two configurations whose
relationship is known and checks the relation, not the number:

* RAID5 with the striping unit grown to the whole disk stops rotating
  parity within the addressed range — like parity striping, each
  request touches one data disk plus a concentrated parity region, so
  the two must land close (§2.3);
* a mirrored pair routes each read to the member with the shorter seek
  and can never be slower than Base on a read-only workload;
* losing a disk makes reads reconstruct from all surviving members —
  degraded reads cannot beat fault-free reads.
"""

import numpy as np
import pytest

from repro.array.uncached import UncachedParityController
from repro.channel import Channel
from repro.des import Environment
from repro.disk import Disk
from repro.sim import run_trace
from tests.validate.workload import BPD, config, make_trace


class TestWholeDiskStripingApproachesParityStriping:
    def test_raid5_whole_disk_su_close_to_parity_striping(self):
        # Light load: the comparison is about access anatomy (data RMW +
        # parity RMW), not queueing — a striping-unit change also shifts
        # queue contention, which would drown the relation.
        trace = make_trace(seed=5, n=150, rate_ms=40.0, write_frac=0.5)
        raid5 = run_trace(
            config(org="raid5", striping_unit=BPD), trace, warmup_fraction=0.1
        )
        pstripe = run_trace(
            config(org="parity_striping"), trace, warmup_fraction=0.1
        )
        assert raid5.mean_response_ms == pytest.approx(
            pstripe.mean_response_ms, rel=0.25
        )

    def test_small_striping_unit_differs_from_parity_striping(self):
        """Sanity check of the metamorphic premise: with fine striping
        the organizations do NOT coincide on multiblock traffic (RAID5
        spreads a run over several disks; parity striping does not)."""
        trace = make_trace(seed=5, n=150, rate_ms=40.0, write_frac=0.0)
        fine = run_trace(config(org="raid5", striping_unit=1), trace, warmup_fraction=0.1)
        pstripe = run_trace(config(org="parity_striping"), trace, warmup_fraction=0.1)
        assert fine.mean_response_ms != pytest.approx(
            pstripe.mean_response_ms, rel=0.02
        )


class TestMirrorReadRouting:
    def test_mirror_never_slower_than_base_on_reads(self):
        trace = make_trace(seed=9, n=250, write_frac=0.0, rate_ms=5.0)
        base = run_trace(config(org="base"), trace, warmup_fraction=0.1)
        mirror = run_trace(config(org="mirror"), trace, warmup_fraction=0.1)
        # Shortest-seek routing over two arms strictly dominates a single
        # arm; allow float-level slack only.
        assert mirror.mean_response_ms <= base.mean_response_ms * 1.01

    def test_mirror_read_gain_grows_with_load(self):
        """With deeper queues the second arm matters more (the paper's
        Fig. 4 trend: mirroring helps read-heavy loads)."""
        light = make_trace(seed=9, n=150, write_frac=0.0, rate_ms=40.0)
        heavy = make_trace(seed=9, n=300, write_frac=0.0, rate_ms=3.0)

        def gain(trace):
            base = run_trace(config(org="base"), trace, warmup_fraction=0.1)
            mirror = run_trace(config(org="mirror"), trace, warmup_fraction=0.1)
            return base.mean_response_ms / mirror.mean_response_ms

        assert gain(heavy) >= gain(light) * 0.95  # never collapses under load


def _build(degraded, n=4, bpd=240, failed=1, phase_seed=None):
    env = Environment()
    cfg = config(org="raid5", n=n, blocks_per_disk=bpd, spindle_sync=True)
    layout = cfg.make_layout()
    geo = cfg.disk.geometry()
    sm = cfg.disk.seek_model()
    if phase_seed is None:
        phases = [0.0] * layout.ndisks  # synchronized spindles
    else:
        phases = np.random.default_rng(phase_seed).random(layout.ndisks)
    disks = [
        Disk(env, geo, sm, name=f"d{i}", phase=phases[i])
        for i in range(layout.ndisks)
    ]
    ctrl = UncachedParityController(env, layout, disks, Channel(env), cfg)
    if degraded:
        ctrl.fail_disk(failed)
    return env, ctrl, layout


def _serve_one(env, ctrl, lb, k, is_write=False):
    out = {}

    def proc(env):
        t0 = env.now
        yield from ctrl.handle(lb, k, is_write)
        out["rt"] = env.now - t0

    p = env.process(proc(env))
    env.run(until=p)
    return out["rt"]


class TestDegradedReadsAreSlower:
    def test_reads_of_failed_blocks_cost_at_least_fault_free(self):
        """Reconstruction reads every surviving member: on an otherwise
        idle array a degraded read can never beat the fault-free read."""
        _, _, layout = _build(degraded=False)
        failed = 1
        # Logical blocks living on the failed disk.
        lbs = [
            lb
            for lb in range(layout.logical_blocks)
            if layout.map_block(lb).disk == failed
        ][:8]
        assert lbs, "test needs blocks on the failed disk"
        for lb in lbs:
            env_h, healthy, _ = _build(degraded=False)
            env_d, degraded, _ = _build(degraded=True, failed=failed)
            rt_healthy = _serve_one(env_h, healthy, lb, 1)
            rt_degraded = _serve_one(env_d, degraded, lb, 1)
            assert rt_degraded >= rt_healthy * (1 - 1e-9), lb

    def test_mean_degraded_penalty_is_positive(self):
        """With unsynchronized spindles, reconstructing from every
        surviving member waits for the *slowest* rotational latency —
        on average strictly worse than one disk's latency."""
        _, _, layout = _build(degraded=False)
        failed = 1
        lbs = [
            lb
            for lb in range(layout.logical_blocks)
            if layout.map_block(lb).disk == failed
        ][:12]
        healthy_rts, degraded_rts = [], []
        for lb in lbs:
            env_h, healthy, _ = _build(degraded=False, phase_seed=42)
            env_d, degraded, _ = _build(degraded=True, failed=failed, phase_seed=42)
            healthy_rts.append(_serve_one(env_h, healthy, lb, 1))
            degraded_rts.append(_serve_one(env_d, degraded, lb, 1))
        assert np.mean(degraded_rts) > np.mean(healthy_rts)

    def test_degraded_read_fans_out_to_all_survivors(self):
        """The structural half of the relation: a degraded read of a
        failed block touches every surviving disk, a healthy read one."""
        failed = 1
        _, _, layout = _build(degraded=False)
        lb = next(
            b for b in range(layout.logical_blocks)
            if layout.map_block(b).disk == failed
        )
        env_h, healthy, _ = _build(degraded=False)
        env_d, degraded, _ = _build(degraded=True, failed=failed)
        _serve_one(env_h, healthy, lb, 1)
        _serve_one(env_d, degraded, lb, 1)
        assert sum(d.completed for d in healthy.disks) == 1
        assert sum(d.completed for d in degraded.disks) == layout.ndisks - 1
