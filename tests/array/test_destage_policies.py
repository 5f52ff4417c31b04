"""Tests for the destage write-back policies (§3.4 and its open issue)."""

import numpy as np
import pytest

from repro.des import Environment
from repro.sim import Organization, SystemConfig
from repro.sim.system import build_system

BPD = 2640


def make(policy, org="raid5", cache_blocks=64, period=200.0, **kw):
    env = Environment()
    cfg = SystemConfig(
        organization=Organization.parse(org),
        n=4,
        blocks_per_disk=BPD,
        cached=True,
        cache_mb=cache_blocks * 4096 / (1024 * 1024),
        destage_period_ms=period,
        destage_policy=policy,
        spindle_sync=True,
        **kw,
    )
    system = build_system(env, cfg, cfg.arrays_for(cfg.n))
    return env, system.controllers[0]


def write(env, ctrl, lb):
    def proc(env):
        yield from ctrl.handle(lb, 1, True)

    p = env.process(proc(env))
    env.run(until=p)


class TestPolicyValidation:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(destage_policy="bogus")


class TestLruDemandPolicy:
    def test_no_background_writebacks(self):
        """Under lru_demand, dirty blocks sit in the cache until
        replacement forces a synchronous writeback."""
        env, ctrl = make("lru_demand")
        write(env, ctrl, 5)
        env.run(until=env.now + 5000.0)
        assert 5 in ctrl.cache.dirty_blocks()
        assert ctrl.destaged_blocks == 0

    def test_replacement_triggers_writeback(self):
        env, ctrl = make("lru_demand", cache_blocks=8)
        for lb in range(8):
            write(env, ctrl, lb)
        # Cache now full of dirty blocks; the next misses force
        # synchronous writebacks.
        for lb in range(100, 108):
            write(env, ctrl, lb)
        assert ctrl.sync_writebacks > 0

    def test_periodic_beats_lru_demand(self):
        """The paper: 'the periodic destage policy always performs
        better' — under write pressure, misses behind dirty heads pay."""

        def run_policy(policy):
            env, ctrl = make(policy, cache_blocks=16, period=150.0)
            rng = np.random.default_rng(4)
            times = []

            def client(env):
                for i in range(300):
                    yield env.timeout(float(rng.exponential(8.0)))
                    lb = int(rng.integers(0, 400))
                    t0 = env.now
                    yield env.process(_one(env, lb, bool(rng.random() < 0.5)))
                    times.append(env.now - t0)

            def _one(env, lb, w):
                yield from ctrl.handle(lb, 1, w)

            env.process(client(env))
            env.run(until=60_000)
            return float(np.mean(times))

        assert run_policy("periodic") <= run_policy("lru_demand")


class TestDecoupledPolicy:
    def test_small_batches_written_between_flushes(self):
        env, ctrl = make("decoupled", period=1000.0)
        write(env, ctrl, 5)
        # A decoupled batch fires every period/4 = 250 ms.
        env.run(until=env.now + 400.0)
        assert ctrl.destaged_blocks >= 1

    def test_flush_frees_old_copies(self):
        env, ctrl = make("decoupled", period=500.0)

        def proc(env):
            yield from ctrl.handle(5, 1, False)  # read (clean)
            yield from ctrl.handle(5, 1, True)  # dirty with old copy

        p = env.process(proc(env))
        env.run(until=p)
        assert ctrl.cache.old_copies == 1
        env.run(until=env.now + 2000.0)
        assert ctrl.cache.old_copies == 0

    def test_all_policies_drain_dirty_blocks(self):
        for policy in ("periodic", "decoupled"):
            env, ctrl = make(policy, period=200.0)
            for lb in (3, 9, 100, 101):
                write(env, ctrl, lb)
            env.run(until=env.now + 5000.0)
            assert ctrl.cache.dirty_blocks(include_destaging=True) == [], policy


class TestOldestDirty:
    def test_returns_lru_order(self):
        from repro.cache import LRUCache

        c = LRUCache(16, track_old=False)
        for b in (1, 2, 3):
            c.write(b)
        c.write(1)  # moves 1 to MRU
        assert c.oldest_dirty(2) == [2, 3]

    def test_skips_destaging(self):
        from repro.cache import LRUCache

        c = LRUCache(16)
        c.write(1)
        c.write(2)
        c.begin_destage(1)
        assert c.oldest_dirty(5) == [2]

    def test_validation(self):
        from repro.cache import LRUCache

        with pytest.raises(ValueError):
            LRUCache(4).oldest_dirty(0)
