"""Tests for the channel and track-buffer models."""

import pytest

from repro.channel import Channel, TrackBufferPool
from repro.des import Environment


@pytest.fixture
def env():
    return Environment()


class TestChannel:
    def test_rate_validation(self, env):
        with pytest.raises(ValueError):
            Channel(env, rate_mb_per_s=0)

    def test_transfer_time_4kb_at_10mbs(self, env):
        ch = Channel(env)  # 10 MB/s
        assert ch.transfer_time(4096) == pytest.approx(0.4096)

    def test_transfer_time_validation(self, env):
        ch = Channel(env)
        with pytest.raises(ValueError):
            ch.transfer_time(0)

    def test_single_transfer(self, env):
        ch = Channel(env)

        def proc(env):
            yield from ch.transfer(4096)
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value == pytest.approx(0.4096)
        assert ch.bytes_transferred == 4096
        assert ch.transfers == 1

    def test_contention_serialises(self, env):
        ch = Channel(env)
        ends = []

        def proc(env):
            yield from ch.transfer(4096)
            ends.append(env.now)

        env.process(proc(env))
        env.process(proc(env))
        env.run()
        assert ends[0] == pytest.approx(0.4096)
        assert ends[1] == pytest.approx(0.8192)

    def test_priority_transfers(self, env):
        ch = Channel(env)
        order = []

        def xfer(env, prio, tag, delay=0.0):
            if delay:
                yield env.timeout(delay)
            yield from ch.transfer(40960, priority=prio)
            order.append(tag)

        env.process(xfer(env, 0, "first"))
        env.process(xfer(env, 1, "low", delay=0.1))
        env.process(xfer(env, -1, "high", delay=0.1))
        env.run()
        assert order == ["first", "high", "low"]

    def test_utilization(self, env):
        ch = Channel(env)

        def proc(env):
            yield from ch.transfer(10_000 * 5)  # 5 ms of wire time

        env.process(proc(env))
        env.run(until=10.0)
        assert ch.utilization() == pytest.approx(0.5)

    def test_utilization_zero_time(self, env):
        assert Channel(env).utilization() == 0.0


class _RecordingProbe:
    def __init__(self):
        self.calls = []

    def on_channel_request(self, channel, nbytes):
        self.calls.append(("request", nbytes))

    def on_channel_transfer(self, channel, nbytes, duration):
        self.calls.append(("transfer", nbytes, duration))


class TestInvalidTransfer:
    @pytest.mark.parametrize("nbytes", [0, -4096])
    def test_rejected_before_any_side_effect(self, env, nbytes):
        ch = Channel(env)
        probe = ch.probe = _RecordingProbe()
        errors = []

        def proc(env):
            try:
                yield from ch.transfer(nbytes)
            except ValueError as err:
                errors.append(err)

        env.process(proc(env))
        env.run()
        assert len(errors) == 1 and "nbytes must be positive" in str(errors[0])
        assert probe.calls == []
        assert ch.queue_length.max == 0
        assert ch._link.count == 0 and ch.transfers == 0
        # Only the process's own init and completion events ran: the
        # link was never claimed or released.
        assert env._seq == 2

    def test_valid_transfer_still_probed(self, env):
        ch = Channel(env)
        probe = ch.probe = _RecordingProbe()

        def proc(env):
            yield from ch.transfer(4096)

        env.process(proc(env))
        env.run()
        assert probe.calls == [("request", 4096), ("transfer", 4096, ch.transfer_time(4096))]
        assert ch.queue_length.max == 1 and ch.queue_length.value == 0


class TestTrackBufferPool:
    def test_validation(self, env):
        with pytest.raises(ValueError):
            TrackBufferPool(env, ndisks=0)
        with pytest.raises(ValueError):
            TrackBufferPool(env, ndisks=1, buffers_per_disk=0)

    def test_capacity_is_five_per_disk(self, env):
        pool = TrackBufferPool(env, ndisks=10)
        assert pool.capacity == 50

    def test_acquire_release(self, env):
        pool = TrackBufferPool(env, ndisks=1, buffers_per_disk=2)

        def proc(env):
            yield from pool.acquire(1)
            assert pool.in_use == 1
            pool.release(1)
            assert pool.in_use == 0

        env.process(proc(env))
        env.run()
        assert pool.acquisitions == 1
        assert pool.peak_in_use == 1

    def test_blocks_when_exhausted(self, env):
        pool = TrackBufferPool(env, ndisks=1, buffers_per_disk=1)
        times = []

        def holder(env):
            yield from pool.acquire(1)
            yield env.timeout(5)
            pool.release(1)

        def waiter(env):
            yield env.timeout(1)
            yield from pool.acquire(1)
            times.append(env.now)
            pool.release(1)

        env.process(holder(env))
        env.process(waiter(env))
        env.run()
        assert times == [5.0]

    def test_waiting_count(self, env):
        pool = TrackBufferPool(env, ndisks=1, buffers_per_disk=1)

        def holder(env):
            yield from pool.acquire(1)
            yield env.timeout(5)
            pool.release(1)

        def waiter(env):
            yield from pool.acquire(1)
            pool.release(1)

        env.process(holder(env))
        env.process(waiter(env))
        env.run(until=1)
        assert pool.waiting == 1

    def test_multi_acquire_atomic(self, env):
        """A k-acquire takes all k at once or none (no hold-and-wait)."""
        pool = TrackBufferPool(env, ndisks=1, buffers_per_disk=4)
        log = []

        def big(env):
            yield from pool.acquire(3)
            log.append(("big", env.now))
            yield env.timeout(5)
            pool.release(3)

        def small(env):
            yield env.timeout(1)
            yield from pool.acquire(2)  # only 1 free -> must wait
            log.append(("small", env.now))
            pool.release(2)

        env.process(big(env))
        env.process(small(env))
        env.run()
        assert log == [("big", 0.0), ("small", 5.0)]

    def test_fifo_no_starvation(self, env):
        """A queued large request is not starved by later small ones."""
        pool = TrackBufferPool(env, ndisks=1, buffers_per_disk=4)
        order = []

        def user(env, k, tag, delay):
            yield env.timeout(delay)
            yield from pool.acquire(k)
            order.append(tag)
            yield env.timeout(10)
            pool.release(k)

        env.process(user(env, 4, "first", 0.0))
        env.process(user(env, 4, "large", 1.0))
        env.process(user(env, 1, "small", 2.0))
        env.run()
        assert order == ["first", "large", "small"]

    def test_acquire_validation(self, env):
        pool = TrackBufferPool(env, ndisks=1, buffers_per_disk=2)

        def proc(env):
            with pytest.raises(ValueError):
                yield from pool.acquire(0)
            with pytest.raises(ValueError):
                yield from pool.acquire(3)

        env.process(proc(env))
        env.run()

    def test_release_validation(self, env):
        pool = TrackBufferPool(env, ndisks=1, buffers_per_disk=2)
        with pytest.raises(ValueError):
            pool.release(1)  # nothing held
