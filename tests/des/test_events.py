"""Unit tests for DES event primitives."""

import pytest

from repro.des import AllOf, AnyOf, Environment, Event, Timeout
from repro.des.events import PENDING


@pytest.fixture
def env():
    return Environment()


class TestEvent:
    def test_initial_state(self, env):
        ev = Event(env)
        assert not ev.triggered
        assert not ev.processed
        assert ev.callbacks == []

    def test_value_unavailable_before_trigger(self, env):
        ev = Event(env)
        with pytest.raises(AttributeError):
            _ = ev.value

    def test_succeed_sets_value(self, env):
        ev = Event(env)
        ev.succeed(42)
        assert ev.triggered
        assert ev.value == 42

    def test_succeed_default_value_is_none(self, env):
        ev = Event(env)
        ev.succeed()
        assert ev.value is None

    def test_succeed_twice_raises(self, env):
        ev = Event(env)
        ev.succeed(1)
        with pytest.raises(RuntimeError):
            ev.succeed(2)

    def test_fail_then_succeed_raises(self, env):
        ev = Event(env)
        ev.fail(ValueError("x"))
        ev._defused = True
        with pytest.raises(RuntimeError):
            ev.succeed()

    def test_fail_requires_exception(self, env):
        ev = Event(env)
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_fail_value_is_the_exception(self, env):
        ev = Event(env)
        exc = ValueError("boom")
        ev.fail(exc)
        ev._defused = True
        assert ev.value is exc
        assert not ev.ok

    def test_unhandled_failure_raises_in_step(self, env):
        ev = Event(env)
        ev.fail(RuntimeError("unhandled"))
        with pytest.raises(RuntimeError, match="unhandled"):
            env.run()

    def test_callbacks_invoked_in_order(self, env):
        ev = Event(env)
        seen = []
        ev.callbacks.append(lambda e: seen.append(1))
        ev.callbacks.append(lambda e: seen.append(2))
        ev.succeed()
        env.run()
        assert seen == [1, 2]
        assert ev.processed

    def test_pending_sentinel_repr(self):
        assert "PENDING" in repr(PENDING)


class TestTimeout:
    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            Timeout(env, -1)

    def test_nan_delay_rejected_by_constructor(self, env):
        with pytest.raises(ValueError, match="delay nan"):
            Timeout(env, float("nan"))
        with pytest.raises(ValueError, match="delay nan"):
            env.timeout(float("nan"))
        assert env._seq == 0 and env.now == 0.0

    def test_nan_delay_rejected_on_recycled_timeout(self, env):
        def sleeper(env):
            yield env.timeout(1.0)

        env.process(sleeper(env))
        env.run()
        assert env._timeout_pool, "the sleeper's timeout was not recycled"
        seq = env._seq
        with pytest.raises(ValueError, match="delay nan"):
            env.timeout(float("nan"))
        assert env._seq == seq and env.peek() == float("inf")
        assert env.now == 1.0

    def test_nan_delay_rejected_by_schedule(self, env):
        with pytest.raises(ValueError, match="delay nan"):
            env.schedule(Event(env), float("nan"))
        assert env._seq == 0 and env.peek() == float("inf")

    def test_infinite_delay_allowed(self, env):
        timeout = env.timeout(float("inf"))
        assert env.peek() == float("inf")
        env.schedule(Event(env), float("inf"))
        assert not timeout.processed

    def test_timeout_fires_at_delay(self, env):
        times = []

        def proc(env):
            yield env.timeout(5.5)
            times.append(env.now)

        env.process(proc(env))
        env.run()
        assert times == [5.5]

    def test_timeout_carries_value(self, env):
        got = []

        def proc(env):
            v = yield env.timeout(1, value="hello")
            got.append(v)

        env.process(proc(env))
        env.run()
        assert got == ["hello"]

    def test_zero_delay_allowed(self, env):
        def proc(env):
            yield env.timeout(0)
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value == 0.0

    def test_timeouts_ordered_by_delay(self, env):
        order = []

        def waiter(env, d, tag):
            yield env.timeout(d)
            order.append(tag)

        env.process(waiter(env, 3, "c"))
        env.process(waiter(env, 1, "a"))
        env.process(waiter(env, 2, "b"))
        env.run()
        assert order == ["a", "b", "c"]

    def test_same_time_fifo(self, env):
        """Events at the same instant are processed in schedule order."""
        order = []

        def waiter(env, tag):
            yield env.timeout(1)
            order.append(tag)

        for tag in "abcdef":
            env.process(waiter(env, tag))
        env.run()
        assert order == list("abcdef")


class TestConditions:
    def test_all_of_waits_for_slowest(self, env):
        def proc(env):
            t1 = env.timeout(1, "x")
            t2 = env.timeout(4, "y")
            result = yield AllOf(env, [t1, t2])
            return (env.now, result, t1.processed, t2.processed)

        p = env.process(proc(env))
        env.run()
        assert p.value == (4.0, None, True, True)

    def test_any_of_returns_at_fastest(self, env):
        def proc(env):
            t1 = env.timeout(1, "fast")
            t2 = env.timeout(9, "slow")
            result = yield AnyOf(env, [t1, t2])
            return (env.now, result, t1.processed, t2.processed)

        p = env.process(proc(env))
        env.run()
        assert p.value == (1.0, None, True, False)

    def test_and_operator(self, env):
        def proc(env):
            yield env.timeout(1) & env.timeout(2)
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value == 2.0

    def test_or_operator(self, env):
        def proc(env):
            yield env.timeout(1) | env.timeout(2)
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value == 1.0

    def test_empty_allof_triggers_immediately(self, env):
        def proc(env):
            yield AllOf(env, [])
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value == 0.0

    def test_allof_with_already_processed_events(self, env):
        def proc(env):
            t1 = env.timeout(1, "early")
            yield env.timeout(5)
            # t1 processed long ago
            t2 = env.timeout(1, "late")
            yield AllOf(env, [t1, t2])
            return (env.now, t1.processed, t2.processed)

        p = env.process(proc(env))
        env.run()
        assert p.value == (6.0, True, True)

    def test_failing_subevent_fails_condition(self, env):
        def failer(env):
            yield env.timeout(1)
            raise ValueError("inner failure")

        def proc(env):
            p = env.process(failer(env))
            with pytest.raises(ValueError, match="inner failure"):
                yield AllOf(env, [p, env.timeout(10)])
            return "handled"

        p = env.process(proc(env))
        env.run()
        assert p.value == "handled"

    def test_mixed_environments_rejected(self, env):
        other = Environment()
        with pytest.raises(ValueError):
            AllOf(env, [Event(env), Event(other)])
