"""Unit tests for Process semantics and the Environment run loop."""

import pytest

from repro.des import Environment, Event, Process
from repro.des.environment import EmptySchedule


@pytest.fixture
def env():
    return Environment()


class TestProcess:
    def test_rejects_non_generator(self, env):
        with pytest.raises(TypeError):
            Process(env, lambda: None)

    def test_process_return_value(self, env):
        def proc(env):
            yield env.timeout(2)
            return "result"

        p = env.process(proc(env))
        env.run()
        assert p.value == "result"

    def test_process_is_alive(self, env):
        def proc(env):
            yield env.timeout(5)

        p = env.process(proc(env))
        assert p.is_alive
        env.run()
        assert not p.is_alive

    def test_wait_for_process(self, env):
        def child(env):
            yield env.timeout(3)
            return 7

        def parent(env):
            value = yield env.process(child(env))
            return (env.now, value)

        p = env.process(parent(env))
        env.run()
        assert p.value == (3.0, 7)

    def test_exception_propagates_to_waiter(self, env):
        def child(env):
            yield env.timeout(1)
            raise KeyError("oops")

        def parent(env):
            try:
                yield env.process(child(env))
            except KeyError:
                return "caught"
            return "missed"

        p = env.process(parent(env))
        env.run()
        assert p.value == "caught"

    def test_unhandled_process_exception_escapes_run(self, env):
        def proc(env):
            yield env.timeout(1)
            raise RuntimeError("crash")

        env.process(proc(env))
        with pytest.raises(RuntimeError, match="crash"):
            env.run()

    def test_yield_non_event_fails(self, env):
        def proc(env):
            yield 42

        env.process(proc(env))
        with pytest.raises(RuntimeError, match="non-event"):
            env.run()

    def test_immediate_return(self, env):
        def proc(env):
            return "done"
            yield  # pragma: no cover

        p = env.process(proc(env))
        env.run()
        assert p.value == "done"

    def test_yield_already_processed_event_continues_synchronously(self, env):
        def proc(env):
            t = env.timeout(1, "v")
            yield env.timeout(2)
            got = yield t  # t was processed at time 1
            assert got == "v"
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value == 2.0

    def test_waiting_on_pending_event(self, env):
        ev = Event(env)

        def trigger(env):
            yield env.timeout(4)
            ev.succeed("go")

        def waiter(env):
            value = yield ev
            return (env.now, value)

        env.process(trigger(env))
        p = env.process(waiter(env))
        env.run()
        assert p.value == (4.0, "go")

    def test_two_waiters_on_one_event(self, env):
        ev = Event(env)
        results = []

        def waiter(env, tag):
            yield ev
            results.append((tag, env.now))

        env.process(waiter(env, "a"))
        env.process(waiter(env, "b"))

        def trigger(env):
            yield env.timeout(2)
            ev.succeed()

        env.process(trigger(env))
        env.run()
        assert results == [("a", 2.0), ("b", 2.0)]


class _Forwarder:
    """A non-generator coroutine: forwards ``send`` and ``throw`` to a
    generator, the way a timing proxy wrapping a process does."""

    def __init__(self, gen, name=None):
        self._gen = gen
        if name is not None:
            self.__name__ = name

    def send(self, value):
        return self._gen.send(value)

    def throw(self, *exc):
        return self._gen.throw(*exc)


class TestNonGeneratorProcess:
    def test_runs_object_with_send_and_throw(self, env):
        def body(env):
            got = yield env.timeout(2, value="tick")
            return got, env.now

        p = env.process(_Forwarder(body(env), name="body"))
        env.run()
        assert p.value == ("tick", 2.0)

    def test_failures_are_thrown_through(self, env):
        def body(env):
            ev = env.event()
            ev.fail(KeyError("boom"))
            try:
                yield ev
            except KeyError:
                return "handled"

        p = env.process(_Forwarder(body(env)))
        env.run()
        assert p.value == "handled"

    def test_named_by_dunder_name(self, env):
        def body(env):
            yield env.timeout(1)

        assert env.process(_Forwarder(body(env), name="worker")).name == "worker"

    def test_unnamed_object_is_called_process(self, env):
        def body(env):
            yield env.timeout(1)

        assert env.process(_Forwarder(body(env))).name == "process"

    @pytest.mark.parametrize("attrs", [(), ("send",), ("throw",)])
    def test_rejects_object_without_send_and_throw(self, env, attrs):
        obj = type("Partial", (), {a: lambda self, *args: None for a in attrs})()
        with pytest.raises(TypeError, match="not a generator"):
            Process(env, obj)
        assert env._seq == 0


class TestEnvironmentRun:
    def test_run_until_time(self, env):
        ticks = []

        def clock(env):
            while True:
                ticks.append(env.now)
                yield env.timeout(1)

        env.process(clock(env))
        env.run(until=3.5)
        assert ticks == [0, 1, 2, 3]
        assert env.now == 3.5

    def test_run_until_past_raises(self, env):
        env.run(until=5)
        with pytest.raises(ValueError):
            env.run(until=1)

    def test_run_until_nan_raises_before_dispatching(self, env):
        """A NaN horizon would make the clock NaN for every later event."""
        timeout = env.timeout(5.0)
        with pytest.raises(ValueError, match="until \\(nan\\)"):
            env.run(until=float("nan"))
        assert env.now == 0.0 and env._seq == 1
        assert not timeout.processed and env.peek() == 5.0
        env.run()
        assert env.now == 5.0

    def test_run_until_event_returns_value(self, env):
        def proc(env):
            yield env.timeout(2)
            return "finished"

        p = env.process(proc(env))
        assert env.run(until=p) == "finished"

    def test_run_until_already_processed_event(self, env):
        t = env.timeout(1, "v")
        env.run(until=5)
        assert env.run(until=t) == "v"

    def test_run_until_never_triggered_event_raises(self, env):
        ev = Event(env)
        with pytest.raises(RuntimeError, match="never triggered"):
            env.run(until=ev)

    def test_step_on_empty_schedule_raises(self, env):
        with pytest.raises(EmptySchedule):
            env.step()

    def test_peek(self, env):
        assert env.peek() == float("inf")
        env.timeout(7)
        assert env.peek() == 7.0

    def test_clock_monotonic(self, env):
        seen = []

        def proc(env, d):
            yield env.timeout(d)
            seen.append(env.now)

        import random

        rng = random.Random(42)
        for _ in range(200):
            env.process(proc(env, rng.uniform(0, 100)))
        env.run()
        assert seen == sorted(seen)
        assert len(seen) == 200

    def test_initial_time(self):
        env = Environment(initial_time=100.0)
        assert env.now == 100.0

        def proc(env):
            yield env.timeout(5)
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value == 105.0

    def test_nested_process_spawning(self, env):
        """Processes spawning processes, fork/join style."""

        def leaf(env, d):
            yield env.timeout(d)
            return d

        def root(env):
            children = [env.process(leaf(env, d)) for d in (3, 1, 2)]
            results = []
            for c in children:
                results.append((yield c))
            return results

        p = env.process(root(env))
        env.run()
        assert p.value == [3, 1, 2]
        assert env.now == 3.0
