"""Edge-case and stress tests for the DES kernel."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import AllOf, AnyOf, Environment, Event, PriorityStore, Resource


@pytest.fixture
def env():
    return Environment()


class TestEventOrderingStress:
    @given(st.lists(st.floats(min_value=0, max_value=1000), min_size=1, max_size=300))
    @settings(max_examples=50)
    def test_processing_order_matches_sorted_times(self, delays):
        env = Environment()
        seen = []

        def waiter(env, d, i):
            yield env.timeout(d)
            seen.append((env.now, i))

        for i, d in enumerate(delays):
            env.process(waiter(env, d, i))
        env.run()
        times = [t for t, _ in seen]
        assert times == sorted(times)
        # Ties broken by schedule order.
        by_time = {}
        for t, i in seen:
            by_time.setdefault(t, []).append(i)
        for group in by_time.values():
            assert group == sorted(group)

    def test_many_processes_on_one_event(self, env):
        ev = Event(env)
        resumed = []
        for i in range(500):

            def proc(env, i=i):
                yield ev
                resumed.append(i)

            env.process(proc(env))

        def trigger(env):
            yield env.timeout(1)
            ev.succeed()

        env.process(trigger(env))
        env.run()
        assert resumed == list(range(500))


class TestConditionEdgeCases:
    def test_nested_conditions(self, env):
        def proc(env):
            inner = env.timeout(1) & env.timeout(2)
            outer = inner | env.timeout(10)
            yield outer
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value == 2.0

    def test_condition_over_processes_and_timeouts(self, env):
        def child(env):
            yield env.timeout(3)
            return "c"

        def proc(env):
            events = [env.process(child(env)), env.timeout(1, "t")]
            yield AllOf(env, events)
            return (env.now, [ev.processed for ev in events])

        p = env.process(proc(env))
        env.run()
        assert p.value == (3.0, [True, True])

    def test_anyof_remaining_events_still_fire(self, env):
        late_fired = []

        def proc(env):
            fast = env.timeout(1)
            slow = env.timeout(5)
            slow.callbacks.append(lambda e: late_fired.append(env.now))
            yield AnyOf(env, [fast, slow])
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value == 1.0
        assert late_fired == [5.0]

    def test_condition_with_failing_event_defused(self, env):
        def bad(env):
            yield env.timeout(1)
            raise ValueError("bad")

        def proc(env):
            try:
                yield AnyOf(env, [env.process(bad(env)), env.timeout(10)])
            except ValueError:
                return "caught"

        p = env.process(proc(env))
        env.run()
        assert p.value == "caught"


class TestResourceStress:
    def test_random_acquire_release_conserves_capacity(self, env):
        res = Resource(env, capacity=3)
        rng = random.Random(1)
        max_seen = []

        def user(env, hold):
            with res.request() as req:
                yield req
                max_seen.append(res.count)
                yield env.timeout(hold)

        for _ in range(200):
            env.process(user(env, rng.uniform(0.1, 5.0)))
        env.run()
        assert max(max_seen) <= 3
        assert res.count == 0
        assert res.queue_length == 0

    def test_priority_store_drains_in_order_under_load(self, env):
        store = PriorityStore(env)
        got = []

        def consumer(env):
            for _ in range(100):
                item = yield store.get()
                got.append(item)
                yield env.timeout(1)

        def producer(env):
            rng = random.Random(2)
            yield env.timeout(0.5)
            for i in range(100):
                store.put((rng.randint(0, 3), i), priority=0)

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        # FIFO within equal priority: second elements ascending.
        assert [i for _, i in got] == sorted(i for _, i in got)


class TestProcessLifecycles:
    def test_chain_of_spawns(self, env):
        """Deep chains of processes waiting on children terminate."""

        def nested(env, depth):
            if depth == 0:
                yield env.timeout(1)
                return 0
            v = yield env.process(nested(env, depth - 1))
            return v + 1

        p = env.process(nested(env, 50))
        env.run()
        assert p.value == 50
        assert env.now == 1.0

    def test_process_waiting_on_terminated_process(self, env):
        def quick(env):
            yield env.timeout(1)
            return "done"

        def late(env, target):
            yield env.timeout(5)
            v = yield target
            return v

        q = env.process(quick(env))
        p = env.process(late(env, q))
        env.run()
        assert p.value == "done"

    def test_exception_type_preserved_through_chain(self, env):
        class Custom(Exception):
            pass

        def a(env):
            yield env.timeout(1)
            raise Custom("x")

        def b(env):
            try:
                yield env.process(a(env))
            except Custom:
                return "custom"

        p = env.process(b(env))
        env.run()
        assert p.value == "custom"
