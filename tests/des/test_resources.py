"""Unit tests for Resource, Store and PriorityStore."""

import pytest

from repro.des import Environment, PriorityStore, Resource, Store


@pytest.fixture
def env():
    return Environment()


class TestResource:
    def test_capacity_validation(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_immediate_grant_when_free(self, env):
        res = Resource(env, capacity=2)

        def proc(env):
            req = res.request()
            yield req
            assert env.now == 0.0
            assert res.count == 1
            res.release(req)

        env.process(proc(env))
        env.run()
        assert res.count == 0

    def test_mutual_exclusion(self, env):
        res = Resource(env)
        log = []

        def user(env, name, hold):
            with res.request() as req:
                yield req
                log.append((env.now, name, "in"))
                yield env.timeout(hold)
            log.append((env.now, name, "out"))

        env.process(user(env, "a", 4))
        env.process(user(env, "b", 2))
        env.run()
        assert log == [
            (0.0, "a", "in"),
            (4.0, "a", "out"),
            (4.0, "b", "in"),
            (6.0, "b", "out"),
        ]

    def test_priority_order(self, env):
        res = Resource(env)
        order = []

        def holder(env):
            with res.request() as req:
                yield req
                yield env.timeout(10)

        def user(env, prio, tag):
            yield env.timeout(1)  # queue behind holder
            with res.request(priority=prio) as req:
                yield req
                order.append(tag)
                yield env.timeout(1)

        env.process(holder(env))
        env.process(user(env, 5, "low"))
        env.process(user(env, -1, "high"))
        env.process(user(env, 0, "mid"))
        env.run()
        assert order == ["high", "mid", "low"]

    def test_fifo_within_priority(self, env):
        res = Resource(env)
        order = []

        def holder(env):
            with res.request() as req:
                yield req
                yield env.timeout(10)

        def user(env, tag):
            yield env.timeout(1)
            with res.request() as req:
                yield req
                order.append(tag)

        env.process(holder(env))
        for tag in "abc":
            env.process(user(env, tag))
        env.run()
        assert order == ["a", "b", "c"]

    def test_release_foreign_request_raises(self, env):
        res = Resource(env)

        def proc(env):
            req = res.request()
            yield req
            res.release(req)
            with pytest.raises(RuntimeError):
                res.release(req)

        env.process(proc(env))
        env.run()

    def test_queue_length(self, env):
        res = Resource(env)

        def holder(env):
            with res.request() as req:
                yield req
                yield env.timeout(5)

        def waiter(env):
            with res.request() as req:
                yield req

        env.process(holder(env))
        env.process(waiter(env))
        env.process(waiter(env))
        env.run(until=1)
        assert res.queue_length == 2
        env.run()
        assert res.queue_length == 0

    def test_cancel_waiting_request(self, env):
        res = Resource(env)

        def holder(env):
            with res.request() as req:
                yield req
                yield env.timeout(5)

        def fickle(env):
            req = res.request()
            yield env.timeout(1)
            req.cancel()

        granted = []

        def patient(env):
            yield env.timeout(0.5)
            with res.request() as req:
                yield req
                granted.append(env.now)

        env.process(holder(env))
        env.process(fickle(env))
        env.process(patient(env))
        env.run()
        # The cancelled request must not block the patient waiter.
        assert granted == [5.0]

    def test_waiter_giving_up_withdraws_its_claim(self, env):
        """Leaving ``with res.request()`` while still queued cancels the
        claim instead of releasing one it never held, so nothing leaks."""
        res = Resource(env)
        log = []

        def holder(env):
            with res.request() as req:
                yield req
                yield env.timeout(5)

        def impatient(env):
            with res.request() as req:
                yield req | env.timeout(2)
                log.append((env.now, req.triggered))

        env.process(holder(env))
        env.process(impatient(env))
        env.run()
        assert log == [(2.0, False)]
        assert res.count == 0
        assert res.queue_length == 0

    def test_capacity_n_parallelism(self, env):
        res = Resource(env, capacity=3)
        done = []

        def user(env, tag):
            with res.request() as req:
                yield req
                yield env.timeout(2)
                done.append((env.now, tag))

        for tag in range(6):
            env.process(user(env, tag))
        env.run()
        # Two batches of 3.
        assert [t for t, _ in done] == [2.0] * 3 + [4.0] * 3


class TestStore:
    def test_fifo_order(self, env):
        store = Store(env)
        got = []

        def consumer(env):
            for _ in range(3):
                item = yield store.get()
                got.append(item)

        def producer(env):
            yield env.timeout(1)
            for x in ("a", "b", "c"):
                store.put(x)

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert got == ["a", "b", "c"]

    def test_get_blocks_until_put(self, env):
        store = Store(env)

        def consumer(env):
            item = yield store.get()
            return (env.now, item)

        def producer(env):
            yield env.timeout(7)
            store.put("x")

        p = env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert p.value == (7.0, "x")

    def test_len_and_items(self, env):
        store = Store(env)
        store.put(1)
        store.put(2)
        assert len(store) == 2
        assert store.items == [1, 2]

    def test_multiple_consumers_fifo(self, env):
        store = Store(env)
        got = []

        def consumer(env, tag):
            item = yield store.get()
            got.append((tag, item))

        env.process(consumer(env, "c1"))
        env.process(consumer(env, "c2"))

        def producer(env):
            yield env.timeout(1)
            store.put("x")
            store.put("y")

        env.process(producer(env))
        env.run()
        assert got == [("c1", "x"), ("c2", "y")]


class TestPriorityStore:
    def test_priority_retrieval(self, env):
        store = PriorityStore(env)
        store.put("low", priority=10)
        store.put("high", priority=-5)
        store.put("mid", priority=0)
        got = []

        def consumer(env):
            for _ in range(3):
                item = yield store.get()
                got.append(item)

        env.process(consumer(env))
        env.run()
        assert got == ["high", "mid", "low"]

    def test_fifo_within_priority(self, env):
        store = PriorityStore(env)
        for tag in "abc":
            store.put(tag, priority=1)
        got = []

        def consumer(env):
            for _ in range(3):
                got.append((yield store.get()))

        env.process(consumer(env))
        env.run()
        assert got == ["a", "b", "c"]

    def test_items_sorted(self, env):
        store = PriorityStore(env)
        store.put("z", 3)
        store.put("a", 1)
        assert store.items == ["a", "z"]
        assert len(store) == 2

    def test_idle_consumer_takes_first_arrival(self, env):
        """An already-waiting getter receives the first put regardless of
        priority — matching an idle disk starting service immediately."""
        store = PriorityStore(env)
        got = []

        def consumer(env):
            while len(got) < 2:
                got.append((yield store.get()))

        def producer(env):
            yield env.timeout(1)
            store.put("first", priority=100)
            store.put("urgent", priority=-100)

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert got == ["first", "urgent"]
