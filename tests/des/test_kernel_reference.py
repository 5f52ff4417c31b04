"""The ready-queue kernel dispatches exactly as the heap-only kernel.

:class:`HeapOnlyEnvironment` is the reference: every event, due now or
later, goes on the ``(time, sequence)`` heap, and its own :meth:`step`
pops it from there; its :meth:`run` loops on that :meth:`step`.
Hypothesis draws small programs of sleeping, shared-event, condition,
resource and spawning processes; each process logs ``(now, label,
outcome)`` on every resume, and both kernels must produce the same log,
the same clock and the same sequence counter when driven by
:meth:`run`, by repeated :meth:`step`, by ``run(until=t)``, by
``run(until=process)``, and by all three in turn, which makes the
kernel's one dispatch loop stop and restart under each of its stop
conditions back to back.
"""

from heapq import heappop, heappush

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import AllOf, AnyOf, Environment, Event, Resource, Timeout
from repro.des.environment import _TIMEOUT_POOL_CAP, EmptySchedule
from repro.validate import InvariantViolation, ValidationMonitor


class _HeapReady:
    """Ready-queue stand-in: an event due now goes on the heap."""

    __slots__ = ("env",)

    def __init__(self, env):
        self.env = env

    def __len__(self):
        return 0

    def append(self, event):
        env = self.env
        heappush(env._queue, (env._now, env._seq, event))


class HeapOnlyEnvironment(Environment):
    """The heap-only kernel the ready queue replaced."""

    def __init__(self, initial_time=0.0):
        super().__init__(initial_time)
        self._ready = _HeapReady(self)

    def peek(self):
        return self._queue[0][0] if self._queue else float("inf")

    def step(self):
        try:
            self._now, _, event = heappop(self._queue)
        except IndexError:
            raise EmptySchedule() from None

        if self._event_hooks is not None:
            for hook in self._event_hooks:
                hook(self._now, event)

        if type(event) is Timeout:
            proc = event._proc
            callbacks = event.callbacks
            event.callbacks = None
            if proc is not None:
                event._proc = None
                proc._resume(event)
                if callbacks:
                    for callback in callbacks:
                        callback(event)
                elif len(self._timeout_pool) < _TIMEOUT_POOL_CAP:
                    self._timeout_pool.append(event)
            else:
                for callback in callbacks:
                    callback(event)
            return

        callbacks, event.callbacks = event.callbacks, None
        assert callbacks is not None, "event processed twice"
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            exc = event._exc
            assert exc is not None
            raise exc

    def run(self, until=None):
        if until is None or isinstance(until, Event):
            stop = until
            flag = []
            if stop is not None:
                if stop.callbacks is None:
                    return stop.value
                stop.callbacks.append(lambda _e: flag.append(True))
            while not flag:
                if not self._queue:
                    if stop is None:
                        return None
                    raise RuntimeError(f"no more events; {stop!r} never triggered")
                self.step()
            return stop.value
        at = float(until)
        if at < self._now:
            raise ValueError(f"until ({at}) must be >= now ({self._now})")
        while self._queue and self._queue[0][0] <= at:
            self.step()
        self._now = at
        return None


# -- programs ------------------------------------------------------------------

#: Zero twice over, exact binary fractions that land on common instants,
#: decimals whose sums do not (0.1 + 0.2 != 0.3), and a positive delay
#: too small to move a clock past zero.
DELAYS = (0.0, 0.0, 0.5, 1.0, 1.5, 2.0, 0.1, 0.2, 0.3, 1e-17)
NSHARED = 3
MAX_DEPTH = 2

delays = st.sampled_from(DELAYS)
shared = st.integers(0, NSHARED - 1)
ops = st.one_of(
    st.tuples(st.just("sleep"), delays),
    st.tuples(st.just("wait"), shared),
    st.tuples(st.just("succeed"), shared),
    st.tuples(st.just("fail"), shared),
    st.tuples(
        st.sampled_from(["all_of", "any_of"]),
        st.lists(delays, max_size=3),
        st.none() | shared,
    ),
    st.tuples(st.just("use"), st.integers(0, 2), delays),
    st.tuples(st.just("spawn"), st.integers(0, 7), st.booleans()),
)
programs = st.fixed_dictionaries(
    {
        "bodies": st.lists(st.lists(ops, max_size=6), min_size=1, max_size=5),
        "capacity": st.integers(1, 2),
    }
)


class Boom(Exception):
    pass


class World:
    """One program's run on one kernel: its processes and their log."""

    def __init__(self, env, program):
        self.env = env
        self.bodies = program["bodies"]
        self.shared = [Event(env) for _ in range(NSHARED)]
        self.resource = Resource(env, capacity=program["capacity"])
        self.procs = []
        self.log = []
        for i in range(len(self.bodies)):
            self.spawn(i, f"p{i}", 0)

    def spawn(self, body, name, depth):
        proc = self.env.process(self.body(self.bodies[body], name, depth))
        self.procs.append(proc)
        return proc

    def body(self, body_ops, name, depth):
        env, log = self.env, self.log
        log.append((env.now, name, "start"))
        for i, op in enumerate(body_ops):
            label = f"{name}.{i}"
            try:
                outcome = yield from self.perform(op, label, depth)
            except Boom as exc:
                outcome = f"boom {exc}"
            log.append((env.now, label, outcome))
        return name

    def perform(self, op, label, depth):
        env, kind = self.env, op[0]
        if kind == "sleep":
            value = yield env.timeout(op[1], value=label)
            return value
        if kind == "wait":
            value = yield self.shared[op[1]]
            return value
        if kind in ("succeed", "fail"):
            ev = self.shared[op[1]]
            if not ev.triggered:
                if kind == "succeed":
                    ev.succeed(label)
                else:
                    ev.fail(Boom(label))
            return "done"
        if kind in ("all_of", "any_of"):
            events = [env.timeout(d, value=d) for d in op[1]]
            if op[2] is not None:
                events.append(self.shared[op[2]])
            cond = AllOf if kind == "all_of" else AnyOf
            yield cond(env, events)
            return [ev.processed for ev in events]
        if kind == "use":
            with self.resource.request(priority=op[1]) as req:
                yield req
                self.log.append((env.now, label, "granted"))
                yield env.timeout(op[2])
            return "released"
        assert kind == "spawn"
        if depth >= MAX_DEPTH:
            return "too deep"
        child = self.spawn(op[1] % len(self.bodies), f"{label}/c", depth + 1)
        if op[2]:
            value = yield child
            return value
        return "spawned"


def _outcome(env, program, drive):
    world = World(env, program)
    try:
        drive(env, world)
        error = None
    except Exception as exc:  # the same failure must end both runs
        # Other messages name objects by address.
        message = str(exc) if isinstance(exc, Boom) else ""
        error = (type(exc).__name__, message)
    return world.log, error, env.now, env._seq


def _by_run(env, world):
    env.run()


def _by_step(env, world):
    while True:
        world.log.append((env.now, "peek", env.peek()))
        try:
            env.step()
        except EmptySchedule:
            return


def _by_run_until(times):
    def drive(env, world):
        for t in times:
            env.run(until=max(t, env.now))
            world.log.append((env.now, "until", env.peek()))
        env.run()

    return drive


def _by_run_until_event(env, world):
    world.log.append((env.now, "joined", env.run(until=world.procs[0])))
    env.run()


def _by_turns(turns):
    """``step()``, ``run(until=t)`` and ``run(until=process)`` in turn."""

    def drive(env, world):
        for kind, arg in turns:
            if kind == "step":
                try:
                    env.step()
                except EmptySchedule:
                    world.log.append((env.now, "empty", None))
                    continue
                world.log.append((env.now, "stepped", env.peek()))
            elif kind == "until":
                env.run(until=max(arg, env.now))
                world.log.append((env.now, "until", env.peek()))
            else:
                proc = world.procs[arg % len(world.procs)]
                world.log.append((env.now, "joined", env.run(until=proc)))
        env.run()

    return drive


def _assert_same(program, drive):
    want = _outcome(HeapOnlyEnvironment(), program, drive)
    assert _outcome(Environment(), program, drive) == want


until_time = st.sampled_from([0.0, 0.3, 0.5, 1.0, 1.5, 2.0, 3.0])
until_times = st.lists(until_time, max_size=5).map(sorted)
turns = st.lists(
    st.one_of(
        st.tuples(st.just("step"), st.none()),
        st.tuples(st.just("until"), until_time),
        st.tuples(st.just("join"), st.integers(0, 7)),
    ),
    max_size=8,
)


@settings(deadline=None)
@given(programs, until_times, turns)
def test_ready_queue_dispatches_as_the_heap_only_kernel(program, times, turns):
    for drive in (
        _by_run,
        _by_step,
        _by_run_until(times),
        _by_run_until_event,
        _by_turns(turns),
    ):
        _assert_same(program, drive)


def test_reference_kernel_is_heap_only():
    """Sanity check on the reference: nothing ever waits in a ready queue."""
    env = HeapOnlyEnvironment()
    env.event().succeed()
    env.timeout(0.0)
    assert len(env._queue) == 2 and not env._ready


# -- fixed cases ---------------------------------------------------------------


@pytest.fixture
def env():
    return Environment()


def _at_five(env):
    env.timeout(5.0)
    env.run()
    assert env.now == 5.0


class TestReadyQueue:
    def test_peek_returns_now_while_an_event_is_ready(self, env):
        _at_five(env)
        env.timeout(2.0)
        assert env.peek() == 7.0
        env.event().succeed()
        assert env.peek() == 5.0
        env.step()
        assert env.peek() == 7.0

    def test_run_until_now_dispatches_ready_events(self, env):
        _at_five(env)
        ready = [env.event().succeed(i) for i in range(3)]
        later = env.timeout(1.0)
        env.run(until=env.now)
        assert all(ev.processed for ev in ready)
        assert not later.processed
        assert env.now == 5.0

    def test_step_raises_empty_schedule_only_when_both_queues_are_empty(self, env):
        ready = env.event().succeed()  # the ready queue only
        env.step()
        assert ready.processed
        later = env.timeout(1.0)  # the heap only
        env.step()
        assert later.processed and env.now == 1.0
        with pytest.raises(EmptySchedule):
            env.step()

    def test_past_event_is_dispatched_after_ready_ones_and_caught(self):
        """The event planted by the monitor test, with events due now."""
        env = Environment()
        seen = []
        ValidationMonitor(checkers=[]).attach(env, [])
        env.on_event(lambda t, e: seen.append(t))
        _at_five(env)
        ready = env.event().succeed()
        env.schedule(Event(env), delay=-2.0)
        with pytest.raises(InvariantViolation, match="event-order"):
            env.run()
        assert ready.processed
        assert seen == [5.0, 5.0]
