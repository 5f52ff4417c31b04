"""The simulation environment: virtual clock and event queues.

Every scheduled event takes the next value of a monotonically increasing
sequence number, and events are processed in ``(time, sequence)`` order:
by time, and in the order they were scheduled within one time.  Combined
with seeded random number generators this makes every simulation run
bit-for-bit reproducible.

Two queues hold the pending events.  Most events are due at the very
instant they are scheduled (a succeeded event, a process start or
completion, a zero-delay timeout); they go to a FIFO *ready queue*.
Later events go on a binary heap of ``(time, sequence, event)`` entries.
The ready queue is dispatched first.  When it runs dry the clock advances
to the heap's earliest time, and every heap entry due then moves to the
ready queue before anything is dispatched.  Those entries were scheduled
before the clock reached that time, so their sequence numbers are smaller
than those of anything scheduled at it, and the dispatch order is exactly
``(time, sequence)``: the queue split saves heap pushes and pops, not
events.

One private loop dispatches every event.  :meth:`Environment.step` and
the three forms of :meth:`Environment.run` differ only in when it stops:
after one event, when the queues are empty, once a given event has been
processed, or before the first event due after a given time.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Optional, Sequence, Union

from repro.des.events import Event, Timeout
from repro.des.process import Process

__all__ = ["Environment", "EmptySchedule"]

#: Signature of an event observer: ``hook(time, event)``.
EventHook = Callable[[float, Event], None]

#: Upper bound on recycled :class:`Timeout` objects kept per environment.
#: Steady state needs about one per concurrently sleeping process; the cap
#: only bounds pathological churn.
_TIMEOUT_POOL_CAP = 1024

_INF = float("inf")
#: The ``stop`` of :meth:`Environment.step`: true from the first event on.
_ONCE = (True,)


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when no events remain."""


class Environment:
    """Coordinates event scheduling and process execution.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock (default ``0.0``).
        Time units are milliseconds throughout this package, but the
        kernel itself is unit-agnostic.
    """

    __slots__ = (
        "_now",
        "_ready",
        "_queue",
        "_seq",
        "_active_proc",
        "_event_hooks",
        "_timeout_pool",
    )

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        # Events due at ``_now``, in sequence order.
        self._ready: deque[Event] = deque()
        # Later events as ``(time, sequence, event)`` heap entries.
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._active_proc: Optional[Process] = None
        # Observer hooks, called as ``hook(time, event)`` for every
        # processed event.  ``None`` (the default) keeps the hot path to
        # a single identity check per step.
        self._event_hooks: Optional[list[EventHook]] = None
        # Freelist of processed fast-lane timeouts.  Only timeouts whose
        # sole consumer was a process parked in the ``_proc`` slot are
        # recycled — anything with a callback list entry (conditions,
        # ``run(until=...)``, extra waiters) may still be referenced by
        # its subscribers and is left to the garbage collector.
        self._timeout_pool: list[Timeout] = []

    # -- clock -----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_proc

    # -- observation -------------------------------------------------------
    def on_event(self, hook: EventHook) -> EventHook:
        """Register *hook* to be called for every processed event.

        The hook runs as ``hook(time, event)`` immediately after the
        clock advances and before the event's callbacks fire.  Hooks are
        the kernel's only observation point; the validation subsystem
        uses them to check the ``(time, sequence)`` ordering contract.
        Returns the hook so it can be passed to :meth:`off_event`.
        """
        if self._event_hooks is None:
            self._event_hooks = []
        self._event_hooks.append(hook)
        return hook

    def off_event(self, hook: EventHook) -> None:
        """Unregister a hook added with :meth:`on_event`."""
        if self._event_hooks is None or hook not in self._event_hooks:
            raise ValueError("hook is not registered")
        self._event_hooks.remove(hook)
        if not self._event_hooks:
            self._event_hooks = None

    # -- scheduling -------------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0) -> None:
        """Insert *event* into the queue ``delay`` time units from now.

        An event due now joins the ready queue, a later one the heap.
        A NaN delay is rejected: it would make the clock NaN.  A negative
        one is not: this is the raw insertion the validation suite uses
        to plant an out-of-order event.  Such a past event goes on the
        heap, so it is dispatched after the current instant's ready
        events, and the clock then runs backwards to its time, which the
        validation monitor's event-order checker reports.
        """
        if delay != delay:
            raise ValueError(f"invalid delay {delay} (must be >= 0)")
        self._seq += 1
        at = self._now + delay
        if at == self._now:
            self._ready.append(event)
        else:
            heappush(self._queue, (at, self._seq, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._ready:
            return self._now
        return self._queue[0][0] if self._queue else _INF

    def step(self) -> None:
        """Process the next event, re-raising its unhandled failure.

        Raises :class:`EmptySchedule` when both queues are empty.
        """
        if not self._ready and not self._queue:
            raise EmptySchedule()
        self._loop(_ONCE, _INF)

    def run(self, until: Union[None, float, Event] = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None``
                run until both event queues are exhausted;
            a number
                dispatch every event due at or before that time, the
                ready ones included, and set the clock to exactly
                ``until``; a NaN or past time raises :class:`ValueError`
                before anything is dispatched;
            an :class:`Event`
                run until that event has been processed and return its
                value (re-raising its exception if it failed).
        """
        if until is None:
            self._loop((), _INF)
            return None
        if isinstance(until, Event):
            if until.callbacks is None:  # already processed
                return until.value
            stopped: list[Event] = []
            until.callbacks.append(stopped.append)
            self._loop(stopped, _INF)
            if not stopped:
                raise RuntimeError(f"no more events; {until!r} never triggered")
            return until.value
        at = float(until)
        if not at >= self._now:  # also rejects NaN
            raise ValueError(f"until ({at}) must be >= now ({self._now})")
        self._loop((), at)
        self._now = at
        return None

    def _loop(self, stop: Sequence[Any], limit: float) -> None:
        """Dispatch events in ``(time, sequence)`` order.

        Takes the head of the ready queue or, when that is empty, advances
        the clock to the heap's earliest time and moves every entry due
        then to the ready queue; then runs the event's callbacks.  Returns
        once *stop* is non-empty after an event, when both queues are
        empty, or when the next event is due after *limit*.  A failed
        event that no handler defused is re-raised, so that programming
        errors inside processes surface instead of being swallowed.
        """
        # Local bindings.  ``resume`` is the unbound method, called as
        # ``resume(proc, event)`` to avoid allocating a bound method per
        # fast-lane event.
        ready = self._ready
        popleft = ready.popleft
        queue = self._queue
        pool = self._timeout_pool
        pop = heappop
        timeout_t = Timeout
        resume = Process._resume
        while True:
            if ready:
                event = popleft()
            elif queue and queue[0][0] <= limit:
                now, _, event = pop(queue)
                self._now = now
                while queue and queue[0][0] == now:
                    ready.append(pop(queue)[2])
            else:
                return

            hooks = self._event_hooks
            if hooks is not None:
                for hook in hooks:
                    hook(self._now, event)

            if type(event) is timeout_t:
                # Timeouts always succeed; no failure to propagate.
                proc = event._proc
                callbacks = event.callbacks
                event.callbacks = None
                if proc is not None:
                    # The fast-lane slot is semantically ``callbacks[0]``.
                    event._proc = None
                    resume(proc, event)
                    if callbacks:
                        for callback in callbacks:
                            callback(event)
                    elif len(pool) < _TIMEOUT_POOL_CAP:
                        pool.append(event)
                else:
                    for callback in callbacks:
                        callback(event)
            else:
                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise event._exc

            if stop:
                return

    # -- factories ---------------------------------------------------------
    def event(self) -> Event:
        """Create a new pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` triggering ``delay`` from now.

        Reuses a recycled timeout from the freelist when one is
        available, skipping the constructor chain on the dominant
        sleep-resume path.  Recycled objects are indistinguishable from
        fresh ones: ``_ok``/``_exc``/``_defused``/``_proc`` are invariant
        across a fast-lane cycle, so only the outcome fields are reset.
        """
        pool = self._timeout_pool
        if pool:
            if not delay >= 0:  # also rejects NaN
                raise ValueError(f"invalid delay {delay} (must be >= 0)")
            event = pool.pop()
            event.delay = delay
            event._value = value
            event.callbacks = []
            # ``schedule(event, delay)`` inlined.
            self._seq += 1
            at = self._now + delay
            if at == self._now:
                self._ready.append(event)
            else:
                heappush(self._queue, (at, self._seq, event))
            return event
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Event, Any, Any]) -> Process:
        """Launch *generator* as a simulation :class:`Process`."""
        return Process(self, generator)
