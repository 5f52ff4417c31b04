"""Generator-based simulation processes.

A :class:`Process` wraps a Python generator.  Each ``yield``ed event
suspends the process; when that event triggers, the process resumes with
the event's value (or the event's exception is thrown into the generator).
A process is itself an event that triggers when the generator returns, so
processes can wait for each other.
"""

from __future__ import annotations

from types import GeneratorType
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.des.events import Event, Interrupt, PENDING, Timeout

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.environment import Environment

__all__ = ["Process"]


class Process(Event):
    """An active simulation entity driven by a generator.

    The process is started immediately: an initialization event is
    scheduled at the current simulation time, so the generator body begins
    executing once the environment processes that event (i.e. *not*
    synchronously inside the constructor).
    """

    __slots__ = ("_generator", "_send", "_target", "name", "parent")

    def __init__(self, env: "Environment", generator: Generator[Event, Any, Any]) -> None:
        # Any object with send() and throw() runs as a process (timing
        # proxies wrap generators this way); true generators skip the
        # attribute probes.
        if type(generator) is GeneratorType:
            name = generator.__name__
        elif hasattr(generator, "send") and hasattr(generator, "throw"):
            name = getattr(generator, "__name__", "process")
        else:
            raise TypeError(f"{generator!r} is not a generator")
        # Event.__init__ written out: one process per request.
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._exc = None
        self._ok = True
        self._defused = False
        self._generator = generator
        # Pre-bound send(): one attribute hop instead of two per resume.
        self._send = generator.send
        self.name = name
        #: The process that was active when this one was spawned (``None``
        #: for processes created outside any process, e.g. at build time).
        #: Observers use the chain to attribute work to a logical request.
        self.parent: Optional[Process] = env._active_proc

        init = Event(env)
        init._value = None
        init.callbacks = [self._resume]
        # ``env.schedule(init)``, inlined as in Event.succeed.
        env._seq += 1
        env._ready.append(init)
        #: The event this process is currently waiting on.
        self._target: Optional[Event] = init

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is PENDING and self._exc is None

    @property
    def target(self) -> Optional[Event]:
        """The event the process is currently waiting for."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw an :class:`Interrupt` into the process.

        The process stops waiting on its current target (it may re-yield
        it to continue waiting) and the ``Interrupt`` exception is raised
        at the point of the current ``yield``.  Interrupts sent in one
        instant arrive one after another, each at the wait the process
        reached after the one before; one sent to a process that has
        ended by the time it arrives is dropped.
        """
        if not self.is_alive:
            raise RuntimeError(f"{self!r} has terminated; cannot interrupt")
        if self is self.env.active_process:
            raise RuntimeError("a process cannot interrupt itself")

        interrupt_ev = Event(self.env)
        interrupt_ev._ok = False
        interrupt_ev._exc = Interrupt(cause)
        interrupt_ev._defused = True
        # Detach now so a late trigger of the target does not resume the
        # process before the interrupt does.
        self._detach()
        interrupt_ev.callbacks = [self._interrupted]
        self.env.schedule(interrupt_ev)

    def _detach(self) -> None:
        """Stop waiting on the current target.

        A timeout holding this process in its fast-lane slot is cleared
        the same way a list waiter is removed.
        """
        target = self._target
        if target is not None:
            if type(target) is Timeout and target._proc is self:
                target._proc = None
            elif target.callbacks is not None:
                try:
                    target.callbacks.remove(self._resume)
                except ValueError:  # pragma: no cover - defensive
                    pass
        self._target = None

    def _interrupted(self, event: Event) -> None:
        """Deliver an interrupt to whatever the process waits on now.

        An earlier interrupt of the same instant may have resumed the
        process into a new wait, or ended it.
        """
        if self.is_alive:
            self._detach()
            self._resume(event)

    # -- machinery ---------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with *event*'s outcome."""
        env = self.env
        env._active_proc = self
        while True:
            try:
                if event._ok:
                    next_event = self._send(event._value)
                else:
                    # The process handles (or propagates) the failure.
                    event._defused = True
                    exc = event._exc
                    assert exc is not None
                    next_event = self._generator.throw(exc)
            except StopIteration as stop:
                self._target = None
                self._ok = True
                self._value = stop.value
                # ``env.schedule(self)``, inlined as in Event.succeed.
                env._seq += 1
                env._ready.append(self)
                break
            except BaseException as error:
                self._target = None
                self._ok = False
                self._exc = error
                self._defused = False
                env.schedule(self)
                break

            # The dominant sleep-resume pattern — yielding a fresh pending
            # timeout nobody else waits on — parks this process in the
            # timeout's fast-lane slot, skipping the bound-method
            # allocation and list append of the generic path below.
            if type(next_event) is Timeout:
                cbs = next_event.callbacks
                if cbs is not None:
                    if next_event._proc is None and not cbs:
                        next_event._proc = self
                    else:
                        cbs.append(self._resume)
                    self._target = next_event
                    break
                # Already processed: continue synchronously.
                event = next_event
                continue

            if not isinstance(next_event, Event):
                error = RuntimeError(
                    f"process {self.name!r} yielded a non-event: {next_event!r}"
                )
                self._target = None
                self._ok = False
                self._exc = error
                env.schedule(self)
                break

            if next_event.callbacks is not None:
                # Pending or triggered-but-unprocessed: wait for it.
                next_event.callbacks.append(self._resume)
                self._target = next_event
                break

            # Already processed: continue synchronously with its outcome.
            event = next_event

        env._active_proc = None

    def __repr__(self) -> str:
        return f"<Process({self.name}) object at 0x{id(self):x}>"
