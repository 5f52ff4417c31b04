"""Invariant-checker framework.

A checker is a passive observer: the :class:`~repro.validate.monitor.
ValidationMonitor` subscribes every attached checker to the system's
probe bus, so a checker receives each tap of
:data:`~repro.obs.probes.TAPS` it defines an ``on_<tap>`` method for,
and calls :meth:`InvariantChecker.finalize` once the run ends.  A
checker that sees physics violated raises :class:`InvariantViolation`
with enough context to debug the run.

Checkers must never mutate simulation state — they exist so that a
``validate=True`` run is *observationally identical* to a normal run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.array.controller import ArrayController
    from repro.des import Environment
    from repro.sim.results import RunResult

__all__ = ["InvariantViolation", "CheckContext", "InvariantChecker"]


class InvariantViolation(AssertionError):
    """A machine-checked simulation invariant failed.

    Derives from :class:`AssertionError`: a violation is a bug in the
    simulator (or an injected fault), never a property of the workload.
    """

    def __init__(self, checker: str, message: str) -> None:
        super().__init__(f"[{checker}] {message}")
        self.checker = checker


class CheckContext:
    """What every checker can see: the environment, the controllers and
    the placement of each disk within its array.

    Parameters
    ----------
    env, controllers:
        The simulation under observation.
    warmup_ms:
        Statistics cutoff of the run (requests released earlier are
        simulated but not measured).
    """

    def __init__(self, env: "Environment", controllers, warmup_ms: float = 0.0) -> None:
        self.env = env
        self.controllers = list(controllers)
        self.warmup_ms = warmup_ms
        #: ``disk -> (array_index, disk_index, controller)`` for every
        #: disk of every attached array (identity-keyed).
        self.disk_info: dict[Any, tuple[int, int, "ArrayController"]] = {}
        for ai, ctrl in enumerate(self.controllers):
            for di, disk in enumerate(ctrl.disks):
                self.disk_info[disk] = (ai, di, ctrl)

    def array_of(self, controller: "ArrayController") -> int:
        """Index of *controller* among the attached arrays."""
        return self.controllers.index(controller)


class InvariantChecker:
    """Base class for invariant checkers.

    Subclasses set :attr:`name` (used in violation messages), define an
    ``on_<tap>`` method for each tap of :data:`~repro.obs.probes.TAPS`
    they check, e.g. ``on_disk_submit(self, disk, request)``, and
    implement :meth:`finalize`.  Tap methods read :attr:`ctx`.
    """

    name = "invariant"
    #: The run under observation; set by the monitor before :meth:`attach`.
    ctx: Optional[CheckContext] = None

    # -- lifecycle -----------------------------------------------------------
    def attach(self, ctx: CheckContext) -> None:
        """Called once before the run starts."""

    def finalize(self, ctx: CheckContext, result: Optional["RunResult"]) -> None:
        """Called once after the run ends (*result* may be ``None`` when
        the monitor is used outside :func:`repro.sim.runner.run_trace`)."""

    # -- helpers -------------------------------------------------------------
    def fail(self, message: str) -> None:
        """Raise an :class:`InvariantViolation` attributed to this checker."""
        raise InvariantViolation(self.name, message)
