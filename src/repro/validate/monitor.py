"""The validation monitor: invariant checkers on the probe bus.

:meth:`ValidationMonitor.attach` subscribes the checkers to the
system's :class:`~repro.obs.probes.ProbeBus` (each receives the taps of
:data:`~repro.obs.probes.TAPS` it defines) and registers a kernel event
hook.  :meth:`~ValidationMonitor.finalize` gives every checker its
end-of-run audit and then unsubscribes them, so a monitored system can
keep running unobserved afterwards.

The monitor also owns one invariant itself: the kernel's clock must
never run backwards (the ``(time, sequence)`` heap contract).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.obs.probes import ProbeBus
from repro.validate.checker import CheckContext, InvariantChecker, InvariantViolation

__all__ = ["ValidationMonitor", "default_checkers"]


def default_checkers() -> list[InvariantChecker]:
    """One instance of each stock checker."""
    from repro.validate.cache_accounting import CacheAccountingChecker
    from repro.validate.conservation import RequestConservationChecker
    from repro.validate.failed_disk import FailedDiskChecker
    from repro.validate.parity import ParityConsistencyChecker
    from repro.validate.resources import ResourceSanityChecker

    return [
        RequestConservationChecker(),
        ParityConsistencyChecker(),
        CacheAccountingChecker(),
        ResourceSanityChecker(),
        FailedDiskChecker(),
    ]


class ValidationMonitor:
    """Runs a set of invariant checkers over a simulation.

    Parameters
    ----------
    checkers:
        The checkers to run; ``None`` selects the five stock checkers
        (conservation, parity, cache accounting, resource sanity,
        failed disk).
    """

    def __init__(self, checkers: Optional[Iterable[InvariantChecker]] = None) -> None:
        self.checkers = list(checkers) if checkers is not None else default_checkers()
        self.ctx: Optional[CheckContext] = None
        self._bus: Optional[ProbeBus] = None
        self._hook = None
        self._last_event_time = 0.0

    # -- lifecycle -----------------------------------------------------------
    def attach(self, env, controllers: Sequence, warmup_ms: float = 0.0) -> "ValidationMonitor":
        """Subscribe the checkers to the probe bus of *controllers*."""
        if self.ctx is not None:
            raise RuntimeError("monitor is already attached")
        ctx = CheckContext(env, controllers, warmup_ms)
        for checker in self.checkers:
            checker.ctx = ctx
            checker.attach(ctx)
        bus = ProbeBus.of(ctx.controllers)
        bus.subscribe(*self.checkers)
        self.ctx, self._bus = ctx, bus
        self._last_event_time = env.now
        self._hook = env.on_event(self._on_kernel_event)
        return self

    def finalize(self, result=None) -> None:
        """Run every checker's end-of-run audit, then detach."""
        ctx = self._require_ctx()
        try:
            for checker in self.checkers:
                checker.finalize(ctx, result)
        finally:
            self.detach()

    def detach(self) -> None:
        """Unsubscribe the checkers; the system continues unobserved."""
        if self.ctx is None:
            return
        self._bus.unsubscribe(*self.checkers)
        self._bus = None
        self.ctx.env.off_event(self._hook)
        self._hook = None
        self.ctx = None

    def _require_ctx(self) -> CheckContext:
        if self.ctx is None:
            raise RuntimeError("monitor is not attached")
        return self.ctx

    # -- kernel hook -----------------------------------------------------------
    def _on_kernel_event(self, time: float, event) -> None:
        if time < self._last_event_time:
            raise InvariantViolation(
                "event-order",
                f"clock ran backwards: event at {time:g} after {self._last_event_time:g}",
            )
        self._last_event_time = time
