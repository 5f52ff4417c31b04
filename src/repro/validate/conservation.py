"""Request conservation: nothing is lost, duplicated, or acausal.

Checks, online:

* every logical request is released once and completed exactly once,
  with a finite, non-negative response time;
* every disk access completes no earlier than it was submitted, and at
  most once (service intervals are monotone and non-negative);

and at finalize:

* released == completed (no request left behind);
* the measured tallies in :class:`~repro.sim.results.RunResult`
  reconcile with the post-warmup releases the checker counted, and the
  read/write split sums to the total.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.validate.checker import CheckContext, InvariantChecker

__all__ = ["RequestConservationChecker"]


class RequestConservationChecker(InvariantChecker):
    """Every released request completes exactly once, causally."""

    name = "request-conservation"

    def attach(self, ctx: CheckContext) -> None:
        self._released: dict[int, float] = {}
        self._completed: set[int] = set()
        self._measured = 0  # releases at or after the warmup cutoff
        self._disk_submits = 0
        self._disk_completes = 0

    # -- logical requests ----------------------------------------------------
    def on_request_released(self, rid: int, process, lstart, nblocks, is_write) -> None:
        time = self.ctx.env.now
        if rid in self._released:
            self.fail(f"request {rid} released twice (t={time:g})")
        if not math.isfinite(time) or time < 0.0:
            self.fail(f"request {rid} released at unphysical time {time!r}")
        self._released[rid] = time
        if time >= self.ctx.warmup_ms:
            self._measured += 1

    def on_request_completed(self, rid: int) -> None:
        time = self.ctx.env.now
        if rid not in self._released:
            self.fail(f"request {rid} completed but never released")
        if rid in self._completed:
            self.fail(f"request {rid} completed twice (t={time:g})")
        t0 = self._released[rid]
        if not math.isfinite(time) or time < t0:
            self.fail(
                f"request {rid} completed at {time!r}, before its release at {t0:g}"
            )
        self._completed.add(rid)

    # -- disk accesses -------------------------------------------------------
    def on_disk_submit(self, disk, request) -> None:
        self._disk_submits += 1

    def on_disk_complete(self, disk, request) -> None:
        self._disk_completes += 1
        now = self.ctx.env.now
        if now < request.submit_time:
            self.fail(
                f"{disk.name}: {request!r} completed at {now:g}, "
                f"before its submission at {request.submit_time:g}"
            )
        if request.spin_revolutions < 0 or request.hold_retries < 0:
            self.fail(f"{disk.name}: negative service counters on {request!r}")

    # -- finalize ------------------------------------------------------------
    def finalize(self, ctx: CheckContext, result) -> None:
        outstanding = set(self._released) - self._completed
        if outstanding:
            sample = sorted(outstanding)[:5]
            self.fail(
                f"{len(outstanding)} request(s) released but never completed "
                f"(e.g. {sample})"
            )
        if self._disk_completes > self._disk_submits:
            self.fail(
                f"{self._disk_completes} disk completions exceed "
                f"{self._disk_submits} submissions"
            )
        if result is None:
            return
        if result.requests != len(self._released):
            self.fail(
                f"RunResult.requests={result.requests} but "
                f"{len(self._released)} requests were released"
            )
        if result.response.count != self._measured:
            self.fail(
                f"response tally holds {result.response.count} samples but "
                f"{self._measured} post-warmup requests completed"
            )
        split = result.read_response.count + result.write_response.count
        if split != result.response.count:
            self.fail(
                f"read ({result.read_response.count}) + write "
                f"({result.write_response.count}) samples != total "
                f"({result.response.count})"
            )
        for tally in (result.response, result.read_response, result.write_response):
            if tally.count and (tally.min < 0.0 or not math.isfinite(tally.max)):
                self.fail(
                    f"response times outside [0, inf): min={tally.min!r}, "
                    f"max={tally.max!r}"
                )
