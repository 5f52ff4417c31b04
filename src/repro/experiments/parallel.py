"""Campaign engine: every experiment runs through :func:`run_campaign`.

The registry describes each experiment as independent
:class:`~repro.experiments.points.Point` work units (config + trace
spec, nothing heavyweight) plus an ``assemble`` merge.  One point loop
evaluates them, in this process (``jobs <= 1``) or over a
``ProcessPoolExecutor`` (``jobs > 1``), and merges the values
deterministically:

* values are placed by each point's ``key`` and assembled by the
  experiment's ``assemble`` hook, so completion order cannot perturb the
  output — ``--jobs N`` is byte-identical to a serial run;
* each worker materializes traces through the in-process memo of
  :func:`~repro.experiments.common.get_trace`, so it generates each base
  trace once, not once per point;
* with ``resume``, points already in the result store are served in the
  parent and never reach a worker;
* a point that raises (or a crashed worker) surfaces a
  :class:`CampaignError` naming the failed point, in both modes; under
  a pool the remaining work is cancelled first instead of hanging it.
"""

from __future__ import annotations

import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.experiments import result_store
from repro.experiments.common import ExperimentResult
from repro.experiments.points import Point, PointValue, with_backend
from repro.experiments.registry import get_experiment
from repro.experiments.telemetry import (
    CampaignRecorder,
    PointRecord,
    evaluate_point,
    stored_record,
)

__all__ = [
    "CampaignError",
    "ProgressPrinter",
    "default_jobs",
    "run_campaign",
    "run_points",
]

#: Signature of a progress callback: ``progress(done, total, label)``.
ProgressHook = Callable[[int, int, str], None]


class CampaignError(RuntimeError):
    """A campaign work unit failed (the message names the unit)."""


def default_jobs() -> int:
    """Worker count for ``--jobs 0``: one per available core."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _format_eta(seconds: float) -> str:
    seconds = max(0, int(seconds))
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    if seconds >= 60:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds}s"


class ProgressPrinter:
    """Throttled stderr progress with elapsed time and ETA.

    On a TTY the line rewrites in place (``\\r``); on CI logs and other
    non-TTY streams it falls back to plain lines, throttled to one per
    *interval* seconds so a thousand-point campaign does not emit a
    thousand lines.  The first and last units always print, and a new
    campaign (``done`` resetting) restarts the clock.
    """

    def __init__(self, interval_s: float = 1.0, stream=None) -> None:
        self.interval_s = interval_s
        self.stream = stream if stream is not None else sys.stderr
        self._t0: Optional[float] = None
        self._last_print = -float("inf")
        self._last_done = 0
        self._line_open = False

    def _is_tty(self) -> bool:
        isatty = getattr(self.stream, "isatty", None)
        return bool(isatty()) if isatty else False

    def __call__(self, done: int, total: int, label: str) -> None:
        now = time.perf_counter()
        if self._t0 is None or done <= self._last_done:
            self._t0 = now
            self._last_print = -float("inf")
        self._last_done = done

        final = done >= total
        if not final and done > 1 and now - self._last_print < self.interval_s:
            return
        self._last_print = now

        elapsed = now - self._t0
        if done and total > done and elapsed > 0:
            eta = f" eta {_format_eta(elapsed / done * (total - done))}"
        else:
            eta = ""
        text = f"[{done}/{total}] {elapsed:.1f}s{eta} {label}"
        if self._is_tty():
            pad = ""
            if self._line_open:
                pad = " " * max(0, getattr(self, "_prev_len", 0) - len(text))
            end = "\n" if final else ""
            print(f"\r{text}{pad}", end=end, file=self.stream, flush=True)
            self._prev_len = len(text)
            self._line_open = not final
        else:
            print(text, file=self.stream, flush=True)


def _failure(point: Point, exc: Exception) -> CampaignError:
    return CampaignError(
        f"campaign unit '{point.label()}' failed: {type(exc).__name__}: {exc}"
    )


def _run_units(
    points: Sequence[Point],
    jobs: int,
    progress: Optional[ProgressHook],
    recorder: Optional[CampaignRecorder],
    resume: bool,
) -> List[PointValue]:
    """Evaluate *points* into their values, in point order.

    ``jobs <= 1`` evaluates in this process, in order; ``jobs > 1``
    submits the same evaluator to a pool of that many workers.
    """
    values: List[Optional[PointValue]] = [None] * len(points)
    done = 0

    def finish(i: int, value: PointValue, record: PointRecord) -> None:
        nonlocal done
        values[i] = value
        if recorder is not None:
            recorder.add(record)
        done += 1
        if progress is not None:
            progress(done, len(points), points[i].label())

    pending = range(len(points))
    if resume:
        # Without this pre-check a warm re-run would wait one pool
        # round trip per stored point.
        pending = []
        for i, point in enumerate(points):
            t0 = time.perf_counter()
            key = result_store.point_key(point)
            value = result_store.load_value(key)
            if value is not None:
                finish(i, value, stored_record(point, key, value, time.perf_counter() - t0))
                continue
            pending.append(i)

    if jobs <= 1:
        for i in pending:
            try:
                value, record = evaluate_point(points[i], resume)
            except Exception as exc:
                raise _failure(points[i], exc) from exc
            finish(i, value, record)
        return values

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = {pool.submit(evaluate_point, points[i], resume): i for i in pending}
        for fut in as_completed(futures):
            i = futures[fut]
            try:
                value, record = fut.result()
            except Exception as exc:
                for other in futures:
                    other.cancel()
                raise _failure(points[i], exc) from exc
            finish(i, value, record)
    return values


def _check_unique(points: Sequence[Point]) -> None:
    seen = set()
    for point in points:
        if point.key in seen:
            raise ValueError(f"duplicate point key {point.key!r} in {point.exp_id}")
        seen.add(point.key)


def run_points(
    points: Iterable[Point],
    jobs: int = 1,
    progress: Optional[ProgressHook] = None,
    recorder: Optional[CampaignRecorder] = None,
    resume: bool = False,
) -> Dict[tuple, PointValue]:
    """Evaluate *points* into a ``key -> value`` map.

    Keys must be unique across the sequence.  *jobs*, *progress*,
    *recorder* and *resume* mean what they mean for
    :func:`run_campaign`.
    """
    points = list(points)
    _check_unique(points)
    values = _run_units(points, jobs, progress, recorder, resume)
    return {point.key: value for point, value in zip(points, values)}


def run_campaign(
    exp_ids: Sequence[str],
    scale: float = 1.0,
    jobs: int = 1,
    progress: Optional[ProgressHook] = None,
    backend: str = "des",
    recorder: Optional[CampaignRecorder] = None,
    resume: bool = False,
) -> Dict[str, List[ExperimentResult]]:
    """Run the experiments and return ``exp_id -> results``, in order.

    Parameters
    ----------
    exp_ids:
        Experiment ids, already resolved against the registry.
    jobs:
        ``<= 1`` evaluates every point in this process, in order;
        ``> 1`` fans the points out over that many worker processes.
        The results are byte-identical either way.
    progress:
        Optional ``hook(done, total, label)`` called per finished point.
    backend:
        Evaluate simulation points on ``"des"`` (default) or the
        ``"analytic"`` fast solver.  Failure-scenario points always
        run on the DES.
    recorder:
        Optional :class:`~repro.experiments.telemetry.CampaignRecorder`
        collecting one telemetry record per point (the caller finalizes
        it into the manifest).
    resume:
        Serve previously computed points from the content-keyed result
        store and persist fresh values into it, so interrupted or
        repeated campaigns only compute what is missing.
    """
    plan = []
    for exp in map(get_experiment, exp_ids):
        points = with_backend(exp.points(scale), backend)
        _check_unique(points)
        plan.append((exp, points))

    values = iter(
        _run_units([p for _, points in plan for p in points], jobs, progress, recorder, resume)
    )
    return {
        exp.exp_id: exp.assemble(scale, {p.key: next(values) for p in points})
        for exp, points in plan
    }
