"""Campaign engine: every experiment runs through :func:`iter_campaign`.

The registry describes each experiment as independent
:class:`~repro.experiments.points.Point` work units (config + trace
spec, nothing heavyweight) plus an ``assemble`` merge.  The engine keeps
one map from content key (:func:`~repro.experiments.points.point_key`)
to value per call: each key is found among the values a resumed
:class:`~repro.experiments.telemetry.CampaignRecorder` read from its
manifest, or evaluated once, in this process (``jobs <= 1``) or in one
worker of a ``ProcessPoolExecutor`` (``jobs > 1``), and every point with
that key takes the value.  A point's value is a function of its content
key and the code (which the manifest's fingerprint pins), so sharing or
resuming cannot change an answer; each point's record says whether its
value was ``stored``, ``computed`` or ``shared`` (see
:mod:`~repro.experiments.telemetry`).  Workers only compute: every
record, and so every manifest write, is made in this process.  The
merge is deterministic:

* values are placed by each point's ``key`` and assembled by the
  experiment's ``assemble`` hook, so completion order cannot perturb the
  output — ``--jobs N`` is byte-identical to a serial run;
* :func:`iter_campaign` hands over each experiment's results in campaign
  order as soon as its last value lands, and :func:`run_campaign`
  collects them into a dict;
* each worker materializes traces through the in-process memo of
  :func:`~repro.experiments.common.get_trace`, so it generates each base
  trace once, not once per point;
* a point that raises (or a crashed worker) surfaces a
  :class:`CampaignError` naming the failed point (the first point with
  its key), in both modes; under a pool the remaining work is cancelled
  first instead of hanging it.
"""

from __future__ import annotations

import contextlib
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from functools import partial
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.experiments.common import ExperimentResult
from repro.experiments.points import Point, PointValue, point_key, with_backend
from repro.experiments.registry import get_experiment
from repro.experiments.telemetry import (
    CampaignRecorder,
    PointRecord,
    evaluate_point,
    point_record,
)

__all__ = [
    "CampaignError",
    "ProgressPrinter",
    "check_scale",
    "default_jobs",
    "iter_campaign",
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
    thousand lines.  The first and last units always print.
    """

    def __init__(self, interval_s: float = 1.0, stream=None) -> None:
        self.interval_s = interval_s
        self.stream = stream if stream is not None else sys.stderr
        self._t0: Optional[float] = None
        self._last_print = -float("inf")
        self._line_open = False

    def _is_tty(self) -> bool:
        isatty = getattr(self.stream, "isatty", None)
        return bool(isatty()) if isatty else False

    def __call__(self, done: int, total: int, label: str) -> None:
        now = time.perf_counter()
        if self._t0 is None:
            self._t0 = now

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


def _outcome(point: Point, result: Callable[[], Tuple[PointValue, PointRecord]]):
    """``result()``, with any failure raised as a :class:`CampaignError`
    naming *point*."""
    try:
        return result()
    except Exception as exc:
        raise CampaignError(
            f"campaign unit '{point.label()}' failed: {type(exc).__name__}: {exc}"
        ) from exc


def _distinct_values(
    firsts: Dict[str, Point], jobs: int, stored: Dict[str, PointValue]
) -> Iterator[Tuple[str, PointValue, PointRecord]]:
    """Yield ``(key, value, record)`` once for each content key of *firsts*.

    *firsts* maps each key to the first point that has it, and *record*
    is that point's.  A key in *stored* is ``stored``; otherwise its
    point is evaluated, in this process in order (``jobs <= 1``) or in a
    pool of *jobs* workers, and is ``computed``.  Pending pool work is
    cancelled when a point fails or the caller stops early.
    """
    with ProcessPoolExecutor(jobs) if jobs > 1 else contextlib.nullcontext() as pool:
        futures = {}
        try:
            for key, point in firsts.items():
                value = stored.get(key)
                if value is not None:
                    yield key, value, point_record(point, key, value, "stored")
                elif pool is None:
                    yield key, *_outcome(point, partial(evaluate_point, point))
                else:
                    futures[pool.submit(evaluate_point, point)] = key, point
            for fut in as_completed(futures):
                key, point = futures[fut]
                yield key, *_outcome(point, fut.result)
        finally:
            for fut in futures:
                fut.cancel()


def _grouped_values(
    groups: Sequence[Sequence[Point]],
    jobs: int,
    progress: Optional[ProgressHook],
    recorder: Optional[CampaignRecorder],
) -> Iterator[Dict[tuple, PointValue]]:
    """Yield each group's ``key -> value`` map, in group order, as soon
    as its last value lands.

    Each distinct content key is evaluated (or found among the values
    *recorder* resumed) once; every point with that key takes its
    value, the first one as ``computed`` (or ``stored``), the later ones
    as ``shared`` (or ``stored``).
    """
    points = [point for group in groups for point in group]
    holders: Dict[str, List[int]] = {}
    for i, point in enumerate(points):
        holders.setdefault(point_key(point), []).append(i)
    values: List[Optional[PointValue]] = [None] * len(points)
    done = 0

    def land(i: int, value: PointValue, record: PointRecord) -> None:
        nonlocal done
        values[i] = value
        if recorder is not None:
            recorder.add(record)
        done += 1
        if progress is not None:
            progress(done, len(points), points[i].label())

    firsts = {key: points[held[0]] for key, held in holders.items()}
    stored = recorder.stored if recorder is not None else {}
    with contextlib.closing(_distinct_values(firsts, jobs, stored)) as evaluations:
        start = 0
        for group in groups:
            end = start + len(group)
            while None in values[start:end]:
                key, value, record = next(evaluations)
                first, *rest = holders[key]
                land(first, value, record)
                later = "stored" if record.provenance == "stored" else "shared"
                for i in rest:
                    land(i, value, point_record(points[i], key, value, later))
            yield {point.key: value for point, value in zip(group, values[start:end])}
            start = end


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
) -> Dict[tuple, PointValue]:
    """Evaluate *points* into a ``key -> value`` map.

    Keys must be unique across the sequence.  *jobs*, *progress* and
    *recorder* mean what they mean for :func:`iter_campaign`.
    """
    points = list(points)
    _check_unique(points)
    (values,) = _grouped_values([points], jobs, progress, recorder)
    return values


def check_scale(scale: float) -> float:
    """*scale* if it is a finite number above 0, else ``ValueError``."""
    if math.isfinite(scale) and scale > 0:
        return scale
    raise ValueError(f"scale must be a finite number above 0, got {scale!r}")


def iter_campaign(
    exp_ids: Sequence[str],
    scale: float = 1.0,
    jobs: int = 1,
    progress: Optional[ProgressHook] = None,
    backend: str = "des",
    recorder: Optional[CampaignRecorder] = None,
) -> Iterator[Tuple[str, List[ExperimentResult]]]:
    """Yield ``(exp_id, results)`` per experiment, in order, each as
    soon as its last point value lands.

    Closing the iterator early cancels the pool work still pending.

    Parameters
    ----------
    exp_ids:
        Experiment ids, already resolved against the registry.
    scale:
        A finite number above 0 (else ``ValueError``, before any point
        runs) multiplying each experiment's trace sizes.
    jobs:
        ``<= 1`` evaluates every point in this process, in order;
        ``> 1`` fans the points out over that many worker processes.
        The results are byte-identical either way.
    progress:
        Optional ``hook(done, total, label)`` called once per point of
        the whole campaign, ``done`` counting 1..total.
    backend:
        Evaluate simulation points on ``"des"`` (default) or the
        ``"analytic"`` fast solver.  Points with a
        :attr:`~repro.experiments.points.Point.des_reason` always run
        on the DES.
    recorder:
        Optional :class:`~repro.experiments.telemetry.CampaignRecorder`
        appending one telemetry record per point to its manifest as the
        value lands (the caller finalizes it).  A point whose content
        key is among the values a resumed recorder read from its
        manifest is served from there as ``stored``, so an interrupted
        or repeated campaign computes only what is missing.
    """
    check_scale(scale)
    plan = []
    for exp in map(get_experiment, exp_ids):
        points = with_backend(exp.points(scale), backend)
        _check_unique(points)
        plan.append((exp, points))
    groups = _grouped_values([points for _, points in plan], jobs, progress, recorder)
    with contextlib.closing(groups):
        for (exp, _), values in zip(plan, groups):
            yield exp.exp_id, exp.assemble(scale, values)


def run_campaign(exp_ids: Sequence[str], scale: float = 1.0, **options) -> Dict[str, List[ExperimentResult]]:
    """Run the experiments and return ``exp_id -> results``, in order.

    *options* are those of :func:`iter_campaign`.
    """
    return dict(iter_campaign(exp_ids, scale, **options))
