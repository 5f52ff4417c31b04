"""Shared machinery for the experiment drivers.

Trace handling
--------------
Trace 2 is small enough to regenerate per run.  Trace 1 (130 data
disks, 3.36 M requests at full scale) is scaled down in two ways that
both preserve per-disk load: the request stream is shortened
(``scaled`` on the generator config) and only the first
:data:`T1_DISKS` logical disks are simulated — the paper itself
averages over 13 identical arrays, so simulating 6 of them at the same
per-disk rate measures the same system.  60 disks divide evenly into
arrays for every ``N`` the paper sweeps (5, 10, 15, 20).

For Trace 2 with ``N`` larger than its 10 data disks (the paper sweeps
N to 20 for both traces), the logical space is padded: the database
still occupies 10 disks' worth of addresses but is laid out over an
``N``-wide array, exactly what the equal-capacity rule implies when the
array is wider than the database.

Each process generates a base trace — one generator recipe, ``(trace,
base scale, hda overrides)`` — once and keeps it in a constant-size
in-process memo; padding and the trace-speed transform are cheap and
run on every call.  The memo holds exactly what
:func:`~repro.trace.generate_trace` returned, so no answer depends on
whether a recipe was generated or remembered.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

from repro.trace import (
    Trace,
    generate_trace,
    scale_speed,
    slice_arrays,
    trace1_config,
    trace2_config,
)

__all__ = [
    "ExperimentResult",
    "Series",
    "T1_DISKS",
    "T1_BASE_SCALE",
    "T2_BASE_SCALE",
    "get_trace",
]

#: Logical disks simulated for Trace-1 experiments (of the 130 traced).
T1_DISKS = 60
#: Default request-stream scale for Trace 1 (multiplied by --scale).
T1_BASE_SCALE = 0.04
#: Default request-stream scale for Trace 2.
T2_BASE_SCALE = 0.5


#: Base traces the memo holds: every base recipe of ``all``'s points
#: fits (eight, ext-rebuild's Trace 2 at half the scale among them).
_MEMO_SIZE = 8


@lru_cache(maxsize=_MEMO_SIZE)
def _base_trace(which: int, scale: float, hda: tuple) -> Trace:
    """Generate one base trace; Trace 1 comes back sliced to T1_DISKS."""
    if which == 1:
        return slice_arrays(generate_trace(trace1_config(scale=scale)), 0, T1_DISKS)
    cfg = trace2_config(scale=scale)
    if hda:
        cfg = replace(cfg, **dict(hda))
    return generate_trace(cfg)


def _pad_disks(trace: Trace, ndisks: int) -> Trace:
    """Widen the logical space without adding traffic (N > database)."""
    if ndisks < trace.ndisks:
        raise ValueError("padding cannot shrink the trace")
    if ndisks == trace.ndisks:
        return trace
    return Trace(
        trace.records,
        ndisks,
        trace.blocks_per_disk,
        name=f"{trace.name}|pad{ndisks}",
    )


def get_trace(
    which: int,
    scale: float = 1.0,
    speed: float = 1.0,
    n: int = 10,
    hda: tuple = (),
) -> Trace:
    """Build the experiment trace.

    A repeated recipe that needs neither padding nor speed scaling
    returns the memo's object itself.

    Parameters
    ----------
    which:
        1 or 2 (the paper's Trace 1 / Trace 2).
    scale:
        Multiplies the experiment-default request-stream scale.
    speed:
        §4.2.4 trace-speed factor.
    n:
        Array size the trace will be run against (used to pad Trace 2
        when ``n`` exceeds its 10 data disks).
    hda:
        Heterogeneous-array generator overrides: sorted keyword pairs
        applied to the Trace-2 synthetic config (``ndisks``,
        ``va_disks``, ``va_weights``, ``va_write_skew``, ...).  Only
        valid for Trace 2; the logical space is taken as-is (no
        ``n``-padding) because an HDA point sizes it explicitly.
    """
    hda = tuple(hda)
    if which == 1:
        if hda:
            raise ValueError("hda overrides are only supported for trace 2")
        trace = _base_trace(1, round(T1_BASE_SCALE * scale, 6), ())
    elif which == 2:
        trace = _base_trace(2, round(T2_BASE_SCALE * scale, 6), hda)
        if not hda and n > trace.ndisks:
            trace = _pad_disks(trace, n)
    else:
        raise ValueError(f"trace must be 1 or 2, got {which}")
    if speed != 1.0:
        trace = scale_speed(trace, speed)
    return trace


# ---------------------------------------------------------------------------


@dataclass
class Series:
    """One curve of a figure: a label and (x, y) points."""

    label: str
    xs: list
    ys: list[float]

    def __post_init__(self) -> None:
        if len(self.xs) != len(self.ys):
            raise ValueError("xs and ys must have equal length")


@dataclass
class ExperimentResult:
    """The reproduced data behind one table or figure."""

    exp_id: str
    title: str
    xlabel: str
    ylabel: str
    series: list[Series] = field(default_factory=list)
    notes: str = ""

    def table_str(self) -> str:
        """Render the series as the rows/columns the paper plots."""
        header = [self.xlabel] + [s.label for s in self.series]
        xs = self.series[0].xs if self.series else []
        rows = []
        for i, x in enumerate(xs):
            row = [str(x)]
            for s in self.series:
                try:
                    row.append(f"{s.ys[i]:.2f}")
                except (IndexError, TypeError):
                    row.append("-")
            rows.append(row)
        widths = [
            max(len(header[c]), *(len(r[c]) for r in rows)) if rows else len(header[c])
            for c in range(len(header))
        ]
        lines = [
            f"{self.exp_id}: {self.title}",
            f"({self.ylabel})",
            "  ".join(h.ljust(w) for h, w in zip(header, widths)),
            "  ".join("-" * w for w in widths),
        ]
        for r in rows:
            lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)

    def series_by_label(self, label: str) -> Series:
        """Find a series by its label (exact match)."""
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(label)

    def to_dict(self) -> dict:
        """JSON-friendly representation."""
        return {
            "id": self.exp_id,
            "title": self.title,
            "xlabel": self.xlabel,
            "ylabel": self.ylabel,
            "series": [
                {"label": s.label, "xs": list(s.xs), "ys": list(s.ys)}
                for s in self.series
            ],
            "notes": self.notes,
        }
