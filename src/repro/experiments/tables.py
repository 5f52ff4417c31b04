"""Tables 1-4 of the paper: parameter and characteristics tables.

These "experiments" verify that the building blocks reproduce the
paper's configuration exactly: the disk model hits Table 1, the trace
generator hits Table 2, every Table 3 organization builds and runs (a
grid of one panel, Trace 2 at a fifth of the campaign scale), and Table
4 is the config default set.
"""

from __future__ import annotations

from repro.disk.geometry import BLOCK_BYTES
from repro.experiments.common import ExperimentResult, Series, get_trace
from repro.experiments.grid import Curve, Grid, Panel
from repro.sim import DiskParams, SystemConfig

__all__ = ["table1", "table2", "TABLE3", "table4"]


def table1(scale: float = 1.0) -> list[ExperimentResult]:
    """Disk and channel parameters (+ derived seek curve calibration)."""
    p = DiskParams()
    geo = p.geometry()
    sm = p.seek_model()
    rows = [
        ("rotation_rpm", p.rpm, 5400.0),
        ("average_seek_ms", sm.average_seek_time(), 11.2),
        ("maximal_seek_ms", sm.max_seek_time(), 28.0),
        ("tracks_per_platter", float(p.cylinders), 1260.0),
        ("sectors_per_track", float(p.sectors_per_track), 48.0),
        ("bytes_per_sector", float(p.bytes_per_sector), 512.0),
        ("platters", p.surfaces / 2.0, 15.0),
        ("capacity_GB", geo.capacity_bytes / 1e9, 0.9),
        ("revolution_ms", geo.revolution_time, 60000.0 / 5400.0),
    ]
    result = ExperimentResult(
        exp_id="table1",
        title="Disk and channel parameters (Table 1)",
        xlabel="parameter",
        ylabel="value",
        series=[
            Series("model", [r[0] for r in rows], [r[1] for r in rows]),
            Series("paper", [r[0] for r in rows], [r[2] for r in rows]),
        ],
        notes="capacity 'about 0.9 GB' in the paper; seek curve fitted exactly",
    )
    return [result]


def table2(scale: float = 1.0) -> list[ExperimentResult]:
    """Trace characteristics vs the paper's Table 2 (scaled counts)."""
    out = []
    paper = {
        1: dict(write_fraction=0.1003, single_fraction=0.9787, ndisks=130),
        2: dict(write_fraction=0.2826, single_fraction=0.9407, ndisks=10),
    }
    for which in (1, 2):
        trace = get_trace(which, scale) if which == 2 else None
        if which == 1:
            # Use the unsliced generator output for Table 2 fidelity.
            from repro.experiments.common import T1_BASE_SCALE
            from repro.trace import generate_trace, trace1_config

            trace = generate_trace(trace1_config(scale=T1_BASE_SCALE * scale))
        s = trace.stats()
        rows = [
            ("n_ios", float(s.n_ios)),
            ("blocks_transferred", float(s.blocks_transferred)),
            ("write_fraction", s.write_fraction),
            ("single_block_fraction", s.single_block_fraction),
            ("disk_access_cv", s.disk_access_cv),
            ("top_decile_share", s.top_decile_share),
        ]
        expected = paper[which]
        out.append(
            ExperimentResult(
                exp_id="table2",
                title=f"Trace {which} characteristics (Table 2)",
                xlabel="characteristic",
                ylabel="value",
                series=[
                    Series("measured", [r[0] for r in rows], [r[1] for r in rows]),
                    Series(
                        "paper",
                        [r[0] for r in rows],
                        [
                            float("nan"),
                            float("nan"),
                            expected["write_fraction"],
                            expected["single_fraction"],
                            float("nan"),
                            float("nan"),
                        ],
                    ),
                ],
                notes=f"counts are scaled by {scale:g} x the experiment default",
            )
        )
    return out


#: Table 3's organization matrix: every cell builds and runs.
TABLE3 = Grid(
    "table3", "Organization matrix smoke", traces=(2,), trace_scale=0.2,
    panels=(Panel("Disk array organizations (Table 3): all build and run", (
        Curve("response_ms", {}),
        Curve("physical_disks", {}, lambda cell, value: float(value.physical_disks)),
    ), ylabel="mean response time (ms) / physical disks"),),
    xs=tuple(
        (f"{'cached' if cached else 'uncached'}:{org}", {"org": org, "cached": cached})
        for cached in (False, True)
        for org in ("base", "mirror", "raid5", "parity_striping") + (("raid4",) if cached else ())
    ),
    xlabel="organization",
)


def table4(scale: float = 1.0) -> list[ExperimentResult]:
    """Default parameters (Table 4): SystemConfig's and the block size."""
    cfg = SystemConfig()
    rows = [
        ("N", float(cfg.n)),
        ("block_kb", BLOCK_BYTES / 1024.0),
        ("striping_unit_blocks", float(cfg.striping_unit)),
        ("cache_mb", cfg.cache_mb),
    ]
    return [
        ExperimentResult(
            exp_id="table4",
            title="Default parameters (Table 4)",
            xlabel="parameter",
            ylabel="value",
            series=[Series("default", [r[0] for r in rows], [r[1] for r in rows])],
            notes=f"sync={cfg.sync_policy}, parity placement={cfg.parity_placement.value}",
        )
    ]
