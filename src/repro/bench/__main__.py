"""Perf-trajectory CLI.

Usage::

    python -m repro.bench compare BENCH_5.json BENCH_ci.json \\
        [--threshold 0.2] [--advisory] [--json out.json]
    python -m repro.bench show campaign_manifest.jsonl [--slowest N]
    python -m repro.bench normalize BENCH_5.json [--out PATH]
    python -m repro.bench profile fig8 --backend des \\
        [--scale 0.05] [--top 25] [--dump out.pstats]

``compare`` treats the files as a trajectory (oldest first, the last
file is the candidate), prints the per-metric table and exits

* ``0`` — no regression (or ``--advisory``, which reports but never
  fails on regressions),
* ``1`` — at least one metric regressed by the threshold,
* ``2`` — a file failed schema validation (always fatal, even under
  ``--advisory``).

``show`` drills into a campaign manifest written by
``python -m repro.experiments ... --manifest``: per experiment, its
points by provenance (computed, stored, shared), wall time and events,
then the slowest points.

``profile`` runs one experiment under :mod:`cProfile` and prints the
hottest functions by cumulative and internal time — the first stop when
a bench trajectory shows a throughput drop and you need to know *where*
the cycles went.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.bench.schema import (
    BenchRecord,
    BenchSchemaError,
    load_bench_file,
    to_json,
)
from repro.bench.trajectory import analyze, render_table

__all__ = ["main"]

EXIT_OK = 0
EXIT_REGRESSION = 1
EXIT_SCHEMA = 2


def _load_all(paths: List[str]) -> List[BenchRecord]:
    records = []
    for path in paths:
        records.append(load_bench_file(path))
    return records


def cmd_compare(args: argparse.Namespace) -> int:
    try:
        records = _load_all(args.files)
    except BenchSchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA

    report = analyze(records, threshold=args.threshold)
    print(f"trajectory over {len(records)} bench file(s), "
          f"candidate: {records[-1].source}")
    print()
    print(render_table(report))
    print()

    if args.json:
        doc = {
            "threshold": report.threshold,
            "files": [r.source for r in records],
            "metrics": [
                {
                    "name": t.name,
                    "unit": t.unit,
                    "direction": t.direction,
                    "baseline": None if t.baseline != t.baseline else t.baseline,
                    "latest": None if t.latest != t.latest else t.latest,
                    "change": None if t.change != t.change else t.change,
                    "status": t.status,
                    "values": t.values,
                }
                for t in report.trajectories
            ],
            "regressions": [t.name for t in report.regressions],
        }
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")

    if report.has_regressions:
        names = ", ".join(t.name for t in report.regressions)
        verdict = "ADVISORY" if args.advisory else "FAIL"
        print(
            f"{verdict}: {len(report.regressions)} metric(s) regressed by "
            f">= {report.threshold:.0%} vs baseline: {names}",
            file=sys.stderr,
        )
        return EXIT_OK if args.advisory else EXIT_REGRESSION
    print(f"ok: no metric regressed by >= {report.threshold:.0%} vs baseline")
    return EXIT_OK


def cmd_show(args: argparse.Namespace) -> int:
    from repro.experiments.telemetry import PROVENANCES, read_manifest

    try:
        header, points = read_manifest(args.manifest)
    except (OSError, ValueError) as exc:
        print(f"manifest error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA

    print(f"campaign manifest: {args.manifest}")
    for key in ("experiments", "scale", "jobs", "backend", "elapsed_s"):
        if key in header:
            print(f"  {key:12s} {header[key]}")
    print()

    by_exp: dict = {}
    for p in points:
        by_exp.setdefault(p["exp_id"], []).append(p)
    rows = []
    for exp_id in sorted(by_exp):
        recs = by_exp[exp_id]
        wall = sum(r["wall_s"] for r in recs)
        events = sum(r.get("events", 0) for r in recs)
        rows.append(
            [
                exp_id,
                str(len(recs)),
                *(str(sum(r["provenance"] == p for r in recs)) for p in PROVENANCES),
                f"{wall:.2f}",
                f"{events:,}",
                f"{events / wall:,.0f}" if wall > 0 and events else "-",
            ]
        )
    header_row = ["experiment", "points", *PROVENANCES, "wall_s", "events", "events/s"]
    widths = [
        max(len(header_row[c]), *(len(r[c]) for r in rows)) if rows else len(header_row[c])
        for c in range(len(header_row))
    ]
    print("  ".join(h.ljust(w) for h, w in zip(header_row, widths)))
    print("  ".join("-" * w for w in widths))
    for r in rows:
        print("  ".join(v.ljust(w) for v, w in zip(r, widths)))

    slowest = sorted(points, key=lambda p: -p["wall_s"])[: args.slowest]
    if slowest:
        print()
        print(f"slowest {len(slowest)} point(s):")
        for p in slowest:
            key = "/".join(str(k) for k in p["key"])
            print(
                f"  {p['wall_s']:8.3f}s  {p['exp_id']} {p.get('org', '')} {key} "
                f"[{p['backend']}, {p['provenance']}]"
            )
    return EXIT_OK


def cmd_normalize(args: argparse.Namespace) -> int:
    try:
        record = load_bench_file(args.file)
    except BenchSchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    out = args.out or args.file
    with open(out, "w") as fh:
        json.dump(to_json(record), fh, indent=2)
        fh.write("\n")
    print(f"wrote {out} ({len(record.metrics)} metric(s))")
    return EXIT_OK


def cmd_profile(args: argparse.Namespace) -> int:
    import cProfile
    import pstats
    import time

    from repro.experiments.parallel import run_campaign
    from repro.experiments.registry import get_experiment

    try:
        exp = get_experiment(args.experiment)
    except KeyError:
        print(f"unknown experiment id: {args.experiment!r}", file=sys.stderr)
        return EXIT_SCHEMA

    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    profiler.enable()
    try:
        run_campaign([exp.exp_id], scale=args.scale, jobs=1, backend=args.backend)
    finally:
        profiler.disable()
    elapsed = time.perf_counter() - t0

    print(
        f"profiled {exp.exp_id} (backend={args.backend}, scale={args.scale:g}): "
        f"{elapsed:.2f}s wall"
    )
    print()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs()
    for sort_key, title in (
        ("cumulative", "by cumulative time (callers and everything under them)"),
        ("tottime", "by internal time (the hot functions themselves)"),
    ):
        print(f"-- top {args.top} {title}")
        stats.sort_stats(sort_key).print_stats(args.top)
    if args.dump:
        stats.dump_stats(args.dump)
        print(f"wrote {args.dump} (load with pstats or snakeviz)")
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Benchmark trajectory analysis over BENCH_*.json files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compare = sub.add_parser(
        "compare", help="baseline + regression check over bench files"
    )
    p_compare.add_argument("files", nargs="+", help="bench JSON files, oldest first")
    p_compare.add_argument(
        "--threshold",
        type=float,
        default=0.2,
        help="regression threshold as a fraction of baseline (default 0.2)",
    )
    p_compare.add_argument(
        "--advisory",
        action="store_true",
        help="report regressions but exit 0 (schema errors still exit 2)",
    )
    p_compare.add_argument("--json", metavar="PATH", help="also dump the report as JSON")
    p_compare.set_defaults(func=cmd_compare)

    p_show = sub.add_parser("show", help="drill into a campaign manifest")
    p_show.add_argument("manifest", help="JSONL manifest from --manifest")
    p_show.add_argument(
        "--slowest", type=int, default=5, help="how many slowest points to list"
    )
    p_show.set_defaults(func=cmd_show)

    p_norm = sub.add_parser(
        "normalize", help="rewrite a bench file in the repro-bench/1 schema"
    )
    p_norm.add_argument("file", help="bench JSON file (any readable shape)")
    p_norm.add_argument("--out", metavar="PATH", help="write here instead of in place")
    p_norm.set_defaults(func=cmd_normalize)

    p_prof = sub.add_parser(
        "profile", help="cProfile one experiment and print the hot functions"
    )
    p_prof.add_argument("experiment", help="experiment id (e.g. fig8)")
    p_prof.add_argument(
        "--backend",
        choices=("des", "analytic"),
        default="des",
        help="simulation backend to profile (default des)",
    )
    p_prof.add_argument(
        "--scale",
        type=float,
        default=0.05,
        help="trace scale for the profiled run (default 0.05)",
    )
    p_prof.add_argument(
        "--top", type=int, default=25, help="rows per table (default 25)"
    )
    p_prof.add_argument(
        "--dump", metavar="PATH", help="also write raw pstats data here"
    )
    p_prof.set_defaults(func=cmd_profile)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    try:
        code = main()
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly instead
        # of tracebacking.  Dup stderr over stdout so the interpreter's
        # shutdown flush cannot raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)
