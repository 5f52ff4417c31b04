"""Analytic-backend benchmark: DES vs M/G/1 fast solve on sweep campaigns.

Evaluates the same campaign point lists on both backends — traces
pre-materialized through the shared cache so each side measures pure
point evaluation, the work a figure sweep actually repeats — and
records wall-clock speedup plus the per-point relative error of the
analytic means against the DES reference.  The run fails (non-zero
exit) if any point falls outside the campaign-level tolerance in
:mod:`repro.analytic.validation`.

Usage::

    PYTHONPATH=src python benchmarks/bench_analytic.py \
        --scale 1.0 --out BENCH_6.json

Not collected by pytest (no ``test_`` prefix) — the JSON output of a
full-scale run is committed as ``BENCH_6.json``; CI re-runs it at a
tiny scale and uploads the report as an artifact.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
import time


DEFAULT_EXPERIMENTS = ["fig5", "fig8"]


def bench_experiment(exp_id: str, scale: float) -> dict:
    from repro.analytic.validation import CAMPAIGN_TOLERANCE
    from repro.experiments.parallel import run_points
    from repro.experiments.points import with_backend
    from repro.experiments.registry import get_experiment

    points = get_experiment(exp_id).points(scale)
    if not points:
        raise SystemExit(f"{exp_id} simulates nothing")

    # Materialize every trace first so neither timed pass pays
    # generation cost (a repeated sweep hits the warm cache too).
    for point in points:
        point.spec.materialize()

    t0 = time.perf_counter()
    des = run_points(points)
    des_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    analytic = run_points(with_backend(points, "analytic"))
    analytic_s = time.perf_counter() - t0

    errors = {}
    for point in points:
        if point.kind != "sim":
            continue
        ref = des[point.key].mean_response_ms
        got = analytic[point.key].mean_response_ms
        if math.isfinite(ref) and ref > 0:
            errors[point.label()] = (got - ref) / ref
    worst_label, worst = max(
        errors.items(), key=lambda kv: abs(kv[1]), default=(None, 0.0)
    )
    return {
        "experiment": exp_id,
        "scale": scale,
        "points": len(points),
        "des_s": round(des_s, 4),
        "analytic_s": round(analytic_s, 4),
        "speedup": round(des_s / analytic_s, 1) if analytic_s else None,
        "max_rel_error": round(abs(worst), 4),
        "max_rel_error_point": worst_label,
        "mean_abs_rel_error": round(
            sum(abs(e) for e in errors.values()) / len(errors), 4
        ) if errors else None,
        "tolerance": CAMPAIGN_TOLERANCE,
        "within_tolerance": abs(worst) <= CAMPAIGN_TOLERANCE,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=1.0,
                        help="campaign trace scale (default 1.0)")
    parser.add_argument("--experiments", nargs="*", default=DEFAULT_EXPERIMENTS,
                        help="sweep experiment ids to compare")
    parser.add_argument("--out", default="BENCH_6.json",
                        help="output JSON path (default BENCH_6.json)")
    args = parser.parse_args(argv)

    import os

    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    campaigns = [bench_experiment(e, args.scale) for e in args.experiments]
    report = {
        "benchmark": "analytic-vs-des",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cores": cores,
        "campaigns": campaigns,
        "best_speedup": max((c["speedup"] or 0) for c in campaigns),
    }
    # Persist in the normalized repro-bench/1 schema (raw report kept
    # inside) so the file feeds straight into `python -m repro.bench
    # compare` without the legacy adapter.
    from repro.bench.schema import normalize, to_json

    with open(args.out, "w") as fh:
        json.dump(to_json(normalize(report, source=args.out)), fh, indent=2)
        fh.write("\n")
    print(json.dumps(report, indent=2))
    print(f"wrote {args.out}", file=sys.stderr)
    ok = all(c["within_tolerance"] for c in campaigns)
    if not ok:
        print("ERROR: analytic backend outside campaign tolerance", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
