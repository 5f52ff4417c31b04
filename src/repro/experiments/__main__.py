"""Command-line entry point for the experiment drivers.

Usage::

    python -m repro.experiments --list
    python -m repro.experiments fig5 [fig8 ...] [--scale 0.5] [--json out.json]
    python -m repro.experiments all --scale 0.25 --jobs 8

Every invocation runs through the campaign engine
(:func:`repro.experiments.parallel.run_campaign`).  ``--jobs N`` fans
the campaign's independent simulation points out over N worker
processes; the merged output is byte-identical to a serial run
(``--jobs 1``, the default, which runs and prints one experiment at a
time).  ``--jobs 0`` uses one worker per core.

``--manifest PATH`` records per-point telemetry (JSONL manifest plus a
``*.summary.json``); ``--resume`` serves unchanged points from the
content-keyed result store.  Inspect manifests with
``python -m repro.bench show PATH``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from repro.experiments.ascii_plot import render_chart
from repro.experiments.parallel import ProgressPrinter, default_jobs, run_campaign
from repro.experiments.registry import EXPERIMENTS, get_experiment
from repro.experiments.telemetry import CampaignRecorder

__all__ = ["main"]


def _checked(convert, ok, expected: str):
    """An argparse ``type``: *convert* the text and keep it if *ok*, else
    a usage error saying what was *expected*."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            pass
        else:
            if ok(value):
                return value
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return parse


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("ids", nargs="*", help="experiment ids (or 'all')")
    parser.add_argument(
        "--scale",
        type=_checked(float, lambda v: math.isfinite(v) and v > 0, "a finite number above 0"),
        default=1.0,
        help="multiply the default trace sizes (smaller = faster)",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=_checked(int, lambda v: v >= 0, "0 (one per core) or more"),
        default=1,
        help="worker processes for the campaign (1 = serial, 0 = all cores)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print per-point progress to stderr",
    )
    parser.add_argument(
        "--backend",
        choices=("des", "analytic"),
        default="des",
        help="simulation points: discrete-event (default) or the fast "
        "M/G/1 analytic solver (see README 'Fast analytic backend')",
    )
    parser.add_argument(
        "--manifest",
        metavar="PATH",
        help="write a per-point JSONL campaign manifest (plus a "
        "*.summary.json next to it; see README 'Campaign telemetry')",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="serve unchanged points from the content-keyed result store "
        "and persist fresh ones (REPRO_RESULT_STORE sets the directory)",
    )
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument("--json", metavar="PATH", help="also dump results as JSON")
    parser.add_argument(
        "--plot", action="store_true", help="render each figure as an ASCII chart"
    )
    args = parser.parse_args(argv)

    if args.list or not args.ids:
        for exp in EXPERIMENTS.values():
            print(f"{exp.exp_id:8s} {'$' * exp.cost:4s} {exp.title}")
        return 0

    ids = list(EXPERIMENTS) if args.ids == ["all"] else args.ids
    # Resolve aliases (e.g. fig05 -> fig5) and fail early on unknown ids.
    experiments = [get_experiment(i) for i in ids]
    ids = [exp.exp_id for exp in experiments]
    if args.backend != "des":
        for exp in experiments:
            reasons = {point.des_reason for point in exp.points(args.scale)} - {None}
            if reasons:
                print(
                    f"note: {exp.exp_id} sets {', '.join(sorted(reasons))}, which "
                    f"the {args.backend} backend does not model; running those "
                    f"points on the DES backend",
                    file=sys.stderr,
                )

    jobs = default_jobs() if args.jobs == 0 else args.jobs
    recorder = CampaignRecorder(args.manifest) if args.manifest else None
    hook = ProgressPrinter() if args.progress else None
    # Serially, one experiment per call, so each prints as it finishes;
    # a pool takes the whole campaign at once.
    batches = [ids] if jobs > 1 else [[exp_id] for exp_id in ids]
    collected = []
    campaign_t0 = time.time()
    for batch in batches:
        t0 = time.time()
        campaign = run_campaign(
            batch,
            args.scale,
            jobs=jobs,
            progress=hook,
            backend=args.backend,
            recorder=recorder,
            resume=args.resume,
        )
        elapsed = time.time() - t0
        for exp_id in batch:
            for result in campaign[exp_id]:
                print(result.table_str())
                print()
                if args.plot:
                    print(render_chart(result))
                    print()
                collected.append(result.to_dict())
        print(f"[{' '.join(batch)} done in {elapsed:.1f} s]")
        print()
    campaign_elapsed = time.time() - campaign_t0

    print(
        f"[campaign: {len(ids)} experiment(s) over {jobs} worker(s) "
        f"in {campaign_elapsed:.1f} s]",
        file=sys.stderr,
    )
    if recorder is not None:
        summary = recorder.finalize(
            experiments=ids,
            scale=args.scale,
            jobs=jobs,
            backend=args.backend,
            resume=args.resume,
            elapsed_s=round(campaign_elapsed, 4),
        )
        print(
            f"[manifest: {recorder.manifest_path} — {summary['points']} point(s), "
            f"{summary['computed']} computed, {summary['stored']} stored; "
            f"summary: {recorder.summary_path}]",
            file=sys.stderr,
        )
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(collected, fh, indent=2)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
