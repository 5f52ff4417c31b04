"""Command-line entry point for the experiment drivers.

Usage::

    python -m repro.experiments --list
    python -m repro.experiments fig5 [fig8 ...] [--scale 0.5] [--json out.json]
    python -m repro.experiments all --scale 0.25 --jobs 8

Every invocation makes one call to the campaign engine
(:func:`repro.experiments.parallel.iter_campaign`), which evaluates each
distinct cell once and hands over each experiment, in campaign order,
as soon as its last point lands; each is printed then.  ``--jobs N``
fans the campaign's independent simulation points out over N worker
processes; the merged output is byte-identical to a serial run
(``--jobs 1``, the default).  ``--jobs 0`` uses one worker per core.

``--manifest PATH`` records per-point telemetry and values as a JSONL
manifest, appending each point as it lands.  ``--resume`` (which needs
``--manifest``) first reads the values of the manifest already at PATH,
if this code wrote it, and computes only the points it lacks, so an
interrupted or repeated campaign picks up where it stopped.  An unusable
manifest fails before any point runs.  Inspect manifests with
``python -m repro.bench show PATH``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from pathlib import Path

from repro.experiments.ascii_plot import render_chart
from repro.experiments.parallel import (
    ProgressPrinter,
    check_scale,
    default_jobs,
    iter_campaign,
)
from repro.experiments.registry import EXPERIMENTS, get_experiment
from repro.experiments.telemetry import PROVENANCES, CampaignRecorder

__all__ = ["main"]


def _checked(convert, ok, expected: str):
    """An argparse ``type``: *convert* the text and keep it if *ok*, else
    a usage error saying what was *expected*.  Either may reject the
    text by raising ``ValueError``."""

    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
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
        type=_checked(float, check_scale, "a finite number above 0"),
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
        type=_checked(Path, lambda path: not path.is_dir(), "a file path, not a directory"),
        help="write a per-point JSONL campaign manifest to this file "
        "(see README 'Campaign telemetry')",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="serve the points the --manifest file already holds instead "
        "of computing them again, and append the rest to it",
    )
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument("--json", metavar="PATH", help="also dump results as JSON")
    parser.add_argument(
        "--plot", action="store_true", help="render each figure as an ASCII chart"
    )
    args = parser.parse_args(argv)
    if args.resume and not args.manifest:
        parser.error("--resume needs --manifest: the manifest is what a campaign resumes from")

    if args.list or not args.ids:
        for exp in EXPERIMENTS.values():
            print(f"{exp.exp_id:8s} {'$' * exp.cost:4s} {exp.title}")
        return 0

    ids = list(EXPERIMENTS) if args.ids == ["all"] else args.ids
    # Resolve aliases (e.g. fig05 -> fig5) and fail early on unknown ids.
    experiments = [get_experiment(i) for i in ids]
    ids = [exp.exp_id for exp in experiments]
    recorder = None
    if args.manifest:
        try:
            recorder = CampaignRecorder(args.manifest, resume=args.resume)
        except OSError as exc:
            parser.error(f"argument --manifest: cannot use {args.manifest}: {exc}")
        except ValueError as exc:
            parser.error(f"argument --manifest: {exc}")
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
    collected = []
    t0 = time.time()
    for exp_id, results in iter_campaign(
        ids,
        args.scale,
        jobs=jobs,
        progress=ProgressPrinter() if args.progress else None,
        backend=args.backend,
        recorder=recorder,
    ):
        for result in results:
            print(result.table_str())
            print()
            if args.plot:
                print(render_chart(result))
                print()
            collected.append(result.to_dict())
        print(f"[{exp_id} done at {time.time() - t0:.1f} s]")
        print()
    elapsed = time.time() - t0

    print(
        f"[campaign: {len(ids)} experiment(s) over {jobs} worker(s) in {elapsed:.1f} s]",
        file=sys.stderr,
    )
    if recorder is not None:
        recorder.finalize(
            experiments=ids,
            scale=args.scale,
            jobs=jobs,
            backend=args.backend,
            resume=args.resume,
            elapsed_s=round(elapsed, 4),
        )
        counts = Counter(record.provenance for record in recorder.records)
        print(
            f"[manifest: {recorder.manifest_path} — {len(recorder.records)} point(s): "
            + ", ".join(f"{counts[p]} {p}" for p in PROVENANCES)
            + "]",
            file=sys.stderr,
        )
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(collected, fh, indent=2)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
