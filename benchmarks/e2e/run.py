"""End-to-end simulator benchmark: four workloads, a layer ledger, checked outputs.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed S]
        [--repeats R] [--seconds T] [--quick] [--trace 0|1]
        [--trace-dir DIR] [--out PATH] [--update-expected]

Each workload runs in its own fresh child process (``worker.py``), one
at a time, with ``src`` on ``PYTHONPATH`` and the trace cache and
result store off, so every run does the same work.  Host time is
measured unless a metric says *simulated*.

``--trace 0`` skips the ledger and the final JSON line carries the
end-to-end metrics; ``--trace 1`` adds the traced ledger run and the
line carries the per-layer metrics.  Without ``--trace`` both are
measured and printed.  Metric names, units and directions come from
``BENCHMARK.json`` at the repository root.

Every metric is printed as ``workload metric value unit``; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only if
every output check passed; it is 2, with no result printed, when the
checkout holds no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"

#: A child that runs longer than this is killed and counted as failed,
#: so that a single-workload run ends within three minutes.
CHILD_TIMEOUT_S = 170


def _load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _parse(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", dest="workloads", nargs="+", choices=names,
        default=list(names), help="workloads to run (default: all)",
    )
    parser.add_argument(
        "--seed", type=int, help="generator seed (default: each preset's own seed)"
    )
    parser.add_argument(
        "--repeats", type=int, default=2,
        help="minimum timed runs per workload (default and least: 2)",
    )
    parser.add_argument(
        "--seconds", type=float, default=0.0,
        help="add timed runs while the next one ends within this many seconds",
    )
    parser.add_argument(
        "--quick", action="store_true", help="run each workload at 1/20 size"
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1),
        help="0: end-to-end metrics only; 1: per-layer metrics (default: both)",
    )
    parser.add_argument("--trace-dir", help="write ledger spans and summaries here")
    parser.add_argument("--out", help="write a repro-bench/1 record here")
    parser.add_argument(
        "--update-expected", action="store_true",
        help="record the output digests of this run in expected.json",
    )
    args = parser.parse_args(argv)
    if args.repeats < 2:
        parser.error("--repeats must be at least 2")
    if args.update_expected and args.seed is not None:
        parser.error("expected.json holds the presets' own seeds; drop --seed")
    return args


def _expected() -> dict:
    return json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}


def _run_child(name: str, args, expect) -> dict | None:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", name,
        "--repeats", str(args.repeats),
        "--seconds", str(args.seconds),
        "--trace", "0" if args.trace == 0 else "1",
    ]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.quick:
        cmd.append("--quick")
    if args.trace_dir:
        cmd += ["--trace-dir", str(Path(args.trace_dir).resolve())]
    if expect:
        cmd += ["--expect", ",".join(expect)]
    env = dict(
        os.environ,
        PYTHONPATH=str(SRC),
        REPRO_TRACE_CACHE="off",
        REPRO_RESULT_STORE="off",
        # One thread per process: numpy must not fan out on a small box.
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"{name}: killed after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"{name}: worker exited with {proc.returncode}", file=sys.stderr)
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"{name}: worker printed no result", file=sys.stderr)
        return None


def main(argv=None) -> int:
    spec = _load_spec()
    names = [w["name"] for w in spec["workloads"]]
    args = _parse(argv, names)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["error_rate"], better["error_rate"] = "frac", "lower"
    kinds = {0: ["end_to_end"], 1: ["per_layer"]}.get(args.trace, ["end_to_end", "per_layer"])
    wanted = [m["name"] for kind in kinds for m in spec[kind]]

    expected = _expected()
    size = "quick" if args.quick else "full"
    attempted = failed = 0
    measured: dict[str, dict] = {}  # workload -> metric -> value
    for name in args.workloads:
        expect = None
        if args.seed is None and not args.update_expected:
            expect = expected.get(name, {}).get(size)
        child = _run_child(name, args, expect)
        if child is None:
            attempted += 1
            failed += 1
            continue
        attempted += child["attempted"]
        failed += child["failed"]
        values = {**child["end_to_end"], **child.get("per_layer", {})}
        values["error_rate"] = child["failed"] / child["attempted"]
        measured[name] = values
        if args.update_expected and child["failed"] == 0:
            expected.setdefault(name, {})[size] = child["digests"]

    for name, values in measured.items():
        for metric in [m for m in wanted if m in values] + ["error_rate"]:
            print(f"{name:15s} {metric:30s} {values[metric]:>16.6g} {units[metric]}")

    if args.update_expected:
        EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
        print(f"wrote {EXPECTED}", file=sys.stderr)
    if args.out:
        _write_record(args, measured, units, better)

    single = len(args.workloads) == 1
    metrics = {
        (metric if single else f"{name}.{metric}"): {"value": values[metric], "unit": units[metric]}
        for name, values in measured.items()
        for metric in wanted
        if metric in values
    }
    correct = failed == 0 and len(measured) == len(args.workloads)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0 if correct else 1


def _write_record(args, measured, units, better) -> None:
    """The results as a repro-bench/1 record for ``python -m repro.bench``."""
    record = {
        "schema": "repro-bench/1",
        "bench_id": "e2e",
        "context": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cores": os.cpu_count(),
        },
        "metrics": {
            f"{name}.{metric}": {
                "value": value, "unit": units[metric], "direction": better[metric],
            }
            for name, values in sorted(measured.items())
            for metric, value in sorted(values.items())
        },
        "raw": {
            "seed": args.seed, "quick": args.quick,
            "repeats": args.repeats, "seconds": args.seconds,
        },
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
