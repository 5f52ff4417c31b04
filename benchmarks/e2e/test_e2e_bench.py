"""Self-test of the end-to-end benchmark (quick workloads, ~30 s).

Not part of the tier-1 suite; run it explicitly::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_bench.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads as wl  # noqa: E402
from hostclock import HostClock, reference_loop  # noqa: E402
from ledger import Ledger  # noqa: E402
from worker import measure  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks/e2e/run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600,
    )


@pytest.fixture(scope="module")
def quick_all(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "record.json"
    proc = _run("--quick", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), out


def test_every_metric_is_emitted_with_its_unit(quick_all):
    result, _ = quick_all
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for workload in SPEC["workloads"]:
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            emitted = result["metrics"][f"{workload['name']}.{metric['name']}"]
            assert emitted["unit"] == metric["unit"]
            assert isinstance(emitted["value"], float)


def test_record_reads_in_the_trajectory_analyzer(quick_all):
    _, record = quick_all
    proc = subprocess.run(
        [sys.executable, "-m", "repro.bench", "compare", str(record)],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "t2-raid5.error_rate" in proc.stdout


def test_single_workload_run_prints_plain_metric_names():
    proc = _run("--workload", "stream-base", "--quick", "--seed", "3",
                "--seconds", "0.5", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert result["correct"] and result["attempted"] >= 2


def test_corrupted_expected_digest_fails_every_run():
    njobs = len(wl.setup("t2-raid5", None, quick=True))
    out = measure("t2-raid5", quick=True, repeats=2, trace=True,
                  expected=["0" * 16] * njobs)
    assert out["attempted"] == 3
    assert out["failed"] / out["attempted"] == 1.0


def test_ledger_self_times_sum_to_the_root_span():
    out = measure("t1-raid4pc", quick=True, trace=True)
    assert out["failed"] == 0, out["errors"]
    ledger = out["ledger"]
    assert sum(ledger["self_s"].values()) == pytest.approx(ledger["root_s"], rel=0.05)
    assert all(v >= 0 for v in ledger["self_s"].values())
    assert out["per_layer"]["ledger.overhead_x"] > 1.0


@pytest.mark.parametrize("name", ["t1-raid4pc", "analytic-sweep"])
def test_traced_digest_equals_untraced(name):
    from repro.des import Environment

    jobs = wl.setup(name, 7, quick=True)
    plain = [wl.digest(job, wl.run_job(job)) for job in jobs]
    process, run = Environment.process, Environment.run
    ledger = Ledger()
    with ledger.installed():
        traced = ledger.root(lambda: [wl.digest(job, wl.run_job(job)) for job in jobs])
    assert traced == plain
    assert (Environment.process, Environment.run) == (process, run)
    assert ledger.spans_opened > 0


def test_host_clock_takes_out_its_own_time_and_restores_the_signal():
    before = signal.getsignal(signal.SIGALRM)
    with HostClock() as clock:
        with clock.span() as span:
            deadline = time.perf_counter() + 0.5
            while time.perf_counter() < deadline:
                reference_loop(1000)
    assert signal.getsignal(signal.SIGALRM) == before
    assert span.handler_s > 0
    assert span.wall_s < 0.5 <= span.end - span.start
    assert clock.speed(span) > 0
    assert clock.seconds(span) == pytest.approx(span.wall_s * clock.speed(span))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks/e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "t2-raid5", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
