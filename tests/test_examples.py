"""Smoke tests: every example script runs end to end."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, *args, timeout=600):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


@pytest.mark.slow
def test_quickstart():
    out = run_example("quickstart.py")
    assert "uncached" in out
    assert "cached (16 MB)" in out
    assert "mean response" in out


@pytest.mark.slow
def test_compare_organizations():
    out = run_example("compare_organizations.py", "--scale", "0.1")
    assert "raid4" in out
    assert "parity_striping" in out


@pytest.mark.slow
def test_cache_tuning():
    out = run_example("cache_tuning.py", "--scale", "0.01")
    assert "Hit ratios" in out
    assert "Response time" in out


@pytest.mark.slow
def test_sync_policies():
    out = run_example("sync_policies.py")
    assert "DF/PR" in out
    assert "SI" in out


@pytest.mark.slow
def test_degraded_rebuild():
    out = run_example("degraded_rebuild.py")
    assert "during rebuild" in out
    assert "degraded writes" in out
    assert "rebuild duration" in out


@pytest.mark.slow
def test_hda_allocation():
    out = run_example("hda_allocation.py", "--scale", "0.05")
    assert "first_fit" in out
    assert "bandwidth" in out
    assert "capacity" in out
    assert "hot: 4/4 fast" in out  # bandwidth/capacity claim the fast disks
    assert "hot: 0/4 fast" in out  # first-fit strands them


@pytest.mark.slow
def test_trace_anatomy(tmp_path):
    out = run_example(
        "trace_anatomy.py", "--scale", "0.005", "--export-dir", str(tmp_path)
    )
    assert "phase breakdown" in out
    assert "rmw_rotate" in out
    assert "parity_striping" in out
    assert (tmp_path / "anatomy_raid5.jsonl").exists()
    assert (tmp_path / "anatomy_raid5.chrome.json").exists()
    assert (tmp_path / "anatomy_parity_striping.metrics.csv").exists()
