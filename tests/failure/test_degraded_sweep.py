"""One request against an array whose disk failed at t=0, with no spare.

The sweep covers every organization (Parity Striping also at parity
grains 1 and 8), four failed disks (the first, the second, a middle one
and the last), reads and writes, and request shapes from one block to
several stripes, aligned and not.  Each run validates with the stock
checkers, so the ``failed-disk`` checker sees every access.  On top of
that:

* the failed disk completes no access at all;
* a request that would have reached the failed disk on a healthy array
  counts as degraded, or as lost on Base, which has no redundancy.
"""

from functools import lru_cache

import numpy as np
import pytest

from repro.failure import FailureSchedule
from repro.sim import run_trace
from repro.trace import TRACE_DTYPE, Trace
from tests.validate.workload import config

N = 10

#: ``(blocks, offset)``: the request starts *offset* blocks past the
#: first data block of the failed disk; ``None`` starts it at lblock
#: 1000, wherever that lands.
REQUESTS = [(1, 0), (7, 0), (8, 0), (10, 0), (20, 3), (60, 0), (30, None)]

#: ``(organization, striping unit, parity grain)``.
ARRAYS = [
    ("raid5", 1, None),
    ("raid5", 8, None),
    ("raid4", 1, None),
    ("raid4", 8, None),
    ("parity_striping", 1, None),
    ("parity_striping", 1, 1),
    ("parity_striping", 1, 8),
    ("mirror", 1, None),
    ("base", 1, None),
]


def _config(org, su, grain):
    return config(org, n=N, striping_unit=su, parity_grain=grain)


def _cases():
    for org, su, grain in ARRAYS:
        last = _config(org, su, grain).make_layout().ndisks - 1
        array = f"{org}-su{su}" + ("" if grain is None else f"-g{grain}")
        for failed in sorted({0, 1, 9, last}):
            for is_write in (False, True):
                for nblocks, offset in REQUESTS:
                    kind = "w" if is_write else "r"
                    at = "@1000" if offset is None else f"+{offset}"
                    yield pytest.param(
                        org, su, grain, failed, is_write, nblocks, offset,
                        id=f"{array}-d{failed}-{kind}{nblocks}{at}",
                    )


def _start(layout, failed, nblocks, offset):
    if offset is None:
        return 1000
    lblocks = (layout.logical_of(failed, pb) for pb in range(layout.blocks_per_disk))
    first = next((lb for lb in lblocks if lb is not None), 0)
    return min(first + offset, layout.logical_blocks - nblocks)


def _trace(lstart, nblocks, is_write, bpd):
    records = np.zeros(1, dtype=TRACE_DTYPE)
    records["time"] = 1.0
    records["lblock"] = lstart
    records["nblocks"] = nblocks
    records["is_write"] = is_write
    return Trace(records, N, bpd, name="one-request")


@lru_cache(maxsize=None)
def _healthy_accesses(org, su, grain, lstart, nblocks, is_write):
    cfg = _config(org, su, grain)
    trace = _trace(lstart, nblocks, is_write, cfg.blocks_per_disk)
    return tuple(run_trace(cfg, trace, warmup_fraction=0.0).arrays[0].disk_accesses)


@pytest.mark.parametrize("org, su, grain, failed, is_write, nblocks, offset", _cases())
def test_one_request_avoids_the_failed_disk(org, su, grain, failed, is_write, nblocks, offset):
    cfg = _config(org, su, grain)
    lstart = _start(cfg.make_layout(), failed, nblocks, offset)
    res = run_trace(
        cfg,
        _trace(lstart, nblocks, is_write, cfg.blocks_per_disk),
        warmup_fraction=0.0,
        validate=True,
        failures=FailureSchedule.single_failure(disk=failed),
    )
    assert res.response.count == 1
    assert res.arrays[0].disk_accesses[failed] == 0
    if _healthy_accesses(org, su, grain, lstart, nblocks, is_write)[failed]:
        counted = "lost" if org == "base" else "degraded"
        kind = "writes" if is_write else "reads"
        assert getattr(res.failures, f"{counted}_{kind}") >= 1
