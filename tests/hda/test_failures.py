"""Failure schedules compose with Virtual Arrays.

A ``DiskFailure`` addresses ``(array, disk)`` and in an HDA build each
VA is its own array with its own disks and channel — so a failure in
the mirror VA must leave the RAID5 VA *bit-identical* to a healthy
run, the parity checker must keep enforcing the healthy VA's parity
contract (exemptions are per-controller, i.e. VA-scoped), and
schedule validation must reject out-of-range VA/disk targets.
"""

import pytest

from repro.failure import FailureSchedule
from repro.failure.errors import FailureScheduleError
from repro.sim import run_trace

from tests.hda.util import hda_config, poisson_trace


def _run(failures=None, **kw):
    cfg = hda_config()
    trace = poisson_trace(0.02, n=2000)
    return run_trace(cfg, trace, warmup_fraction=0.1, keep_samples=True,
                     failures=failures, **kw)


class TestCrossVAIsolation:
    def test_mirror_failure_leaves_raid5_va_bit_identical(self):
        healthy = _run()
        failed = _run(failures=FailureSchedule.single_failure(at_ms=0.0, disk=0,
                                                              array=0))
        assert failed.failures is not None
        assert failed.failures.degraded_reads > 0  # VA 0 really degraded
        # The cold RAID5 VA never noticed: same samples, to the bit.
        assert failed.va_response[1]._samples == healthy.va_response[1]._samples

    def test_raid5_failure_leaves_mirror_va_bit_identical(self):
        healthy = _run()
        failed = _run(failures=FailureSchedule.single_failure(at_ms=0.0, disk=1,
                                                              array=1))
        assert failed.failures is not None
        assert failed.va_response[0]._samples == healthy.va_response[0]._samples

    def test_degraded_va_response_degrades(self):
        healthy = _run()
        for disk in range(4):
            failed = _run(failures=FailureSchedule.single_failure(at_ms=0.0, disk=disk,
                                                                  array=1))
            # RAID5 reads of the dead disk reconstruct from the survivors —
            # strictly more arm work, so the read mean cannot improve (the
            # mirror VA is bit-identical, so the change is the RAID5 VA's).
            # Writes may get faster: a write to the dead disk or to its
            # parity skips that disk's read-modify-write.
            assert failed.read_response.mean > healthy.read_response.mean


class TestParityCheckerScope:
    def test_parity_enforced_on_healthy_va_while_other_va_degraded(self):
        # validate=True attaches the invariant checkers; a VA-scoped
        # exemption bug would either fail the healthy RAID5 VA's audit
        # or silently exempt it — the run completing with the checker
        # active and the RAID5 VA healthy covers the former.
        res = _run(failures=FailureSchedule.single_failure(at_ms=0.0, disk=0,
                                                           array=0),
                   validate=True)
        assert res.failures is not None

    def test_degraded_raid5_va_does_not_trip_checker(self):
        res = _run(failures=FailureSchedule.single_failure(at_ms=0.0, disk=1,
                                                           array=1),
                   validate=True)
        assert res.failures is not None


class TestScheduleValidation:
    def test_out_of_range_va_rejected(self):
        with pytest.raises(FailureScheduleError, match="array"):
            _run(failures=FailureSchedule.single_failure(at_ms=0.0, disk=0,
                                                         array=5))

    def test_out_of_range_disk_within_va_rejected(self):
        # VA 1 (RAID5 n=3) has 4 physical disks: 0..3.
        with pytest.raises(FailureScheduleError, match="disk"):
            _run(failures=FailureSchedule.single_failure(at_ms=0.0, disk=7,
                                                         array=1))
