"""The invariant checkers: clean runs pass, injected faults fire.

Two halves, and both matter:

* every organization runs clean under ``validate=True`` — the checkers
  accept correct physics;
* each checker fires under a fault injected against exactly the
  invariant it guards — the checkers are *live*, not vacuous.
"""

import pytest

from repro.failure import FailureSchedule
from repro.sim import run_trace
from repro.validate import InvariantViolation, faults
from tests.validate.workload import config, make_trace

TRACE = make_trace()

CONFIGS = {
    "base": dict(org="base"),
    "mirror": dict(org="mirror"),
    "raid5": dict(org="raid5"),
    "raid4": dict(org="raid4"),
    "parity_striping": dict(org="parity_striping"),
    "base-cached": dict(org="base", cached=True, cache_mb=4),
    "mirror-cached": dict(org="mirror", cached=True, cache_mb=4),
    "raid5-cached": dict(org="raid5", cached=True, cache_mb=4),
    "raid5-decoupled": dict(
        org="raid5", cached=True, cache_mb=4, destage_policy="decoupled"
    ),
    "raid4-paritycache": dict(
        org="raid4", cached=True, cache_mb=4, parity_caching=True
    ),
    "parity_striping-cached": dict(
        org="parity_striping", cached=True, cache_mb=4
    ),
}


class TestCleanRuns:
    @pytest.mark.parametrize("label", sorted(CONFIGS))
    def test_validated_run_is_clean(self, label):
        cfg = config(**CONFIGS[label])
        res = run_trace(cfg, TRACE, warmup_fraction=0.1, validate=True)
        assert res.response.count > 0
        assert res.mean_response_ms > 0

    def test_validation_does_not_change_the_result(self):
        """A monitored run is observationally identical to a bare one."""
        from repro.validate import result_fingerprint

        cfg = config(org="raid5", cached=True, cache_mb=4)
        bare = run_trace(cfg, TRACE, warmup_fraction=0.1)
        checked = run_trace(cfg, TRACE, warmup_fraction=0.1, validate=True)
        assert result_fingerprint(bare) == result_fingerprint(checked)


class TestMutationSmoke:
    """Each fault breaks one invariant; its checker must catch it."""

    def _expect(self, fault, cfg, match, **kw):
        with fault:
            with pytest.raises(InvariantViolation, match=match):
                run_trace(cfg, TRACE, warmup_fraction=0.1, validate=True, **kw)

    def test_dropped_parity_uncached(self):
        self._expect(
            faults.drop_parity_updates(),
            config(org="raid5"),
            "parity-consistency",
        )

    def test_dropped_parity_cached(self):
        self._expect(
            faults.drop_parity_updates(),
            config(org="raid5", cached=True, cache_mb=4),
            "parity-consistency",
        )

    def test_dropped_parity_raid4_parity_caching(self):
        self._expect(
            faults.drop_parity_updates(),
            config(org="raid4", cached=True, cache_mb=4, parity_caching=True),
            "parity-consistency",
        )

    def test_dropped_parity_parity_striping(self):
        self._expect(
            faults.drop_parity_updates(),
            config(org="parity_striping"),
            "parity-consistency",
        )

    def test_lost_completions(self):
        self._expect(
            faults.lose_completions(every=2),
            config(org="base"),
            "request-conservation",
        )

    def test_unreported_cache_mutation(self):
        self._expect(
            faults.suppress_cache_probe(every=3),
            config(org="raid5", cached=True, cache_mb=4),
            "cache-accounting",
        )

    def test_inflated_cache_hits(self):
        self._expect(
            faults.inflate_cache_hits(),
            config(org="base", cached=True, cache_mb=4),
            "cache-accounting",
        )

    def test_inflated_channel_busy_time(self):
        self._expect(
            faults.inflate_channel_busy(),
            config(org="base"),
            "resource-sanity",
        )

    def test_leaked_track_buffer(self):
        self._expect(
            faults.leak_track_buffer(),
            config(org="mirror"),
            "resource-sanity",
        )

    def test_write_through_failed_disk(self):
        self._expect(
            faults.write_through_failed_disk(),
            config(org="raid5"),
            "failed-disk",
            failures=FailureSchedule.single_failure(disk=1),
        )

    @pytest.mark.parametrize(
        "fault",
        [
            faults.drop_parity_updates,
            faults.lose_completions,
            faults.suppress_cache_probe,
            faults.inflate_cache_hits,
            faults.inflate_channel_busy,
            faults.leak_track_buffer,
            faults.write_through_failed_disk,
        ],
    )
    def test_faults_restore_on_exit(self, fault):
        """After the injector's scope, the simulator is intact again."""
        with fault():
            pass
        cfg = config(org="raid5", cached=True, cache_mb=4)
        run_trace(cfg, TRACE, warmup_fraction=0.1, validate=True)


class TestDegradedExemption:
    """A degraded array legitimately skips redundancy for the failed
    disk; the parity checker must not cry wolf there."""

    def _build(self, org="raid5", failed=1):
        from repro.array.uncached import UncachedParityController
        from repro.channel import Channel
        from repro.des import Environment
        from repro.disk import Disk

        cfg = config(org=org, n=4, blocks_per_disk=240, spindle_sync=True)
        env = Environment()
        layout = cfg.make_layout()
        geo = cfg.disk.geometry()
        sm = cfg.disk.seek_model()
        disks = [Disk(env, geo, sm, name=f"d{i}") for i in range(layout.ndisks)]
        ctrl = UncachedParityController(env, layout, disks, Channel(env), cfg)
        ctrl.fail_disk(failed)
        return env, ctrl

    def test_degraded_writes_pass_validation(self):
        from repro.validate import ValidationMonitor

        env, ctrl = self._build()
        monitor = ValidationMonitor().attach(env, [ctrl])
        done = []

        def proc(env, lb, k, w):
            yield from ctrl.handle(lb, k, w)
            done.append(lb)

        # Mix of reads and writes, including blocks on the failed disk.
        for i, (lb, k, w) in enumerate(
            [(0, 1, True), (240, 1, True), (480, 2, False), (240, 1, False)]
        ):
            env.process(proc(env, lb, k, w))
        env.run()
        assert len(done) == 4
        monitor.finalize()  # must not raise

    def test_exemption_is_watermark_aware(self):
        """A rebuild-in-progress array is exempt only *above* the
        watermark: blocks the rebuild already reconstructed onto the
        spare are held to the full parity contract again."""
        from repro.validate.parity import ParityConsistencyChecker

        env, ctrl = self._build(failed=1)
        ctrl.attach_spare()
        ctrl.rebuilt_upto = 100
        gone = ParityConsistencyChecker._gone
        assert not gone(ctrl, 1, 50)  # rebuilt: drive is live again
        assert gone(ctrl, 1, 100)  # above the watermark: still gone
        assert not gone(ctrl, 0, 100)  # other disks never gone

    def test_degraded_writes_pass_validation_mid_rebuild(self):
        from repro.validate import ValidationMonitor

        env, ctrl = self._build(failed=1)
        ctrl.attach_spare()
        ctrl.rebuilt_upto = 120  # half the 240-block disk is back
        monitor = ValidationMonitor().attach(env, [ctrl])
        done = []

        def proc(env, lb, k, w):
            yield from ctrl.handle(lb, k, w)
            done.append(lb)

        # Writes landing below and above the watermark on the spare.
        for lb, k, w in [(0, 1, True), (241, 1, True), (700, 2, True), (241, 1, False)]:
            env.process(proc(env, lb, k, w))
        env.run()
        assert len(done) == 4
        monitor.finalize()  # must not raise
