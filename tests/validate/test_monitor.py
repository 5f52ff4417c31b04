"""Monitor lifecycle, probe installation and the kernel event hook."""

import pytest

from repro.des import Environment, Event
from repro.obs import ProbeBus
from repro.sim import run_trace
from repro.sim.system import build_system
from repro.validate import (
    InvariantChecker,
    InvariantViolation,
    ValidationMonitor,
    default_checkers,
)
from tests.validate.workload import config, make_trace


class TestLifecycle:
    def _system(self, **kw):
        cfg = config(org="raid5", cached=True, cache_mb=4, **kw)
        env = Environment()
        system = build_system(env, cfg, cfg.arrays_for(cfg.n))
        return env, system

    def test_attach_installs_probes_everywhere(self):
        env, system = self._system()
        monitor = ValidationMonitor().attach(env, system.controllers)
        bus = system.controllers[0].probe
        assert isinstance(bus, ProbeBus) and bus.subscribers == monitor.checkers
        for ctrl in system.controllers:
            assert ctrl.probe is bus
            assert ctrl.channel.probe is bus
            assert ctrl.cache.probe is bus
            for disk in ctrl.disks:
                assert disk.probe is bus

    def test_finalize_detaches_all_probes(self):
        env, system = self._system()
        monitor = ValidationMonitor().attach(env, system.controllers)
        monitor.finalize()
        for ctrl in system.controllers:
            assert ctrl.probe is None
            assert ctrl.channel.probe is None
            assert ctrl.cache.probe is None
            for disk in ctrl.disks:
                assert disk.probe is None
        assert env._event_hooks is None

    def test_double_attach_rejected(self):
        env, system = self._system()
        monitor = ValidationMonitor().attach(env, system.controllers)
        with pytest.raises(RuntimeError, match="already attached"):
            monitor.attach(env, system.controllers)

    def test_default_checker_set(self):
        names = {c.name for c in default_checkers()}
        assert names == {
            "request-conservation",
            "parity-consistency",
            "cache-accounting",
            "resource-sanity",
            "failed-disk",
        }

    def test_custom_checkers_are_used(self):
        seen = []

        class Recorder(InvariantChecker):
            name = "recorder"

            def on_disk_submit(self, disk, request):
                seen.append(request.start_block)

        cfg = config(org="base")
        trace = make_trace(n=20)
        run_trace(
            cfg, trace, warmup_fraction=0.0, validate=True, checkers=[Recorder()]
        )
        assert len(seen) > 0


class TestKernelEventHook:
    def test_backwards_clock_is_caught(self):
        """Scheduling into the past breaks the (time, sequence) contract;
        the monitor's kernel hook must catch the non-monotone pop."""
        env = Environment()
        ValidationMonitor(checkers=[]).attach(env, [])
        env.timeout(10.0)
        env.run()  # clock is now at 10
        env.schedule(Event(env), delay=-5.0)  # an event in the past
        with pytest.raises(InvariantViolation, match="event-order"):
            env.run()

    def test_hooks_can_be_stacked_and_removed(self):
        env = Environment()
        order = []
        h1 = env.on_event(lambda t, e: order.append(("a", t)))
        h2 = env.on_event(lambda t, e: order.append(("b", t)))
        env.timeout(1.0)
        env.run()
        assert order == [("a", 1.0), ("b", 1.0)]
        env.off_event(h1)
        env.timeout(1.0)
        env.run()
        assert order[-1] == ("b", 2.0)
        env.off_event(h2)
        assert env._event_hooks is None
        with pytest.raises(ValueError):
            env.off_event(h2)

    def test_observers_never_mutate_the_run(self):
        """The same workload with and without an event hook takes the
        identical number of kernel steps."""
        def run_counting(with_hook):
            env = Environment()
            steps = []
            if with_hook:
                env.on_event(lambda t, e: steps.append(t))
            done = []

            def proc(env):
                for _ in range(5):
                    yield env.timeout(1.0)
                done.append(env.now)

            env.process(proc(env))
            env.run()
            return done[0]

        assert run_counting(False) == run_counting(True)
