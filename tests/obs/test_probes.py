"""The probe bus: taps declared once, dispatch, and order-free detach."""

import ast
from pathlib import Path

import pytest

import repro
from repro.des import Environment
from repro.obs import TAPS, MetricsCollector, ProbeBus, Tracer
from repro.obs.probes import probe_slots
from repro.sim.system import build_system
from repro.validate import ValidationMonitor
from repro.validate.monitor import default_checkers
from tests.validate.workload import config


def _emitted_taps():
    """``(file, tap, argument count)`` of every ``probe.on_<tap>(...)``
    call in the package (``self.probe.on_...`` included)."""
    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            target = node.func.value
            name = target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)
            if name == "probe" and node.func.attr.startswith("on_"):
                assert not node.keywords, f"{path.name}: keyword tap arguments"
                yield path.name, node.func.attr[3:], len(node.args)


class TestTapDeclarations:
    def test_emitted_taps_are_exactly_the_declared_ones(self):
        calls = list(_emitted_taps())
        assert {tap for _, tap, _ in calls} == set(TAPS)
        for path, tap, nargs in calls:
            assert nargs == len(TAPS[tap]), f"{path}: on_{tap} passes {nargs} args"

    def test_every_declared_tap_has_a_stock_subscriber(self):
        """A tap nothing shipped listens to is dead weight at its call
        site: each one is defined by the tracer, the metrics collector
        or a stock invariant checker."""
        stock = [Tracer, MetricsCollector, *map(type, default_checkers())]
        unheard = [tap for tap in TAPS if not any(hasattr(s, f"on_{tap}") for s in stock)]
        assert unheard == []

    def test_misspelt_tap_is_rejected(self):
        class Typo:
            def on_disk_sumbit(self, disk, request):
                pass

        with pytest.raises(TypeError, match="Typo.on_disk_sumbit is not a probe tap"):
            ProbeBus([]).subscribe(Typo())

    def test_tap_method_with_the_wrong_arguments_is_rejected(self):
        class OldShape:
            def on_disk_submit(self, ctx, disk, request):
                pass

        bus = ProbeBus([])
        with pytest.raises(TypeError, match="OldShape.on_disk_submit cannot take"):
            bus.subscribe(OldShape())
        assert bus.subscribers == []


class TestDispatch:
    def test_each_tap_reaches_exactly_its_subscribers(self):
        calls = []

        class A:
            def on_disk_submit(self, disk, request):
                calls.append(("a", request))

            def on_response(self, rt_ms, is_write):
                calls.append(("a", rt_ms))

        class B:
            def on_disk_submit(self, disk, request):
                calls.append(("b", request))

        a, b = A(), B()
        bus = ProbeBus([])
        bus.subscribe(a)
        assert bus.on_disk_submit == a.on_disk_submit  # one subscriber: bound directly
        bus.subscribe(b)
        bus.on_disk_submit(None, 1)
        bus.on_response(2.0, False)
        bus.on_handle(None, 0, 1, False)  # nobody subscribes: a no-op
        assert calls == [("a", 1), ("b", 1), ("a", 2.0)]
        bus.unsubscribe(a)
        assert bus.on_disk_submit == b.on_disk_submit
        bus.on_response(3.0, True)
        assert calls[-1] == ("a", 2.0)


class TestDetach:
    @pytest.mark.parametrize("monitor_first", [True, False])
    def test_detach_order_does_not_matter(self, monitor_first):
        """Whichever observer leaves first, the last one out clears every
        slot, and the system then runs unobserved."""
        env = Environment()
        cfg = config("raid5", cached=True, cache_mb=4)
        system = build_system(env, cfg, cfg.arrays_for(cfg.n))
        ctrl = system.controllers[0]
        monitor = ValidationMonitor().attach(env, system.controllers)
        tracer = Tracer().attach(env, system.controllers)
        env.run(until=env.process(ctrl.handle(0, 1, True)))

        finalizers = [monitor.finalize, tracer.finalize]
        for finalize in finalizers if monitor_first else finalizers[::-1]:
            finalize()
        assert all(obj.probe is None for obj in probe_slots(system.controllers))
        env.run(until=env.process(ctrl.handle(100, 1, True)))

    def test_spare_attached_while_traced_is_detached(self):
        from repro.channel import Channel
        from repro.disk import Disk
        from repro.array.uncached import UncachedParityController

        cfg = config("raid5", n=4, blocks_per_disk=240)
        env = Environment()
        layout = cfg.make_layout()
        disks = [
            Disk(env, cfg.disk.geometry(), cfg.disk.seek_model(), name=f"d{i}")
            for i in range(layout.ndisks)
        ]
        ctrl = UncachedParityController(env, layout, disks, Channel(env), cfg)
        ctrl.fail_disk(1)
        tracer = Tracer().attach(env, [ctrl])
        ctrl.attach_spare()
        tracer.detach()
        assert ctrl.disks[1].name.endswith(".spare")
        assert all(disk.probe is None for disk in ctrl.disks)
