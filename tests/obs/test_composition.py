"""Validation, tracing and metrics together, over combined features.

Every observer on the bus at once must leave the simulated answer
unchanged, keep every invariant, and produce a well-formed trace.
"""

from repro.obs import well_formedness_problems
from repro.sim import run_trace
from repro.validate import result_fingerprint
from tests.failure.test_scenarios import REBUILD, trace4
from tests.hda.util import hda_config, poisson_trace
from tests.validate.workload import config

ALL_OBSERVERS = dict(validate=True, trace=True, metrics=True)


def test_rebuild_under_every_observer():
    cfg, workload = config("raid5", n=4), trace4()
    plain = run_trace(cfg, workload, failures=REBUILD)
    observed = run_trace(cfg, workload, failures=REBUILD, **ALL_OBSERVERS)
    assert result_fingerprint(observed) == result_fingerprint(plain)
    assert well_formedness_problems(observed.trace) == []

    spans = observed.trace.spans
    report = observed.failures
    degraded = [s for s in spans if s.kind == "mark" and s.name == "degraded"]
    assert len(degraded) == report.degraded_reads + report.degraded_writes > 0
    # The spare inherits the bus: each of its accesses is traced.
    spare = [s for s in spans if s.kind == "disk" and s.name.endswith(".spare")]
    assert len(spare) == observed.arrays[0].disk_accesses[1] > 0


def test_two_va_hda_under_every_observer():
    cfg, workload = hda_config(), poisson_trace(0.02, n=2000)
    plain = run_trace(cfg, workload)
    observed = run_trace(cfg, workload, **ALL_OBSERVERS)
    assert result_fingerprint(observed) == result_fingerprint(plain)
    assert well_formedness_problems(observed.trace) == []
    arrays = {
        a for s in observed.trace.spans if s.kind == "request"
        for a in s.attrs.get("arrays", ())
    }
    assert arrays == {"a0", "a1"}


def test_overhead_guard_reports_a_perturbing_composition():
    from repro.obs import overhead

    report = overhead.overhead_report(n_requests=120, repeats=1)
    assert report["composed_equal"]
    assert overhead.check(report, max_ratio=float("inf")) == []
    report.update(composed_equal=False, composed_fingerprint="0" * 64)
    (problem,) = overhead.check(report, max_ratio=float("inf"))
    assert "validation, tracing and metrics together" in problem
