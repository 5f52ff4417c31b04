"""Slotted hot-path classes and simulation fingerprint stability.

The PR that added ``__slots__`` to the kernel's per-event classes and
batch conversions to the trace feeds must not perturb a single
simulation value; these tests pin both the memory layout and the
behavior.
"""

import numpy as np
import pytest

from repro.des import Environment, Event, Timeout
from repro.des.monitor import Tally, TimeWeighted
from repro.des.process import Process
from repro.disk.request import AccessKind, DiskRequest
from repro.sim import run_trace

from tests.validate.workload import config, make_trace


def _noop(env):
    yield env.timeout(1.0)


@pytest.mark.parametrize(
    "instance",
    [
        lambda env: Event(env),
        lambda env: Timeout(env, 1.0),
        lambda env: Process(env, _noop(env)),
        lambda env: DiskRequest(AccessKind.READ, 0),
        lambda env: Tally(),
        lambda env: TimeWeighted(),
    ],
    ids=["Event", "Timeout", "Process", "DiskRequest", "Tally", "TimeWeighted"],
)
def test_hot_path_classes_have_no_instance_dict(instance):
    obj = instance(Environment())
    assert not hasattr(obj, "__dict__"), type(obj).__name__


def test_diskrequest_rejects_unknown_attributes():
    req = DiskRequest(AccessKind.WRITE, 10, 2)
    with pytest.raises(AttributeError):
        req.unknown_field = 1


def test_diskrequest_lifecycle_still_works():
    env = Environment()
    req = DiskRequest(AccessKind.RMW, 5, nblocks=3)
    req.attach(env)
    assert req.started is not None and req.done is not None
    assert req.end_block == 8
    old_seq = req.seq
    req.renumber()
    assert req.seq > old_seq


def test_tally_merge_and_samples_still_work():
    a, b = Tally(), Tally()
    for v in (1.0, 2.0, 3.0):
        a.observe(v)
    b.observe(10.0)
    merged = a.merge(b)
    assert merged.count == 4
    assert merged.mean == pytest.approx(4.0)
    assert sorted(merged.samples.tolist()) == [1.0, 2.0, 3.0, 10.0]


def test_tally_keep_samples_toggle():
    t = Tally(keep_samples=False)
    t.observe(1.0)
    with pytest.raises(ValueError):
        t.percentile(50)
    t._samples = []  # the runner re-points the store; must stay legal
    t.observe(2.0)
    assert t.samples.tolist() == [2.0]


@pytest.mark.parametrize("org", ["base", "mirror", "raid5", "parity_striping"])
def test_simulation_fingerprint_is_deterministic(org):
    """Two runs of the same seeded workload are bit-identical."""
    results = []
    for _ in range(2):
        trace = make_trace(seed=11, n=200)
        res = run_trace(config(org), trace, keep_samples=True)
        results.append(res)
    first, second = results
    assert first.response.samples.tolist() == second.response.samples.tolist()
    assert first.simulated_ms == second.simulated_ms
    for a, b in zip(first.arrays, second.arrays):
        assert np.array_equal(a.disk_accesses, b.disk_accesses)
        assert np.array_equal(a.disk_utilization, b.disk_utilization)
