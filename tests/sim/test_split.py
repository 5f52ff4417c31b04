"""Routing a global request onto the arrays: ``ArraySystem.split``.

Out-of-range requests are rejected with a ``ValueError`` naming the
request and the capacity instead of being routed by Python's negative
indexing, returned as an empty split, or failing with a bare
``IndexError``.  A Hypothesis property pins the parts of every valid
request on uniform and heterogeneous systems.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment
from repro.sim import Organization, SystemConfig, build_system

from tests.hda.util import hda_config

BPD = 2640


def uniform_system(narrays=2, n=4, organization=Organization.BASE):
    cfg = SystemConfig(organization=organization, n=n, blocks_per_disk=BPD)
    return build_system(Environment(), cfg, cfg.arrays_for(narrays * n))


def hetero_system():
    cfg = hda_config()
    return build_system(Environment(), cfg, cfg.arrays_for(4))


SYSTEMS = {"uniform": uniform_system, "heterogeneous": hetero_system}


def capacity(system):
    return sum(c.layout.logical_blocks for c in system.controllers)


#: Requests no system can serve: (start given the capacity, nblocks).
BAD_REQUESTS = {
    "negative": (lambda cap: -5, 1),
    "straddles zero": (lambda cap: -5, 10),
    "empty": (lambda cap: 10, 0),
    "negative length": (lambda cap: 10, -3),
    "straddles the end": (lambda cap: cap - 1, 2),
    "at the end": (lambda cap: cap, 1),
    "far past the end": (lambda cap: 10 * cap, 1),
}


@pytest.fixture(params=sorted(SYSTEMS))
def system(request):
    return SYSTEMS[request.param]()


class TestOutOfRange:
    def test_capacity(self):
        assert uniform_system().capacity == 2 * 4 * BPD
        assert hetero_system().capacity == 4 * 1980

    @pytest.mark.parametrize("case", sorted(BAD_REQUESTS))
    def test_split_rejects(self, system, case):
        start, nblocks = BAD_REQUESTS[case]
        cap = capacity(system)
        lblock = start(cap)
        with pytest.raises(ValueError, match=rf"\b{cap}\b") as caught:
            system.split(lblock, nblocks)
        assert f"{nblocks} block(s) at {lblock}" in str(caught.value)

    @pytest.mark.parametrize("offset", [-5, -1, 0, 7])
    def test_controller_for_rejects(self, system, offset):
        cap = capacity(system)
        lblock = offset if offset < 0 else cap + offset
        with pytest.raises(ValueError, match=rf"\b{cap}\b"):
            system.controller_for(lblock)

    def test_edges_still_route(self, system):
        cap = capacity(system)
        last = system.controllers[-1]
        assert system.split(cap - 1, 1) == [
            (len(system.controllers) - 1, last, last.layout.logical_blocks - 1, 1)
        ]
        assert system.controller_for(cap - 1)[1] is last
        assert system.split(0, 1)[0][:3] == (0, system.controllers[0], 0)
        whole = system.split(0, cap)
        assert [p[3] for p in whole] == [c.layout.logical_blocks for c in system.controllers]


@st.composite
def routed_requests(draw):
    kind = draw(st.sampled_from(["uniform", "heterogeneous"]))
    if kind == "uniform":
        system = uniform_system(
            narrays=draw(st.integers(1, 4)),
            n=draw(st.integers(1, 5)),
            organization=draw(st.sampled_from([Organization.BASE, Organization.RAID5])),
        )
    else:
        system = hetero_system()
    cap = capacity(system)
    bounds = []
    total = 0
    for c in system.controllers:
        total += c.layout.logical_blocks
        bounds.append(total)
    near = st.sampled_from([0] + bounds).flatmap(lambda b: st.integers(b - 3, b + 3))
    lblock = min(max(draw(st.integers(0, cap - 1) | near), 0), cap - 1)
    room = cap - lblock
    nblocks = draw(st.integers(1, min(room, 16)) | st.integers(1, room))
    return system, lblock, nblocks


@given(routed_requests())
@settings(max_examples=200, deadline=None)
def test_parts_tile_the_request_inside_their_arrays(case):
    system, lblock, nblocks = case
    parts = system.split(lblock, nblocks)
    starts = [0]
    for c in system.controllers:
        starts.append(starts[-1] + c.layout.logical_blocks)
    pos = lblock
    for idx, controller, local, span in parts:
        assert controller is system.controllers[idx]
        assert span >= 1
        assert 0 <= local and local + span <= controller.layout.logical_blocks
        assert starts[idx] + local == pos
        assert system.controller_for(pos) == (idx, controller, local)
        pos += span
    assert pos == lblock + nblocks
    assert [p[0] for p in parts] == list(range(parts[0][0], parts[-1][0] + 1))
