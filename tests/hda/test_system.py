"""VA-first routing and the heterogeneous system builder.

The load-bearing guarantee: a single-organization config expressed as
one (or several identical) VAs is *bit-identical* to the legacy path —
same disk names, same spindle-phase draws, same event interleaving,
same response samples.  Plus the span-based routing arithmetic and the
builder's capacity validation.
"""

import pytest

from repro.des import Environment
from repro.sim import (
    Organization,
    SystemConfig,
    VAConfig,
    build_system,
    run_trace,
)

from tests.hda.util import BPD, HOT_BPD, hda_config, poisson_trace


class TestRouting:
    def _system(self):
        cfg = hda_config()
        return build_system(Environment(), cfg, cfg.arrays_for(4))

    def test_controller_for_respects_spans(self):
        system = self._system()
        mirror_span = 2 * HOT_BPD
        for lblock, expected in [
            (0, 0),
            (mirror_span - 1, 0),
            (mirror_span, 1),
            (4 * BPD - 1, 1),
        ]:
            idx, _, local = system.controller_for(lblock)
            assert idx == expected
            if expected == 1:
                assert local == lblock - mirror_span

    def test_split_within_one_va(self):
        system = self._system()
        parts = system.split(10, 4)
        assert len(parts) == 1
        idx, _, local, take = parts[0]
        assert (idx, local, take) == (0, 10, 4)

    def test_split_across_va_boundary(self):
        system = self._system()
        mirror_span = 2 * HOT_BPD
        parts = system.split(mirror_span - 2, 5)
        assert [(p[0], p[2], p[3]) for p in parts] == [
            (0, mirror_span - 2, 2),
            (1, 0, 3),
        ]

    def test_legacy_divmod_unchanged(self):
        env = Environment()
        cfg = SystemConfig(organization=Organization.RAID5, n=3,
                           blocks_per_disk=BPD)
        system = build_system(env, cfg, cfg.arrays_for(6))
        idx, _, local = system.controller_for(3 * BPD + 7)
        assert (idx, local) == (1, 7)


class TestBuilder:
    def test_va_disk_names_match_legacy(self):
        cfg = hda_config()
        system = build_system(Environment(), cfg, cfg.arrays_for(4))
        names = [d.name for c in system.controllers for d in c.disks]
        assert names[:4] == ["a0.d0", "a0.d1", "a0.d2", "a0.d3"]
        assert names[4:] == ["a1.d0", "a1.d1", "a1.d2", "a1.d3"]

    def test_narrays_must_match_va_count(self):
        # Three logical disks of VA space is not what the two VAs hold.
        with pytest.raises(ValueError, match="2 array"):
            hda_config().arrays_for(3)

    def test_va_too_big_for_its_disks_raises(self):
        cfg = hda_config(vas=(
            VAConfig(Organization.MIRROR, 2, blocks_per_disk=300_000),
            VAConfig(Organization.RAID5, 3),
        ))
        # One logical "disk" of the VAs' combined span.
        with pytest.raises(ValueError, match=r"array 0 of hda\(mirror\+raid5\)"):
            cfg.arrays_for(1, 2 * 300_000 + 3 * BPD)


class TestDegenerateByteIdentity:
    """One VA (or k identical VAs) == the legacy homogeneous path."""

    def _run(self, cfg, trace):
        return run_trace(cfg, trace, warmup_fraction=0.1, keep_samples=True)

    def test_single_va_mirror_bit_identical(self):
        trace = poisson_trace(0.03, ndisks=2, bpd=HOT_BPD, n=2500)
        legacy = self._run(
            SystemConfig(organization=Organization.MIRROR, n=2,
                         blocks_per_disk=HOT_BPD),
            trace,
        )
        hda = self._run(
            SystemConfig(
                organization=Organization.BASE,
                blocks_per_disk=HOT_BPD,
                vas=(VAConfig(Organization.MIRROR, 2, blocks_per_disk=HOT_BPD),),
            ),
            trace,
        )
        assert hda.response._samples == legacy.response._samples
        assert hda.events == legacy.events
        assert hda.n == legacy.n

    def test_two_identical_vas_match_two_legacy_arrays(self):
        trace = poisson_trace(0.04, ndisks=6, bpd=HOT_BPD, n=2500)
        legacy = self._run(
            SystemConfig(organization=Organization.RAID5, n=3,
                         blocks_per_disk=HOT_BPD),
            trace,
        )
        hda = self._run(
            SystemConfig(
                organization=Organization.BASE,
                blocks_per_disk=HOT_BPD,
                vas=(
                    VAConfig(Organization.RAID5, 3, blocks_per_disk=HOT_BPD),
                    VAConfig(Organization.RAID5, 3, blocks_per_disk=HOT_BPD),
                ),
            ),
            trace,
        )
        assert hda.response._samples == legacy.response._samples
        assert hda.events == legacy.events

    def test_hda_populates_per_va_tallies(self):
        trace = poisson_trace(0.02, n=2000)
        res = self._run(hda_config(), trace)
        assert len(res.va_response) == 2
        assert res.va_response[0].count + res.va_response[1].count \
            == res.response.count
        assert res.organization == "hda(mirror+raid5)"
        assert len(res.arrays) == 2
        assert len(res.arrays[0].disk_accesses) == 4  # 2 mirrored pairs
        assert len(res.arrays[1].disk_accesses) == 4  # 3 data + parity

    def test_trace_must_cover_the_combined_space(self):
        trace = poisson_trace(0.02, ndisks=3, n=500)  # one disk short
        with pytest.raises(ValueError):
            self._run(hda_config(), trace)
