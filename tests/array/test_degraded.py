"""Tests for degraded-mode operation and rebuild."""

import numpy as np
import pytest

from repro.array.uncached import UncachedMirrorController, UncachedParityController
from repro.failure.degraded import RebuildProcess
from repro.channel import Channel
from repro.des import Environment
from repro.disk import Disk
from repro.disk.request import AccessKind
from repro.layout import (
    BaseLayout,
    MirrorLayout,
    ParityStripingLayout,
    Raid4Layout,
    Raid5Layout,
)
from repro.layout.common import PhysicalAddress
from repro.sim import Organization, SystemConfig
from repro.validate import ValidationMonitor

BPD = 240


class TestReconstructionSources:
    @pytest.mark.parametrize("su", [1, 2, 8])
    def test_raid5_sources_are_other_disks_same_block(self, su):
        layout = Raid5Layout(4, BPD, striping_unit=su)
        sources = layout.reconstruction_sources(2, 17)
        assert sources == [PhysicalAddress(d, 17) for d in (0, 1, 3, 4)]

    def test_raid4_sources(self):
        layout = Raid4Layout(4, BPD)
        sources = layout.reconstruction_sources(0, 5)
        assert sources == [PhysicalAddress(d, 5) for d in (1, 2, 3, 4)]

    def test_mirror_source_is_partner(self):
        layout = MirrorLayout(4, BPD)
        assert layout.reconstruction_sources(3, 9) == [PhysicalAddress(2, 9)]

    def test_parstripe_data_block_sources(self):
        layout = ParityStripingLayout(4, BPD)
        # Data block on disk 0, area 0, offset 7.
        pblock = layout.map_block(7).block
        sources = layout.reconstruction_sources(0, pblock)
        assert len(sources) == 4  # parity + 3 other members
        assert 0 not in {src.disk for src in sources}
        # The parity block comes first, and it is the only one.
        assert sources[0] == layout.parity_of(7)
        assert not any(layout.is_parity_block(s.disk, s.block) for s in sources[1:])

    def test_parstripe_parity_block_sources(self):
        layout = ParityStripingLayout(4, BPD)
        parity_pblock = layout.parity_area_index * layout.area_blocks + 3
        sources = layout.reconstruction_sources(2, parity_pblock)
        assert len(sources) == 4
        assert all(not layout.is_parity_block(s.disk, s.block) for s in sources)

    def test_xor_consistency_raid5(self):
        """The sources of a data block are exactly its row-mates: their
        logical contents plus parity XOR to the target (checked via the
        layout's row structure)."""
        layout = Raid5Layout(4, BPD, striping_unit=2)
        for lb in (0, 5, 13):
            addr = layout.map_block(lb)
            sources = layout.reconstruction_sources(addr.disk, addr.block)
            # One source must be the parity of lb.
            parity = layout.parity_of(lb)
            assert parity in sources

    def test_base_has_no_redundancy(self):
        assert BaseLayout(4, BPD).reconstruction_sources(0, 0) == []


def build_degraded(org, failed=1, spare=False, n=4, **kw):
    env = Environment()
    cfg = SystemConfig(
        organization=Organization.parse(org),
        n=n,
        blocks_per_disk=BPD,
        spindle_sync=True,
        **kw,
    )
    layout = cfg.make_layout()
    geo = cfg.disk.geometry()
    sm = cfg.disk.seek_model()
    disks = [Disk(env, geo, sm, name=f"d{i}") for i in range(layout.ndisks)]
    channel = Channel(env)
    cls = UncachedMirrorController if org == "mirror" else UncachedParityController
    ctrl = cls(env, layout, disks, channel, cfg)
    if failed is not None:
        ctrl.fail_disk(failed)
    if spare:
        ctrl.attach_spare()
    return env, ctrl


def run_one(env, ctrl, lb, k, is_write):
    out = {}

    def proc(env):
        t0 = env.now
        yield from ctrl.handle(lb, k, is_write)
        out["rt"] = env.now - t0

    p = env.process(proc(env))
    env.run(until=p)
    return out["rt"]


def spy_submits(disk):
    """Record ``(kind, start, nblocks)`` of every access *disk* is sent."""
    issued = []
    submit = disk.submit

    def spy(req):
        issued.append((req.kind, req.start_block, req.nblocks))
        return submit(req)

    disk.submit = spy
    return issued


class TestDegradedParity:
    def test_validation(self):
        with pytest.raises(ValueError):
            build_degraded("raid5", failed=9)

    def test_read_of_healthy_disk_unaffected(self):
        env, ctrl = build_degraded("raid5", failed=1)
        lb = next(
            b for b in range(20) if ctrl.layout.map_block(b).disk not in (1,)
        )
        rt = run_one(env, ctrl, lb, 1, False)
        assert rt < 10  # plain single read, idle array
        assert ctrl.degraded_reads == 0

    def test_read_of_failed_disk_reconstructs(self):
        env, ctrl = build_degraded("raid5", failed=1)
        lb = next(b for b in range(20) if ctrl.layout.map_block(b).disk == 1)
        rt = run_one(env, ctrl, lb, 1, False)
        assert ctrl.degraded_reads == 1
        # All four surviving disks were read.
        reads = [d.reads for i, d in enumerate(ctrl.disks) if i != 1]
        assert reads == [1, 1, 1, 1]
        assert ctrl.disks[1].reads == 0

    def test_degraded_read_waits_for_slowest_source(self):
        """Reconstruction is the max over all surviving sources: a far
        arm on any source disk delays the whole degraded read."""
        env, ctrl = build_degraded("raid5", failed=1)
        lb = next(b for b in range(20) if ctrl.layout.map_block(b).disk == 1)
        ctrl.disks[3].cylinder = 1200  # one source parked far away
        rt = run_one(env, ctrl, lb, 1, False)
        seek = ctrl.disks[3].seek_model.seek_time(1200)
        assert rt > seek

    def test_write_to_failed_disk_updates_parity_only(self):
        env, ctrl = build_degraded("raid5", failed=1)
        lb = next(b for b in range(20) if ctrl.layout.map_block(b).disk == 1)
        run_one(env, ctrl, lb, 1, True)
        assert ctrl.degraded_writes == 1
        assert ctrl.disks[1].completed == 0  # failed disk untouched
        parity = ctrl.layout.parity_of(lb)
        # Reconstruct-write: the new parity comes from the other data
        # blocks, so it is written, not read-modify-written.
        assert ctrl.disks[parity.disk].writes == 1
        assert ctrl.disks[parity.disk].rmws == 0

    def test_write_with_failed_parity_disk_is_plain(self):
        env, ctrl = build_degraded("raid5", failed=1)
        lb = next(b for b in range(60) if ctrl.layout.parity_of(b).disk == 1)
        daddr = ctrl.layout.map_block(lb)
        run_one(env, ctrl, lb, 1, True)
        assert ctrl.degraded_writes == 1
        # Data disk still written, failed parity skipped.
        assert ctrl.disks[daddr.disk].completed == 1
        assert ctrl.disks[daddr.disk].writes == 1
        assert ctrl.disks[1].completed == 0

    def test_read_around_an_unreadable_block_inside_the_run(self):
        """A latent error at pblock 12 inside a read of pblocks
        [10, 14): the readable blocks are read as the runs [10, 12) and
        [13, 14), and block 12 is reconstructed."""
        env, ctrl = build_degraded("parity_striping", failed=None)
        lb = ctrl.layout.logical_of(2, 10)
        assert ctrl.layout.map_block(lb + 3) == PhysicalAddress(2, 13)
        ctrl.inject_latent(2, 12)
        issued = spy_submits(ctrl.disks[2])
        run_one(env, ctrl, lb, 4, False)
        reads = [(start, n) for kind, start, n in issued if kind is AccessKind.READ]
        assert sorted(reads) == [(10, 2), (13, 1)]
        assert ctrl.degraded_reads == 1
        assert ctrl.latent_repaired_access == 1

    def test_parity_striping_degraded_read(self):
        env, ctrl = build_degraded("parity_striping", failed=2)
        lb = next(
            b
            for b in range(ctrl.layout.logical_blocks)
            if ctrl.layout.map_block(b).disk == 2
        )
        run_one(env, ctrl, lb, 1, False)
        assert ctrl.degraded_reads == 1


class TestDegradedMirror:
    def test_read_goes_to_survivor(self):
        env, ctrl = build_degraded("mirror", failed=0)
        run_one(env, ctrl, 0, 1, False)  # block on pair (0, 1)
        assert ctrl.disks[1].reads == 1
        assert ctrl.disks[0].reads == 0

    def test_write_only_to_survivor(self):
        env, ctrl = build_degraded("mirror", failed=0)
        run_one(env, ctrl, 0, 1, True)
        assert ctrl.disks[1].writes == 1
        assert ctrl.disks[0].writes == 0
        assert ctrl.degraded_writes == 1

    def test_write_across_rebuild_watermark(self):
        """Disk 0's spare is rebuilt up to pblock 100: a 4-block write at
        pblock 98 writes [98, 100) on the spare, all four blocks on the
        partner, and counts as degraded."""
        env, ctrl = build_degraded("mirror", failed=0, spare=True)
        ctrl.rebuilt_upto = 100
        monitor = ValidationMonitor().attach(env, [ctrl])
        spare = spy_submits(ctrl.disks[0])
        partner = spy_submits(ctrl.disks[1])
        run_one(env, ctrl, 98, 4, True)
        monitor.finalize()
        assert spare == [(AccessKind.WRITE, 98, 2)]
        assert partner == [(AccessKind.WRITE, 98, 4)]
        assert ctrl.degraded_writes == 1

    def test_other_pairs_unaffected(self):
        env, ctrl = build_degraded("mirror", failed=0)
        run_one(env, ctrl, BPD + 1, 1, True)  # pair (2, 3)
        assert ctrl.disks[2].writes == 1
        assert ctrl.disks[3].writes == 1


class TestRebuild:
    def test_requires_spare(self):
        env, ctrl = build_degraded("raid5", failed=1, spare=False)
        with pytest.raises(ValueError):
            RebuildProcess(ctrl)

    def test_rebuild_completes_and_advances_watermark(self):
        env, ctrl = build_degraded("raid5", failed=1, spare=True)
        rebuild = RebuildProcess(ctrl, chunk_blocks=12)
        env.run(until=rebuild.process)
        assert rebuild.done
        assert ctrl.rebuilt_upto == BPD
        assert rebuild.duration_ms > 0
        spare = ctrl.disks[1]
        assert spare.blocks_transferred == BPD

    def test_reads_after_rebuild_use_spare(self):
        env, ctrl = build_degraded("raid5", failed=1, spare=True)
        rebuild = RebuildProcess(ctrl, chunk_blocks=60)
        env.run(until=rebuild.process)
        lb = next(b for b in range(20) if ctrl.layout.map_block(b).disk == 1)
        before = ctrl.degraded_reads
        run_one(env, ctrl, lb, 1, False)
        assert ctrl.degraded_reads == before  # served by the spare
        assert ctrl.disks[1].reads >= 1

    def test_rebuild_with_foreground_traffic(self):
        """Rebuild makes progress while requests keep arriving, and all
        requests complete."""
        env, ctrl = build_degraded("raid5", failed=1, spare=True)
        rebuild = RebuildProcess(ctrl, chunk_blocks=12)
        rng = np.random.default_rng(5)
        finished = []

        def client(env):
            for _ in range(100):
                yield env.timeout(float(rng.exponential(20.0)))
                lb = int(rng.integers(0, 4 * BPD))
                yield env.process(
                    _request(env, ctrl, lb, bool(rng.random() < 0.3))
                )
                finished.append(lb)

        def _request(env, ctrl, lb, w):
            yield from ctrl.handle(lb, 1, w)

        env.process(client(env))
        env.run(until=rebuild.process)
        env.run(until=60_000)
        assert rebuild.done
        assert len(finished) == 100

    def test_throttled_rebuild_slower(self):
        env1, c1 = build_degraded("raid5", failed=1, spare=True)
        r1 = RebuildProcess(c1, chunk_blocks=12, delay_ms=0.0)
        env1.run(until=r1.process)
        env2, c2 = build_degraded("raid5", failed=1, spare=True)
        r2 = RebuildProcess(c2, chunk_blocks=12, delay_ms=50.0)
        env2.run(until=r2.process)
        assert r2.duration_ms > r1.duration_ms

    @pytest.mark.parametrize("grain", [None, 1, 8])
    def test_rebuild_reads_only_the_sources(self, grain):
        """Rebuilding 60 blocks of an N=4 Parity Striping array reads
        each block's four sources once and nothing between them.  Under
        a parity grain a chunk's sources sit in distant areas, where one
        read per disk from its lowest to its highest source block reads
        thousands of blocks."""
        env, ctrl = build_degraded("parity_striping", failed=1, spare=True, parity_grain=grain)
        issued = {i: spy_submits(d) for i, d in enumerate(ctrl.disks) if i != 1}
        rebuild = RebuildProcess(ctrl, chunk_blocks=6, used_blocks=60)
        env.run(until=rebuild.process)
        reads = [
            (disk, start, n)
            for disk, accesses in issued.items()
            for kind, start, n in accesses
            if kind is AccessKind.READ
        ]
        assert sum(n for _, _, n in reads) == 4 * 60
        sources = {
            (src.disk, src.block)
            for pb in range(60)
            for src in ctrl.layout.reconstruction_sources(1, pb)
        }
        read = {(disk, b) for disk, start, n in reads for b in range(start, start + n)}
        assert read == sources

    def test_mirror_rebuild(self):
        env, ctrl = build_degraded("mirror", failed=0, spare=True)
        rebuild = RebuildProcess(ctrl, chunk_blocks=24)
        env.run(until=rebuild.process)
        assert rebuild.done
        # Rebuilt from the partner.
        assert ctrl.disks[1].reads > 0
