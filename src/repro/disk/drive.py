"""The disk drive service process.

Each :class:`Disk` owns a request queue (a pluggable
:class:`~repro.disk.scheduler.DiskScheduler`) and a single service loop
that executes one request at a time:

1. **Seek** — arm moves to the target cylinder (fitted seek curve).
2. **Latency** — the platter rotates continuously; the head waits until
   the first sector of the target block arrives.  The angular position is
   a pure function of simulated time (constant rpm, no spindle sync across
   disks, as in the paper).
3. **Transfer** — sectors pass under the head at the sustained rate.
4. For **RMW** accesses the head waits for the written sectors to come
   around again — one full revolution after the read ends — and rewrites
   them in place.  If the new contents depend on reads elsewhere
   (``data_ready``), the disk spins *whole extra revolutions* until the
   dependency is met: this is the cost that the paper's parity
   synchronization policies (SI/RF/DF...) trade against response time.
"""

from __future__ import annotations

import math
from typing import Generator, Optional

from repro.des import Environment, Event, TimeWeighted
from repro.disk.geometry import DiskGeometry
from repro.disk.request import AccessKind, DiskRequest
from repro.disk.scheduler import DiskScheduler, FCFSScheduler
from repro.disk.seek import SeekModel

__all__ = ["Disk"]


class Disk:
    """A single disk drive with its queue and service process.

    Parameters
    ----------
    env:
        Simulation environment.
    geometry, seek_model:
        Physical model (Table 1 defaults via the factories in
        :mod:`repro.sim.config`).
    name:
        Identification for logging/metrics (e.g. ``"array3.disk7"``).
    scheduler:
        Queue discipline; FCFS with priority classes by default.
    """

    def __init__(
        self,
        env: Environment,
        geometry: DiskGeometry,
        seek_model: SeekModel,
        name: str = "disk",
        scheduler: Optional[DiskScheduler] = None,
        phase: float = 0.0,
    ) -> None:
        if not 0.0 <= phase < 1.0:
            raise ValueError("phase must be in [0, 1)")
        self.env = env
        self.geometry = geometry
        self.seek_model = seek_model
        self.name = name
        self.scheduler = scheduler if scheduler is not None else FCFSScheduler()
        #: Rotational phase offset in revolutions.  The paper assumes no
        #: spindle synchronization, so the system builder randomises
        #: phases; 0.0 everywhere models synchronized spindles.
        self.phase = phase

        # Geometry constants read once: the service loop computes on these
        # instead of re-deriving them through DiskGeometry's property
        # chains, with the same operations in the same order, so every
        # time it produces is bit-identical to the geometry's own.  A
        # block's start angle depends only on its slot within the track.
        self._rev = geometry.revolution_time
        self._block_transfer_time = geometry.block_transfer_time
        self._blocks_per_cylinder = geometry.blocks_per_cylinder
        self._blocks_per_track = geometry.blocks_per_track
        self._start_angles = tuple(
            geometry.start_angle_of(b) for b in range(geometry.blocks_per_track)
        )
        self._total_blocks = geometry.total_blocks

        #: Current arm position.
        self.cylinder = 0
        self._wakeup: Optional[Event] = None
        self._current: Optional[DiskRequest] = None
        #: Probe slot: the system's probe bus while anything observes it
        #: (the ``disk_*`` taps of ``repro.obs.probes.TAPS``).  ``None``
        #: keeps the data path at one identity check per tap.
        self.probe = None

        # -- statistics --
        self.busy_time = 0.0
        self.seek_time_total = 0.0
        self.completed = 0
        self.reads = 0
        self.writes = 0
        self.rmws = 0
        self.blocks_transferred = 0
        self.queue_length = TimeWeighted(env.now, 0.0)

        self.process = env.process(self._serve())

    # -- public API ---------------------------------------------------------
    def submit(self, request: DiskRequest) -> DiskRequest:
        """Enqueue *request*; its ``started``/``done`` events are created.

        Raises :class:`ValueError`, queueing nothing, if the request runs
        past the last block of the disk.  This is the only range check on
        the access: the service loop trusts every queued block.
        """
        end = request.end_block
        if end > self._total_blocks:
            raise ValueError(
                f"{self.name}: blocks {request.start_block}..{end - 1} run "
                f"past the disk's last block {self._total_blocks - 1}"
            )
        request.attach(self.env)
        self.scheduler.put(request)
        self.queue_length.add(self.env.now, +1)
        if self.probe is not None:
            self.probe.on_disk_submit(self, request)
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()
        return request

    @property
    def pending(self) -> int:
        """Queued requests, excluding the one in service."""
        return len(self.scheduler)

    @property
    def in_service(self) -> Optional[DiskRequest]:
        """The request currently being serviced, if any."""
        return self._current

    def utilization(self, now: Optional[float] = None) -> float:
        """Fraction of time the disk has been busy."""
        t = self.env.now if now is None else now
        return self.busy_time / t if t > 0 else 0.0

    # -- rotational timing ----------------------------------------------------
    def angle_at(self, time: float) -> float:
        """Angular position of the platter in [0, 1) at *time*."""
        rev = self._rev
        return ((time % rev) / rev + self.phase) % 1.0

    def rotational_latency(self, time: float, block: int) -> float:
        """Time from *time* until the start sector of *block* is under the head."""
        target = self._start_angles[block % self._blocks_per_track]
        frac = (target - self.angle_at(time)) % 1.0
        return frac * self._rev

    def seek_distance_to(self, block: int) -> int:
        """Cylinders the arm would travel to reach *block* right now."""
        return abs(block // self._blocks_per_cylinder - self.cylinder)

    # -- service loop -----------------------------------------------------------
    def _serve(self) -> Generator[Event, None, None]:
        env = self.env
        while True:
            while len(self.scheduler) == 0:
                self._wakeup = Event(env)
                yield self._wakeup
                self._wakeup = None
            request = self.scheduler.pop(self.cylinder)
            t0 = env.now
            self.queue_length.add(t0, -1)
            self._current = request
            assert request.started is not None
            if not request.started.triggered:  # first service attempt
                request.started.succeed(t0)
            finished = yield from self._service(request)
            self.busy_time += env.now - t0
            if finished:
                self.completed += 1
                self.blocks_transferred += request.nblocks
                if self.probe is not None:
                    self.probe.on_disk_complete(self, request)
            self._current = None

    def _service(self, request: DiskRequest) -> Generator[Event, None, bool]:
        env = self.env
        probe = self.probe

        # Seek.
        target_cyl = request.start_block // self._blocks_per_cylinder
        seek = self.seek_model.seek_time(abs(target_cyl - self.cylinder))
        self.cylinder = target_cyl
        self.seek_time_total += seek
        if seek > 0.0:
            yield env.timeout(seek)
            if probe is not None:
                probe.on_disk_phase(self, request, "seek", env.now - seek, env.now)

        # Rotational latency.
        latency = self.rotational_latency(env.now, request.start_block)
        if latency > 0.0:
            yield env.timeout(latency)
            if probe is not None:
                probe.on_disk_phase(self, request, "rotation", env.now - latency, env.now)

        xfer = request.nblocks * self._block_transfer_time
        rev = self._rev

        if request.kind is AccessKind.READ:
            self.reads += 1
            yield env.timeout(xfer)
            if probe is not None:
                probe.on_disk_phase(self, request, "transfer", env.now - xfer, env.now)
            request.read_complete.succeed(env.now)
            self._finish(request)

        elif request.kind is AccessKind.WRITE:
            self.writes += 1
            if request.data_ready is not None and not request.data_ready.triggered:
                # Dependent write (e.g. reconstruct-write parity): hold the
                # disk until the payload is computable, then wait for the
                # sectors to come around again.
                wait0 = env.now
                yield request.data_ready
                if probe is not None:
                    probe.on_disk_phase(self, request, "sync_wait", wait0, env.now)
                relat = self.rotational_latency(env.now, request.start_block)
                if relat > 0.0:
                    yield env.timeout(relat)
                    if probe is not None:
                        probe.on_disk_phase(
                            self, request, "rotation", env.now - relat, env.now
                        )
            yield env.timeout(xfer)
            if probe is not None:
                probe.on_disk_phase(self, request, "transfer", env.now - xfer, env.now)
            self._finish(request)

        else:  # RMW
            self.rmws += 1
            yield env.timeout(xfer)  # read old contents
            if probe is not None:
                probe.on_disk_phase(self, request, "transfer", env.now - xfer, env.now)
            if not request.read_complete.triggered:
                request.read_complete.succeed(env.now)
            read_end = env.now
            # Earliest in-place rewrite: when the run's first sector comes
            # back under the head.  For a single block that is one full
            # revolution after the read began, i.e. (rev - xfer) after it
            # ended; for runs longer than a revolution the latency wraps.
            slot = read_end + self.rotational_latency(read_end, request.start_block)
            if request.data_ready is not None and not request.data_ready.triggered:
                if request.max_hold_revolutions is None:
                    yield request.data_ready
                    if probe is not None:
                        probe.on_disk_phase(
                            self, request, "sync_wait", read_end, env.now
                        )
                else:
                    # Bounded hold (SI policy): give up after the allowed
                    # revolutions, requeue behind other waiting accesses
                    # and let them through — this is what breaks the
                    # cross-disk circular wait SI can otherwise create.
                    budget = slot - env.now + request.max_hold_revolutions * rev
                    deadline = env.timeout(budget)
                    yield request.data_ready | deadline
                    if probe is not None:
                        probe.on_disk_phase(
                            self, request, "sync_wait", read_end, env.now
                        )
                    if not request.data_ready.triggered:
                        request.spin_revolutions += request.max_hold_revolutions
                        request.hold_retries += 1
                        request.renumber()
                        self.scheduler.put(request)
                        self.queue_length.add(env.now, +1)
                        return False
            if env.now > slot:
                spins = math.ceil((env.now - slot) / rev - 1e-12)
                request.spin_revolutions += spins
                slot += spins * rev
            if probe is not None:
                probe.on_disk_phase(self, request, "rmw_rotate", env.now, slot)
                probe.on_disk_phase(self, request, "transfer", slot, slot + xfer)
            yield env.timeout(slot - env.now + xfer)
            self._finish(request)

        # Arm parks at the cylinder of the last transferred block.
        self.cylinder = (request.end_block - 1) // self._blocks_per_cylinder
        return True

    def _finish(self, request: DiskRequest) -> None:
        assert request.done is not None
        request.done.succeed(self.env.now)

    def __repr__(self) -> str:
        return f"<Disk {self.name} cyl={self.cylinder} queue={self.pending}>"
