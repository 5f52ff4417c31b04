"""Address mapping for the disk array organizations of the paper.

A *layout* maps the array's logical block space (the equivalent of ``N``
independent data disks) onto physical ``(disk, block)`` addresses, and
knows where the redundancy for each logical block lives and which blocks
reconstruct each physical block
(:meth:`~repro.layout.common.Layout.reconstruction_sources`):

* :class:`~repro.layout.base.BaseLayout` — no striping, no redundancy.
* :class:`~repro.layout.mirror.MirrorLayout` — mirrored pairs.
* :class:`~repro.layout.raid5.Raid5Layout` — block striping, rotated parity.
* :class:`~repro.layout.raid4.Raid4Layout` — block striping, dedicated
  parity disk.
* :class:`~repro.layout.paritystripe.ParityStripingLayout` — Gray et al.'s
  parity striping: sequential data, one parity area per disk.
"""

from repro.layout.common import Layout, PhysicalAddress, Run, WriteGroup, WriteMode
from repro.layout.base import BaseLayout
from repro.layout.mirror import MirrorLayout
from repro.layout.raid5 import Raid5Layout
from repro.layout.raid4 import Raid4Layout
from repro.layout.paritystripe import ParityStripingLayout, ParityPlacement
from repro.layout.allocation import (
    AllocationError,
    POLICIES,
    PoolSlot,
    VADemand,
    allocate,
)

__all__ = [
    "AllocationError",
    "BaseLayout",
    "Layout",
    "MirrorLayout",
    "POLICIES",
    "ParityPlacement",
    "ParityStripingLayout",
    "PhysicalAddress",
    "PoolSlot",
    "Raid4Layout",
    "Raid5Layout",
    "Run",
    "VADemand",
    "WriteGroup",
    "WriteMode",
    "allocate",
]
