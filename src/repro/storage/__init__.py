"""Local disk storage substrate: VBDs, the physical disk model, and blkback.

This is the subsystem the paper migrates.  The
:class:`~repro.storage.vbd.VirtualBlockDevice` holds content (generation
stamps, optionally real bytes), :class:`~repro.storage.disk.PhysicalDisk`
models spindle bandwidth and contention, and
:class:`~repro.storage.blkback.BackendDriver` is the interception point
where dirty tracking and post-copy pulling happen.
"""

from .block import IOKind, IORequest, write
from .blkback import BackendDriver
from .disk import PhysicalDisk
from .vbd import GenerationClock, VirtualBlockDevice

__all__ = [
    "BackendDriver",
    "GenerationClock",
    "IOKind",
    "IORequest",
    "PhysicalDisk",
    "VirtualBlockDevice",
    "write",
]
