"""Physical disk bandwidth model.

The migration process and the guest workload share one spindle; contention
between them is what produces the paper's Figure 6 (Bonnie++ throughput
depressed while migration reads the disk at a high rate) and the observation
that "disk I/O throughput is the bottleneck of the whole system" (§VI-C-3).

The model is a single-server queue, :class:`~repro.sim.Spindle`: one
request is serviced at a time, in arrival order, for
``seek_time + nbytes / bandwidth`` seconds.  Guest and migration requests
all run at one priority: a real spindle privileges neither side, and the
migration keeps its transfers in modest chunks, so first-come service
approximates bandwidth sharing.

One operation is two steps on the disk: take :attr:`PhysicalDisk.spindle`,
then :meth:`PhysicalDisk.occupy` it for the service time.  Migration reads
run them in :meth:`PhysicalDisk.io`; a guest request runs the same two
steps inside its one generator frame in
:meth:`BackendDriver.submit <repro.storage.blkback.BackendDriver.submit>`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from ..errors import StorageError
from ..sim import Spindle, Timeout
from ..units import MiB

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import Environment


class PhysicalDisk:
    """A bandwidth- and seek-limited disk shared by all users of a host.

    Parameters
    ----------
    env:
        Simulation environment.
    read_bandwidth / write_bandwidth:
        Sustained sequential throughput in bytes/second.
    seek_time:
        Fixed per-operation overhead in seconds (positioning + controller).
    """

    def __init__(
        self,
        env: "Environment",
        read_bandwidth: float = 70 * MiB,
        write_bandwidth: float = 60 * MiB,
        seek_time: float = 0.5e-3,
    ) -> None:
        if read_bandwidth <= 0 or write_bandwidth <= 0:
            raise StorageError("disk bandwidth must be positive")
        if seek_time < 0:
            raise StorageError("seek time cannot be negative")
        self.env = env
        self.read_bandwidth = float(read_bandwidth)
        self.write_bandwidth = float(write_bandwidth)
        self.seek_time = float(seek_time)
        #: The single server every operation queues for (one at a time).
        self.spindle = Spindle(env)
        #: Lifetime counters.
        self.bytes_read = 0
        self.bytes_written = 0
        self.ops = 0

    def occupy(self, nbytes: int, is_write: bool) -> Timeout:
        """Hold the granted spindle for one operation of ``nbytes``.

        Returns the service timeout (``seek_time + nbytes / bandwidth``) to
        yield, and charges the operation to the lifetime counters as its
        service starts.
        """
        if is_write:
            delay = self.seek_time + nbytes / self.write_bandwidth
            self.bytes_written += nbytes
        else:
            delay = self.seek_time + nbytes / self.read_bandwidth
            self.bytes_read += nbytes
        self.ops += 1
        return Timeout(self.env, delay)

    def io(self, nbytes: int, is_write: bool) -> Generator:
        """Simulate one disk operation; ``yield from`` inside a process.

        Queues behind other operations and then occupies the disk for the
        operation's service time.
        """
        if nbytes < 0:
            raise StorageError(f"negative I/O size {nbytes}")
        # try/finally rather than the context-manager form: this runs once
        # per simulated I/O and the protocol calls are pure overhead here.
        spindle = self.spindle
        grant = spindle.acquire()
        try:
            if grant.callbacks is not None:  # else granted inline
                yield grant
            yield self.occupy(nbytes, is_write)
        finally:
            spindle.release(grant)

    def read(self, nbytes: int) -> Generator:
        """Generator helper for a read of ``nbytes``."""
        return self.io(nbytes, is_write=False)

    def write(self, nbytes: int) -> Generator:
        """Generator helper for a write of ``nbytes``."""
        return self.io(nbytes, is_write=True)

    @property
    def queue_length(self) -> int:
        """Requests currently waiting for the spindle."""
        return self.spindle.queue_length

    def __repr__(self) -> str:
        return (f"<PhysicalDisk r={self.read_bandwidth / MiB:.0f} MiB/s "
                f"w={self.write_bandwidth / MiB:.0f} MiB/s>")
