"""Physical disk bandwidth model.

The migration process and the guest workload share one spindle; contention
between them is what produces the paper's Figure 6 (Bonnie++ throughput
depressed while migration reads the disk at a high rate) and the observation
that "disk I/O throughput is the bottleneck of the whole system" (§VI-C-3).

The model is a single-server queue: one request is serviced at a time, for
``seek_time + nbytes / bandwidth`` seconds.  Requests carry a priority so
guest I/O can be favoured over bulk migration reads if desired.  Migration
code keeps its transfers in modest chunks, so FIFO service naturally
approximates bandwidth sharing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from ..errors import StorageError
from ..sim import Resource, Timeout
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
        self.spindle = Resource(env, capacity=1)
        #: Lifetime counters.
        self.bytes_read = 0
        self.bytes_written = 0
        self.ops = 0
        self.busy_time = 0.0

    def service_time(self, nbytes: int, is_write: bool) -> float:
        """Time to service one operation of ``nbytes`` (excluding queueing)."""
        bandwidth = self.write_bandwidth if is_write else self.read_bandwidth
        return self.seek_time + nbytes / bandwidth

    # :meth:`io` is one operation: queue on :attr:`spindle`, occupy it
    # for :meth:`service`, release it, then :meth:`account`.  The guest
    # path in blkback runs those same steps inside its own generator
    # frame instead of nesting a second one.

    def service(self, nbytes: int, is_write: bool) -> Timeout:
        """Occupy the (granted) spindle for one operation's service time."""
        return Timeout(self.env, self.service_time(nbytes, is_write))

    def account(self, service: Timeout, nbytes: int, is_write: bool) -> None:
        """Charge one completed operation to the lifetime counters."""
        self.busy_time += service.delay
        self.ops += 1
        if is_write:
            self.bytes_written += nbytes
        else:
            self.bytes_read += nbytes

    def io(self, nbytes: int, is_write: bool, priority: int = 0) -> Generator:
        """Simulate one disk operation; ``yield from`` inside a process.

        Queues behind other operations (lower ``priority`` is served first)
        and then occupies the disk for the operation's service time.
        """
        if nbytes < 0:
            raise StorageError(f"negative I/O size {nbytes}")
        # try/finally rather than the context-manager form: this runs once
        # per simulated I/O and the protocol calls are pure overhead here.
        spindle = self.spindle
        grant = spindle.request(priority)
        try:
            yield grant
            service = self.service(nbytes, is_write)
            yield service
        finally:
            spindle.release(grant)
        self.account(service, nbytes, is_write)

    def read(self, nbytes: int, priority: int = 0) -> Generator:
        """Generator helper for a read of ``nbytes``."""
        return self.io(nbytes, is_write=False, priority=priority)

    def write(self, nbytes: int, priority: int = 0) -> Generator:
        """Generator helper for a write of ``nbytes``."""
        return self.io(nbytes, is_write=True, priority=priority)

    @property
    def queue_length(self) -> int:
        """Requests currently waiting for the spindle."""
        return self.spindle.queue_length

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` the disk spent busy."""
        if elapsed <= 0:
            return 0.0
        return min(self.busy_time / elapsed, 1.0)

    def __repr__(self) -> str:
        return (f"<PhysicalDisk r={self.read_bandwidth / MiB:.0f} MiB/s "
                f"w={self.write_bandwidth / MiB:.0f} MiB/s>")
