"""Domains (virtual machines) and their lifecycle.

A :class:`Domain` bundles the whole-system state the paper migrates: guest
memory, CPU state, and a reference to its current VBD.  The domain also
carries the *execution gate*: while suspended, every I/O or memory touch
issued by its workload blocks until the domain resumes — that blocking is
exactly the service unavailability the downtime metric measures.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Generator, Optional

import numpy as np

from ..errors import MigrationError
from ..storage.block import IOKind, IORequest
from ..storage.vbd import VirtualBlockDevice
from .cpu import CPUState
from .memory import GuestMemory

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import Environment, Event
    from ..storage.blkback import BackendDriver
    from .host import Host


class DomainState(enum.Enum):
    RUNNING = "running"
    SUSPENDED = "suspended"


class Domain:
    """One virtual machine."""

    # No instance dict: 10,000 domains at 1,000 hosts, and every guest
    # I/O reads several of these fields.
    __slots__ = ("env", "memory", "cpu", "name", "domain_id", "running",
                 "write_throttle", "host", "driver", "_resumed",
                 "suspended_at", "resumed_at")

    _next_id = 1

    def __init__(
        self,
        env: "Environment",
        memory: GuestMemory,
        name: str = "domU",
    ) -> None:
        self.env = env
        self.memory = memory
        self.cpu = CPUState()
        self.name = name
        self.domain_id = Domain._next_id
        Domain._next_id += 1
        #: False while suspended: the execution gate every guest I/O
        #: tests (a plain field, read once per request).
        self.running = True
        #: Auto-converge write throttle (1.0 = unthrottled).  When > 1,
        #: every guest write takes ``factor ×`` its unthrottled duration
        #: end-to-end, scaling a closed-loop writer's dirty rate by
        #: ``~1/factor`` — the actuator of
        #: :class:`~repro.core.converge.AutoConvergeController`.
        self.write_throttle = 1.0
        #: The host currently executing this domain, and the backend
        #: driver serving its disk there (both set by Host.attach_domain,
        #: cleared by Host.detach_domain).
        self.host: Optional["Host"] = None
        self.driver: Optional["BackendDriver"] = None
        #: Event that fires on resume; recreated on each suspend.
        self._resumed: Optional["Event"] = None
        #: Lifecycle timestamps of the most recent suspend/resume.
        self.suspended_at: Optional[float] = None
        self.resumed_at: Optional[float] = None

    # -- placement -----------------------------------------------------------

    @property
    def vbd(self) -> VirtualBlockDevice:
        """The domain's disk on its *current* host."""
        if self.host is None:
            raise MigrationError(f"{self} is not attached to a host")
        return self.host.vbd_of(self.domain_id)

    @property
    def state(self) -> DomainState:
        return DomainState.RUNNING if self.running else DomainState.SUSPENDED

    # -- lifecycle -------------------------------------------------------

    def suspend(self) -> None:
        """Pause execution (start of freeze-and-copy)."""
        if not self.running:
            raise MigrationError(f"{self} is already suspended")
        self.running = False
        self.suspended_at = self.env.now
        self._resumed = self.env.event()

    def resume(self) -> None:
        """Continue execution (on whichever host the domain is attached to)."""
        if self.running:
            raise MigrationError(f"{self} is not suspended")
        self.running = True
        self.resumed_at = self.env.now
        resumed, self._resumed = self._resumed, None
        if resumed is not None:
            resumed.succeed()

    def ensure_running(self) -> Generator:
        """Block (``yield from``) until the domain is running.

        Workload code calls this before every operation; the accumulated
        blocking is the guest-visible downtime.
        """
        while not self.running:
            yield self._resumed

    # -- guest operations ------------------------------------------------

    # read() and write() each build their request in place, with
    # positional arguments: they run once per guest I/O, where one more
    # call or keyword is measurable.

    def read(self, block: int, nblocks: int = 1) -> Generator:
        """Read ``nblocks`` blocks from ``block``; see :meth:`write`."""
        driver = self.driver
        if driver is None:
            raise MigrationError(f"{self} is not attached to a host")
        return driver.submit(
            IORequest(IOKind.READ, block, nblocks, self.domain_id,
                      driver.vbd.block_size),
            self)

    def write(self, block: int, nblocks: int = 1) -> Generator:
        """Write ``nblocks`` blocks from ``block`` through the current
        host's backend driver.

        Returns the request's generator; ``yield from`` it inside a
        process.  The whole guest path runs in that one frame,
        :meth:`~repro.storage.blkback.BackendDriver.submit` with this
        domain as the guest: the suspend gate, the auto-converge throttle
        and the choice of host all apply when the request first runs, not
        when this method is called.  Raises :class:`MigrationError` when
        the domain is not attached to a host.
        """
        driver = self.driver
        if driver is None:
            raise MigrationError(f"{self} is not attached to a host")
        return driver.submit(
            IORequest(IOKind.WRITE, block, nblocks, self.domain_id,
                      driver.vbd.block_size),
            self)

    def touch_memory(self, indices: np.ndarray) -> None:
        """Dirty guest pages (no simulated time; CPU work is the caller's)."""
        if not self.running:
            raise MigrationError(f"{self} cannot touch memory while suspended")
        self.memory.touch(indices)

    def __repr__(self) -> str:
        where = self.host.name if self.host else "detached"
        return f"<Domain {self.name!r} id={self.domain_id} {self.state.value} on {where}>"
