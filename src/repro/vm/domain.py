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

    _next_id = 1

    def __init__(
        self,
        env: "Environment",
        memory: GuestMemory,
        cpu: Optional[CPUState] = None,
        name: str = "domU",
        domain_id: Optional[int] = None,
    ) -> None:
        self.env = env
        self.memory = memory
        self.cpu = cpu if cpu is not None else CPUState()
        self.name = name
        if domain_id is None:
            domain_id = Domain._next_id
            Domain._next_id += 1
        self.domain_id = domain_id
        self.state = DomainState.RUNNING
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
    def running(self) -> bool:
        return self.state is DomainState.RUNNING

    # -- lifecycle -------------------------------------------------------

    def suspend(self) -> None:
        """Pause execution (start of freeze-and-copy)."""
        if self.state is not DomainState.RUNNING:
            raise MigrationError(f"{self} is already suspended")
        self.state = DomainState.SUSPENDED
        self.suspended_at = self.env.now
        self._resumed = self.env.event()

    def resume(self) -> None:
        """Continue execution (on whichever host the domain is attached to)."""
        if self.state is not DomainState.SUSPENDED:
            raise MigrationError(f"{self} is not suspended")
        self.state = DomainState.RUNNING
        self.resumed_at = self.env.now
        resumed, self._resumed = self._resumed, None
        if resumed is not None:
            resumed.succeed()

    def ensure_running(self) -> Generator:
        """Block (``yield from``) until the domain is running.

        Workload code calls this before every operation; the accumulated
        blocking is the guest-visible downtime.
        """
        while self.state is DomainState.SUSPENDED:
            yield self._resumed

    # -- guest operations ------------------------------------------------

    def io(self, kind: IOKind, block: int, nblocks: int = 1) -> Generator:
        """Issue one disk request through the current host's backend driver.

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
            IORequest(kind, block, nblocks, domain_id=self.domain_id,
                      block_size=driver.vbd.block_size),
            self)

    def read(self, block: int, nblocks: int = 1) -> Generator:
        return self.io(IOKind.READ, block, nblocks)

    def write(self, block: int, nblocks: int = 1) -> Generator:
        return self.io(IOKind.WRITE, block, nblocks)

    def io_batch(self, kind: IOKind, extents) -> Generator:
        """Issue several same-kind requests as one coalesced disk operation.

        ``extents`` is an iterable of ``(first_block, nblocks)``.  Opt-in:
        the batch shares a single disk reservation (one seek), so timing
        differs from issuing the requests one by one — see
        :meth:`~repro.storage.blkback.BackendDriver.submit_coalesced`.
        """
        while self.state is DomainState.SUSPENDED:
            yield self._resumed
        driver = self.driver
        if driver is None:
            raise MigrationError(f"{self} is not attached to a host")
        block_size = driver.vbd.block_size
        requests = [IORequest(kind, int(first), int(nblocks),
                              domain_id=self.domain_id, block_size=block_size)
                    for first, nblocks in extents]
        throttle = self.write_throttle
        if throttle != 1.0 and kind is IOKind.WRITE:
            started = self.env.now
            yield from driver.submit_coalesced(requests)
            stall = (self.env.now - started) * (throttle - 1.0)
            if stall > 0.0:
                yield self.env.timeout(stall)
        else:
            yield from driver.submit_coalesced(requests)

    def write_batch(self, extents) -> Generator:
        """Coalesced counterpart of :meth:`write` (opt-in, changes timing)."""
        return self.io_batch(IOKind.WRITE, extents)

    def touch_memory(self, indices: np.ndarray) -> None:
        """Dirty guest pages (no simulated time; CPU work is the caller's)."""
        if not self.running:
            raise MigrationError(f"{self} cannot touch memory while suspended")
        self.memory.touch(indices)

    def __repr__(self) -> str:
        where = self.host.name if self.host else "detached"
        return f"<Domain {self.name!r} id={self.domain_id} {self.state.value} on {where}>"
