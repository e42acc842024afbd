"""The backend block driver (Xen's ``blkback``), where the paper's hooks live.

In Xen's split-driver model every DomainU disk request passes through the
backend driver in Domain0.  The paper modifies ``blkback`` to (a) intercept
writes and mark dirtied blocks in the block-bitmap, and (b) during post-copy
on the destination, intercept *all* requests so reads of still-dirty blocks
can be pulled from the source.  This class is that driver for the simulated
testbed: :meth:`Host.attach_domain <repro.vm.host.Host.attach_domain>`
creates one instance per attached domain, fronting that domain's VBD and
the host's physical disk (shared by every driver on the host).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator, Optional

from ..bitmap.base import BlockBitmap
from ..errors import MigrationError, StorageError
from .block import IOKind, IORequest
from .disk import PhysicalDisk
from .vbd import VirtualBlockDevice

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import Environment
    from ..vm.domain import Domain

#: An interceptor receives a request and yields sim events; it returns True
#: if it fully handled the request (timing included), False to fall through
#: to direct submission.
Interceptor = Callable[[IORequest], Generator]
#: Observers are called synchronously after a write is applied.
WriteObserver = Callable[[IORequest], None]


class BackendDriver:
    """Intercepting block backend for one attached domain."""

    def __init__(
        self,
        env: "Environment",
        disk: PhysicalDisk,
        vbd: VirtualBlockDevice,
        tracking_op_overhead: float = 0.0,
    ) -> None:
        self.env = env
        self.disk = disk
        self.vbd = vbd
        #: Named dirty bitmaps updated on every applied write.  Multiple maps
        #: can be live at once (e.g. the pre-copy iteration map and the IM
        #: map BM_3 both track during post-copy).
        self._tracking: dict[str, BlockBitmap] = {}
        #: Post-copy hook; when set, every guest request is routed through it.
        self.interceptor: Optional[Interceptor] = None
        #: Synchronous write observers (locality analysis, throughput logs).
        self.write_observers: list[WriteObserver] = []
        #: Synchronous observers of *every* applied request (trace capture).
        self.request_observers: list[WriteObserver] = []
        #: Extra simulated latency charged per tracked write operation — the
        #: cost of marking the bitmap (Table III's overhead, normally ~0).
        self.tracking_op_overhead = float(tracking_op_overhead)
        #: Set while the host is crashed: in-flight requests are discarded
        #: instead of applied (a dead host completes no I/O), which keeps a
        #: write racing the crash from dirtying state nobody tracks.
        self.crashed = False
        #: Counters.
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        #: Requests submitted but not yet completed.
        self._inflight = 0
        self._drained: list = []

    # -- dirty tracking ------------------------------------------------------

    def start_tracking(self, name: str, bitmap: BlockBitmap) -> None:
        """Begin recording writes into ``bitmap`` under ``name``."""
        if bitmap.nbits != self.vbd.nblocks:
            raise StorageError(
                f"bitmap covers {bitmap.nbits} blocks but VBD has "
                f"{self.vbd.nblocks}")
        if name in self._tracking:
            raise StorageError(f"tracking bitmap {name!r} already registered")
        self._tracking[name] = bitmap

    def stop_tracking(self, name: str) -> BlockBitmap:
        """Stop recording into (and return) the named bitmap."""
        try:
            return self._tracking.pop(name)
        except KeyError:
            raise StorageError(f"no tracking bitmap named {name!r}") from None

    def swap_tracking(self, name: str, fresh: BlockBitmap) -> BlockBitmap:
        """Atomically replace the named bitmap; returns the old one.

        This is the per-iteration handoff: blkd takes the iteration's dirty
        map while blkback starts recording the next iteration into a reset
        map (paper §IV-B).
        """
        old = self.stop_tracking(name)
        self.start_tracking(name, fresh)
        return old

    def tracking_bitmap(self, name: str) -> BlockBitmap:
        try:
            return self._tracking[name]
        except KeyError:
            raise StorageError(f"no tracking bitmap named {name!r}") from None

    def has_tracking(self, name: str) -> bool:
        """True when a bitmap is registered under ``name``."""
        return name in self._tracking

    def tracking_names(self) -> list[str]:
        """Names of all registered tracking bitmaps."""
        return sorted(self._tracking)

    def drop_tracking(self) -> None:
        """Discard every tracking bitmap (a host crash loses in-memory
        state; durable stores are what recovery reads instead)."""
        self._tracking.clear()

    @property
    def is_tracking(self) -> bool:
        return bool(self._tracking)

    # -- request path ----------------------------------------------------

    def submit(self, request: IORequest,
               guest: Optional["Domain"] = None) -> Generator:
        """Serve one request; ``yield from`` inside a process.

        ``guest`` is the domain issuing the request, as
        :meth:`~repro.vm.domain.Domain.io` passes it.  When the request
        first runs it then waits while the guest is suspended, moves to
        the driver of the guest's current host if the guest migrated in
        between, and, for a write under auto-converge, stretches the
        request to ``write_throttle ×`` its natural duration.

        This is the one generator frame of a guest I/O: the disk's
        queue-and-service steps run here rather than in a nested
        :meth:`PhysicalDisk.io <repro.storage.disk.PhysicalDisk.io>`.
        """
        stretch = 0.0
        if guest is not None:
            if not guest.running:
                yield from guest.ensure_running()
            driver = guest.driver
            if driver is not self:
                if driver is None:
                    raise MigrationError(f"{guest} is not attached to a host")
                request.block_size = driver.vbd.block_size
                yield from driver.submit(request, guest)
                return
            if request.kind is IOKind.WRITE:
                # Auto-converge: QEMU slows the vCPU; stretching the I/O
                # has the same closed-loop effect on the dirty rate.
                stretch = guest.write_throttle - 1.0
        env = self.env
        request.issue_time = env._now
        self._inflight += 1
        try:
            handled = False
            if self.interceptor is not None:
                handled = yield from self.interceptor(request)
            if not handled:
                is_write = request.kind is IOKind.WRITE
                if self._tracking and is_write:
                    overhead = self.tracking_op_overhead
                    if overhead:
                        yield env.timeout(overhead)
                disk = self.disk
                spindle = disk.spindle
                nbytes = request.nblocks * request.block_size
                grant = spindle.acquire()
                try:
                    yield grant
                    service = disk.service(nbytes, is_write)
                    yield service
                finally:
                    spindle.release(grant)
                disk.account(service, nbytes, is_write)
                self._apply(request, nbytes)
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                drained, self._drained = self._drained, []
                for event in drained:
                    event.succeed()
        if stretch:
            stall = (env._now - request.issue_time) * stretch
            if stall > 0.0:
                yield env.timeout(stall)

    @property
    def inflight(self) -> int:
        """Guest requests currently in flight through this driver."""
        return self._inflight

    def quiesce(self) -> Generator:
        """Wait (``yield from``) until no guest request is in flight.

        The migration calls this right after suspending the domain so that
        writes already queued at the disk are applied — and tracked — before
        the final bitmap is harvested.  Real Xen drains outstanding ring
        requests the same way before saving the domain.
        """
        while self._inflight > 0:
            event = self.env.event()
            self._drained.append(event)
            yield event

    def serve_direct(self, request: IORequest) -> Generator:
        """Timed path to the physical disk, then apply the state change."""
        overhead = (self.tracking_op_overhead
                    if (self._tracking and request.kind is IOKind.WRITE) else 0.0)
        if overhead:
            yield self.env.timeout(overhead)
        yield from self.disk.io(request.nbytes, request.kind is IOKind.WRITE)
        self.apply(request)

    def apply(self, request: IORequest) -> None:
        """Apply a request's state change (no simulated time).

        Split out so the post-copy path can perform the disk timing itself
        (e.g. after a pulled block arrives) and then apply.
        """
        self._apply(request, request.nbytes)

    def _apply(self, request: IORequest, nbytes: int) -> None:
        """:meth:`apply` with the request's byte count already computed."""
        if self.crashed:
            return
        for observer in self.request_observers:
            observer(request)
        if request.kind is IOKind.WRITE:
            self.vbd.write(request.block, request.nblocks)
            for bitmap in self._tracking.values():
                bitmap.set_range(request.block, request.nblocks)
            for observer in self.write_observers:
                observer(request)
            self.writes += 1
            self.bytes_written += nbytes
        else:
            self.reads += 1
            self.bytes_read += nbytes

    def __repr__(self) -> str:
        hooks = "intercepted" if self.interceptor else "direct"
        return (f"<BackendDriver {hooks}, tracking={sorted(self._tracking)}, "
                f"{self.writes} writes/{self.reads} reads>")
