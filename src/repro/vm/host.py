"""Physical machines: the source and destination of a migration.

A :class:`Host` owns one physical disk and runs domains.  Each attached
domain gets its own VBD (a region of the host's local storage) and a
:class:`~repro.storage.blkback.BackendDriver` instance fronting it — the
split-driver arrangement the paper modifies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..errors import MigrationError
from ..persist.store import BitmapStore
from ..persist.tracked import PersistentBitmap
from ..storage.blkback import BackendDriver
from ..storage.disk import PhysicalDisk
from ..storage.vbd import GenerationClock, VirtualBlockDevice
from ..units import BLOCK_SIZE
from .domain import Domain

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import Environment


class Host:
    """One physical machine."""

    def __init__(
        self,
        env: "Environment",
        name: str,
        disk: Optional[PhysicalDisk] = None,
        clock: Optional[GenerationClock] = None,
    ) -> None:
        self.env = env
        self.name = name
        self.disk = disk if disk is not None else PhysicalDisk(env)
        #: Generation clock shared with peer hosts in an experiment so that
        #: block stamps stay globally unique across migrations.
        self.clock = clock if clock is not None else GenerationClock()
        self._domains: dict[int, Domain] = {}
        self._vbds: dict[int, VirtualBlockDevice] = {}
        self._drivers: dict[int, BackendDriver] = {}
        #: Set by the fault injector when this machine dies; a migration
        #: touching a crashed host fails immediately.
        self.crashed = False
        #: Crashes so far: a process that saw a different count before a
        #: wait knows the host died (and maybe restarted) under it.
        self.crash_count = 0
        #: Set while the machine is in a maintenance window: it keeps
        #: running its residents (and can be evacuated), but placement
        #: must never pick it as a *destination*.
        self.maintenance = False
        #: Durable bitmap stores on this host's stable storage, keyed by
        #: ``(domain_id, tracking name)``: each journals the bitmap
        #: registered under that name on the domain's driver.
        self._bitmap_stores: dict[tuple[int, str], BitmapStore] = {}
        #: Domains that were running when the host crashed (resumed on
        #: restart; domains suspended for other reasons stay suspended).
        self._suspended_at_crash: set[int] = set()
        #: Events fired when the host comes back up.
        self._restart_waiters: list = []

    # -- storage provisioning ------------------------------------------------

    def prepare_vbd(
        self,
        nblocks: int,
        block_size: int = BLOCK_SIZE,
        data: bool = False,
    ) -> VirtualBlockDevice:
        """Allocate a fresh (all-clean) VBD on this host's local storage.

        This is what the destination does when the migration initialisation
        asks it to "prepare a VBD for the migrated VM" (§IV-B).
        """
        return VirtualBlockDevice(nblocks, block_size, clock=self.clock, data=data)

    # -- domain placement --------------------------------------------------

    def attach_domain(
        self,
        domain: Domain,
        vbd: VirtualBlockDevice,
        tracking_op_overhead: float = 0.0,
    ) -> BackendDriver:
        """Bind ``domain`` (and its disk on this host) to this machine."""
        if domain.domain_id in self._domains:
            raise MigrationError(
                f"domain id {domain.domain_id} already attached to {self.name}")
        if domain.host is not None:
            raise MigrationError(
                f"{domain} is still attached to {domain.host.name}; detach first")
        driver = BackendDriver(self.env, self.disk, vbd,
                               tracking_op_overhead=tracking_op_overhead)
        self._domains[domain.domain_id] = domain
        self._vbds[domain.domain_id] = vbd
        self._drivers[domain.domain_id] = driver
        vbd.attach_floor = vbd.clock.current
        domain.host = self
        domain.driver = driver
        return driver

    def detach_domain(self, domain_id: int) -> tuple[Domain, VirtualBlockDevice]:
        """Unbind a domain, returning it and the VBD left behind."""
        try:
            domain = self._domains.pop(domain_id)
        except KeyError:
            raise MigrationError(
                f"no domain id {domain_id} on {self.name}") from None
        vbd = self._vbds.pop(domain_id)
        vbd.attach_floor = None
        self._drivers.pop(domain_id)
        domain.host = None
        domain.driver = None
        return domain, vbd

    # -- lookups ---------------------------------------------------------

    def domain(self, domain_id: int) -> Domain:
        try:
            return self._domains[domain_id]
        except KeyError:
            raise MigrationError(
                f"no domain id {domain_id} on {self.name}") from None

    def vbd_of(self, domain_id: int) -> VirtualBlockDevice:
        try:
            return self._vbds[domain_id]
        except KeyError:
            raise MigrationError(
                f"no VBD for domain id {domain_id} on {self.name}") from None

    def driver_of(self, domain_id: int) -> BackendDriver:
        try:
            return self._drivers[domain_id]
        except KeyError:
            raise MigrationError(
                f"no backend driver for domain id {domain_id} on {self.name}"
            ) from None

    @property
    def domains(self) -> list[Domain]:
        return list(self._domains.values())

    @property
    def domain_count(self) -> int:
        """Number of attached domains (without building :attr:`domains`)."""
        return len(self._domains)

    # -- durable bitmap stores -------------------------------------------

    def bitmap_store(
        self,
        domain_id: int,
        name: str = "precopy",
        nbits: Optional[int] = None,
        policy: str = "wal",
    ) -> BitmapStore:
        """The durable store of the bitmap ``domain_id`` tracks under
        ``name``, on this host's stable storage, created on first use with
        :class:`~repro.persist.store.BitmapStore`'s default knobs.

        An existing store is returned as-is (its policy is fixed at
        creation): the store *is* the persisted state, so a restarted host
        finds the pre-crash instance here and recovers from it.
        """
        key = (domain_id, name)
        store = self._bitmap_stores.get(key)
        if store is None:
            if nbits is None:
                nbits = self.vbd_of(domain_id).nblocks
            store = BitmapStore(nbits, policy=policy)
            self._bitmap_stores[key] = store
        return store

    def move_bitmap_store(self, domain_id: int, name: str,
                          to: "Host") -> None:
        """Hand the store of ``(domain_id, name)``, if any, to ``to``: a
        carried durable bitmap keeps its store where its domain runs."""
        store = self._bitmap_stores.pop((domain_id, name), None)
        if store is not None:
            to._bitmap_stores[(domain_id, name)] = store

    # -- maintenance windows ---------------------------------------------

    def enter_maintenance(self) -> None:
        """Open a maintenance window: residents keep running, but the
        placement pipeline stops offering this host as a destination."""
        self.maintenance = True

    def exit_maintenance(self) -> None:
        self.maintenance = False

    @property
    def available(self) -> bool:
        """True when placement may target this host (up, not draining)."""
        return not self.crashed and not self.maintenance

    # -- crash / restart lifecycle ---------------------------------------

    def crash(self) -> None:
        """This machine dies: every in-memory structure is lost.

        Running domains stop (remembered so :meth:`restart` can bring
        exactly those back), backend drivers discard their tracking
        bitmaps and any in-flight I/O, and each durable bitmap store loses
        its un-flushed journal tail — the persisted prefix is all a later
        recovery may read.
        """
        if self.crashed:
            return
        self.crashed = True
        self.crash_count += 1
        for domain in self._domains.values():
            if domain.running:
                domain.suspend()
                self._suspended_at_crash.add(domain.domain_id)
        for driver in self._drivers.values():
            driver.crashed = True
            driver.drop_tracking()
        for store in self._bitmap_stores.values():
            store.crash()

    def restart(self) -> None:
        """Bring a crashed machine back up.

        One rule for every durable bitmap: each recoverable store of an
        attached domain is recovered and registered under its own
        tracking name, so a pre-copy retry resumes incrementally (§V's
        mechanism, now crash-proof) and a backup chain's next incremental
        holds every write since its last backup.  Domains the crash
        stopped are resumed; anything suspended for other reasons stays
        down.
        """
        if not self.crashed:
            return
        self.crashed = False
        for driver in self._drivers.values():
            driver.crashed = False
        for (domain_id, name), store in self._bitmap_stores.items():
            driver = self._drivers.get(domain_id)
            if driver is None or not store.recoverable:
                continue
            recovered, _info = store.recover()
            driver.set_tracking(
                name, PersistentBitmap(recovered, store, recovered=True))
        suspended, self._suspended_at_crash = self._suspended_at_crash, set()
        for domain_id in suspended:
            domain = self._domains.get(domain_id)
            if domain is not None and not domain.running:
                domain.resume()
        waiters, self._restart_waiters = self._restart_waiters, []
        for event in waiters:
            event.succeed()

    def wait_until_up(self):
        """``yield from`` inside a process: returns once the host is up."""
        while self.crashed:
            event = self.env.event()
            self._restart_waiters.append(event)
            yield event

    def __repr__(self) -> str:
        return f"<Host {self.name!r} domains={sorted(self._domains)}>"
