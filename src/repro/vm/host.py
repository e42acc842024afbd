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
from ..storage.blkback import BackendDriver
from ..storage.disk import PhysicalDisk
from ..storage.vbd import GenerationClock, VirtualBlockDevice
from ..units import BLOCK_SIZE, MiB
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
        #: ``(domain_id, purpose)`` — purpose ``"precopy"`` holds the
        #: migration tracking bitmap, ``"backup"`` a backup chain's.
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
        purpose: str = "precopy",
        nbits: Optional[int] = None,
        policy: str = "wal",
        flush_every: int = 64,
        region_bits: int = 4096,
        snapshot_every: int = 4096,
    ) -> BitmapStore:
        """The durable bitmap store for ``(domain_id, purpose)`` on this
        host's stable storage, created on first use.

        An existing store is returned as-is (its policy knobs are fixed at
        creation): the store *is* the persisted state, so a restarted host
        finds the pre-crash instance here and recovers from it.
        """
        key = (domain_id, purpose)
        store = self._bitmap_stores.get(key)
        if store is None:
            if nbits is None:
                nbits = self.vbd_of(domain_id).nblocks
            store = BitmapStore(nbits, policy=policy,
                                flush_every=flush_every,
                                region_bits=region_bits,
                                snapshot_every=snapshot_every)
            self._bitmap_stores[key] = store
        return store

    def has_recoverable_bitmap(self, domain_id: int,
                               purpose: str = "precopy") -> bool:
        store = self._bitmap_stores.get((domain_id, purpose))
        return store is not None and store.recoverable

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

        Stores with recoverable pre-copy sessions are recovered into fresh
        tracking bitmaps (registered under the pre-copy tracking name, so
        a retry finds a *surviving* bitmap and resumes incrementally —
        §V's mechanism, now crash-proof).  Domains the crash stopped are
        resumed; anything suspended for other reasons stays down.
        """
        if not self.crashed:
            return
        self.crashed = False
        for driver in self._drivers.values():
            driver.crashed = False
        # Late import: core imports vm, not the other way around.
        from ..core.precopy import TRACKING_NAME
        from ..persist.tracked import PersistentBitmap

        for (domain_id, purpose), store in self._bitmap_stores.items():
            if purpose != "precopy" or not store.recoverable:
                continue
            if domain_id not in self._drivers:
                continue  # domain moved away; its chain recovers itself
            recovered, _info = store.recover()
            driver = self._drivers[domain_id]
            wrapper = PersistentBitmap(recovered, store, recovered=True)
            if driver.has_tracking(TRACKING_NAME):
                driver.swap_tracking(TRACKING_NAME, wrapper)
            else:
                driver.start_tracking(TRACKING_NAME, wrapper)
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


def make_testbed(
    env: "Environment",
    disk_read_bw: float = 70 * MiB,
    disk_write_bw: float = 60 * MiB,
    seek_time: float = 0.5e-3,
) -> tuple[Host, Host, GenerationClock]:
    """Two identically configured machines sharing one generation clock.

    Mirrors the paper's experimental environment: two Core 2 Duo machines
    with SATA2 disks on a Gigabit LAN (the LAN itself is built separately
    via :func:`repro.net.channel.channel_pair`).
    """
    clock = GenerationClock()
    src = Host(env, "source",
               PhysicalDisk(env, disk_read_bw, disk_write_bw, seek_time), clock)
    dst = Host(env, "destination",
               PhysicalDisk(env, disk_read_bw, disk_write_bw, seek_time), clock)
    return src, dst, clock
