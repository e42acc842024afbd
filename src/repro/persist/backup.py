"""Bitmap-driven backup chains: one full backup + incremental deltas.

The block-bitmap that powers §V's incremental migration doubles as an
incremental-*backup* engine (the tp-qemu
``blockdev_inc_backup_with_migration`` scenario): a durable tracking
bitmap records dirty-since-last-backup, a **full** backup captures the
whole device and clears it, and each **incremental** captures exactly the
dirty set and clears it again.  Restoring replays the chain in order.

The tracking bitmap is a :class:`~repro.persist.tracked.PersistentBitmap`
registered under ``backup:<domain-id>`` and journaling into the store of
that name on the domain's host.  The chain owns neither its recovery nor
its carrying: the host recovers every durable tracking bitmap after a
crash, and every migration scheme carries every bitmap but the pre-copy
one at switch-over, store and all, so the chain keeps accumulating deltas
across both.  A backup is refused while a migration still synchronizes
the disk (post-copy, an on-demand fetch, a delta replay): blocks not yet
delivered would be captured with no content.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..bitmap import FlatBitmap
from ..errors import PersistError
from ..storage.vbd import VirtualBlockDevice
from .store import BitmapStore
from .tracked import PersistentBitmap

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..vm.domain import Domain


@dataclass
class BackupRecord:
    """One link of a backup chain."""

    kind: str                      # "full" | "incremental"
    seq: int
    indices: np.ndarray
    stamps: np.ndarray
    data: Optional[np.ndarray]
    taken_at: float
    extra: dict = field(default_factory=dict)

    @property
    def nblocks(self) -> int:
        return int(self.indices.size)

    @property
    def nbytes(self) -> int:
        """Payload bytes this link would occupy (stamps model the data)."""
        return int(self.indices.size) * self.block_size

    block_size: int = 0


class BackupChain:
    """Full + incremental backups of one domain's disk, bitmap-driven.

    Usage::

        chain = BackupChain(domain)
        chain.full_backup()
        ...guest writes...
        chain.incremental_backup()
        restored = chain.restore()      # fresh VBD == the disk at last link

    The chain object itself models the *backup target* (e.g. an NFS
    share): records survive host crashes; only the dirty-tracking side
    lives on — and recovers with — the host.
    """

    def __init__(self, domain: "Domain", policy: str = "wal") -> None:
        host = domain.host
        if host is None:
            raise PersistError("domain is not attached to a host")
        self.domain = domain
        vbd = host.vbd_of(domain.domain_id)
        self.nblocks = vbd.nblocks
        self.block_size = vbd.block_size
        self.records: list[BackupRecord] = []
        self._seq = 0
        #: The one store of this chain's bitmap: recovery rebuilds from it
        #: in place, and a migration moves it with the domain.
        self.store: BitmapStore = host.bitmap_store(
            domain.domain_id, self.tracking_name, nbits=self.nblocks,
            policy=policy)
        # Everything is pending until the first full backup exists.
        self.store.open_session(None)
        inner = FlatBitmap(self.nblocks)
        inner.set_all()
        self._driver().set_tracking(self.tracking_name,
                                    PersistentBitmap(inner, self.store))

    # -- plumbing --------------------------------------------------------

    @property
    def tracking_name(self) -> str:
        return f"backup:{self.domain.domain_id}"

    def _driver(self):
        host = self.domain.host
        if host is None:
            raise PersistError(
                f"domain {self.domain.name!r} is not on any host")
        return host.driver_of(self.domain.domain_id)

    def _vbd(self) -> VirtualBlockDevice:
        """The live disk, refused while a migration still fills it: a
        block not yet delivered holds no content the guest wrote."""
        driver = self._driver()
        if driver.interceptor is not None:
            raise PersistError(
                f"cannot back up {self.domain.name!r} while a migration "
                "is still synchronizing its disk: its driver intercepts "
                "guest I/O until every block is local")
        return driver.vbd

    @property
    def bitmap(self) -> PersistentBitmap:
        """The live tracking bitmap, as registered on the domain's driver."""
        return self._driver().tracking_bitmap(self.tracking_name)

    def pending_blocks(self) -> int:
        """Blocks dirtied since the last backup (next incremental's size)."""
        return self.bitmap.count()

    # -- taking backups --------------------------------------------------

    def full_backup(self) -> BackupRecord:
        """Capture every allocated block; the chain restarts from here."""
        vbd = self._vbd()
        indices = vbd.allocated_indices()
        record = self._capture("full", vbd, indices)
        # A fresh full obsoletes prior links for restore purposes, but we
        # keep them: a chain is also its own history.
        self.bitmap.reset()
        self.store.snapshot()
        return record

    def incremental_backup(self) -> BackupRecord:
        """Capture exactly the blocks dirtied since the previous backup."""
        if not any(r.kind == "full" for r in self.records):
            raise PersistError(
                "cannot take an incremental backup before the first full")
        live = self.bitmap
        indices = live.dirty_indices().copy()
        record = self._capture("incremental", self._vbd(), indices)
        if indices.size:
            live.clear_many(indices)
        self.store.snapshot()
        return record

    def _capture(self, kind: str, vbd: VirtualBlockDevice,
                 indices: np.ndarray) -> BackupRecord:
        stamps, data = vbd.export_blocks(indices)
        record = BackupRecord(kind=kind, seq=self._seq, indices=indices,
                              stamps=stamps, data=data,
                              taken_at=self.domain.env.now,
                              block_size=self.block_size)
        self._seq += 1
        self.records.append(record)
        return record

    # -- restore ---------------------------------------------------------

    def restore(self, upto: Optional[int] = None) -> VirtualBlockDevice:
        """Replay the chain into a fresh device; returns it.

        ``upto`` limits replay to records ``[0, upto]`` (point-in-time
        restore); default replays everything.  Replay starts at the most
        recent full backup at or before the cut.
        """
        cut = len(self.records) if upto is None else upto + 1
        chain = self.records[:cut]
        start = None
        for pos in range(len(chain) - 1, -1, -1):
            if chain[pos].kind == "full":
                start = pos
                break
        if start is None:
            raise PersistError("no full backup to anchor the restore")
        restored = VirtualBlockDevice(self.nblocks, self.block_size,
                                      data=chain[start].data is not None)
        for record in chain[start:]:
            if record.indices.size:
                restored.import_blocks(record.indices, record.stamps,
                                       record.data)
        return restored

    # -- accounting ------------------------------------------------------

    def total_backup_bytes(self) -> int:
        return sum(r.nblocks * self.block_size for r in self.records)

    def close(self) -> None:
        """Stop tracking and mark the store clean."""
        driver = self._driver()
        if driver.has_tracking(self.tracking_name):
            driver.stop_tracking(self.tracking_name)
        if self.store.is_open:
            self.store.complete()

    def __repr__(self) -> str:
        fulls = sum(1 for r in self.records if r.kind == "full")
        return (f"<BackupChain {self.domain.name!r}: {fulls} full + "
                f"{len(self.records) - fulls} incremental, "
                f"{self.pending_blocks()} pending>")
