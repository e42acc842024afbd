"""Durable bitmap store: snapshots + write-ahead journal + crash recovery.

The store models what a real implementation keeps on the *source host's
local disk* so that the pre-copy block-bitmap outlives a host crash — the
piece §V's "resume the virtual machine on the source machine and retry
later" silently assumes.  It is the dirty-tracking-as-checkpoint pattern
of QEMU's persistent dirty bitmaps (``dirty-bitmaps: on``): an in-use
bitmap that was not cleanly saved recovers *conservatively*.

Stable storage is simulated by :class:`StableStorage`: named areas are
written atomically (the model of write-temp-then-rename), while journal
appends sit in a *staged* tail until flushed.  A host crash discards
exactly the staged tail — durable areas and flushed records survive.

The recovery invariant — the one the property tests hammer — is:

    **recovered ⊇ true-pending**, always.

Three mechanisms uphold it under every sync policy:

* SET records for not-yet-durable batches are covered by eagerly-durable
  **guard regions**: before a set batch is merely staged, the coarse
  region bits covering it are written durably.  Losing the tail then
  over-marks whole regions, never under-marks.
* CLEAR records (a chunk confirmed written at the destination) may be
  lost freely — a lost clear leaves the block pending, which only costs a
  retransfer.
* A damaged snapshot or a hole in the middle of the durable journal
  (disk corruption, not a torn tail) degrades to all-dirty.

Sync policies (``SYNC_POLICIES``):

* ``"wal"`` — every record is flushed as appended; recovery is exact.
* ``"batch"`` — flush every ``flush_every`` records; between flushes the
  guard regions cover the staged sets.
* ``"snapshot"`` — never flush between snapshots; recovery is snapshot +
  guard regions only (cheapest writes, coarsest recovery).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..bitmap import BlockBitmap, make_bitmap
from ..bitmap.flat import FlatBitmap
from ..bitmap.layered import DEFAULT_LEAF_BITS
from ..errors import PersistError
from .format import (
    OP_CLEAR,
    OP_SET,
    decode_record,
    decode_snapshot,
    encode_record,
    encode_snapshot,
)

#: Valid write-back policies, laziest last.
SYNC_POLICIES = ("wal", "batch", "snapshot")

#: Area names inside one store's stable storage.
AREA_SNAPSHOT = "snapshot"
AREA_GUARD = "guard"


class StableStorage:
    """Crash-consistent storage for one store: named areas + a journal.

    * :meth:`write_area` is atomic and immediately durable (the
      write-then-rename model) — used for snapshots and the guard map.
    * :meth:`append_journal` only *stages* a record; :meth:`flush_journal`
      makes the staged tail durable.  :meth:`crash` discards exactly the
      staged tail, which is the only state a crash can lose.
    """

    def __init__(self) -> None:
        self._areas: dict[str, bytes] = {}
        self._journal: list[bytes] = []
        self._durable_len = 0
        #: Write-amplification counters (observability for the benchmark).
        self.area_writes = 0
        self.journal_flushes = 0
        #: Staged records dropped by crashes since the last recovery.
        self.lost_records = 0

    # -- areas (atomic, durable) ----------------------------------------

    def write_area(self, name: str, data: bytes) -> None:
        self._areas[name] = bytes(data)
        self.area_writes += 1

    def read_area(self, name: str) -> Optional[bytes]:
        return self._areas.get(name)

    # -- journal (staged until flushed) ---------------------------------

    def append_journal(self, record: bytes) -> None:
        self._journal.append(bytes(record))

    def flush_journal(self) -> None:
        if self._durable_len != len(self._journal):
            self._durable_len = len(self._journal)
            self.journal_flushes += 1

    def truncate_journal(self) -> None:
        self._journal.clear()
        self._durable_len = 0

    def durable_records(self) -> list[bytes]:
        return self._journal[:self._durable_len]

    @property
    def staged_count(self) -> int:
        return len(self._journal) - self._durable_len

    @property
    def record_count(self) -> int:
        return len(self._journal)

    def crash(self) -> None:
        """Lose the un-flushed journal tail; durable state survives."""
        self.lost_records += self.staged_count
        del self._journal[self._durable_len:]

    def corrupt_area(self, name: str, offset: int) -> None:
        """Flip one byte of an area (test hook for damage injection)."""
        data = bytearray(self._areas[name])
        data[offset % len(data)] ^= 0xFF
        self._areas[name] = bytes(data)

    def corrupt_record(self, pos: int, offset: int = 6) -> None:
        """Flip one byte of a journal record (test hook)."""
        data = bytearray(self._journal[pos])
        data[offset % len(data)] ^= 0xFF
        self._journal[pos] = bytes(data)


@dataclass
class RecoveryInfo:
    """What a :meth:`BitmapStore.recover` actually reconstructed."""

    #: ``"journal"`` (snapshot + intact replay), ``"corrupt-snapshot"`` or
    #: ``"corrupt-journal"`` (conservative all-dirty).
    source: str = "journal"
    #: True when no information was lost: the recovered set equals the
    #: true pending set at the crash (always the case under ``"wal"``).
    exact: bool = True
    #: Journal sequence the recovered snapshot carried.
    snapshot_seq: int = 0
    #: Intact journal records replayed on top of the snapshot.
    replayed_records: int = 0
    #: Guard regions unioned in (each may over-mark up to a whole region).
    guard_regions: int = 0
    #: Staged journal records the crash destroyed.  Lost SETs are covered
    #: by guard regions; lost CLEARs just leave their blocks pending —
    #: either way the recovery is no longer exact.
    lost_records: int = 0
    #: Blocks marked pending purely by guard regions / conservative
    #: fallback — the over-marking cost of the lazy sync policy.
    overmarked_blocks: int = 0
    #: Pending blocks in the recovered bitmap.
    pending_blocks: int = 0


@dataclass
class StoreStats:
    """Lifetime write-side counters of one store."""

    records_appended: int = 0
    set_records: int = 0
    clear_records: int = 0
    snapshots_written: int = 0
    sessions_opened: int = 0
    recoveries: int = 0
    crashes: int = 0
    journal_flushes: int = 0
    area_writes: int = 0
    extra: dict = field(default_factory=dict)


class BitmapStore:
    """One domain's durable block-bitmap: journal, snapshots, recovery.

    Lifecycle::

        store.open_session(initial_indices)   # migration starts
        store.record_set(...)                 # guest writes (via wrapper)
        store.record_clear(...)               # chunks confirmed at dest
        store.complete()                      # migration committed: clean

    A simulated host crash calls :meth:`crash` (losing the staged journal
    tail and the in-memory mirror); the restarted host checks
    :attr:`recoverable` and calls :meth:`recover`, which rebuilds a
    conservative superset of the pending set and re-baselines the store so
    journaling continues from the recovered state.

    All operations are synchronous (zero simulated time): real stores pay
    I/O latency for durability, but charging it here would perturb the
    bit-identical equivalence gate; the *write-amplification* counters in
    :meth:`stats` expose the cost instead.
    """

    def __init__(self, nbits: int, policy: str = "wal",
                 flush_every: int = 64, region_bits: int = 4096,
                 snapshot_every: int = 4096,
                 storage: Optional[StableStorage] = None) -> None:
        if nbits <= 0:
            raise PersistError(f"store must cover >= 1 block, got {nbits}")
        if policy not in SYNC_POLICIES:
            raise PersistError(f"unknown sync policy {policy!r}; "
                               f"valid: {SYNC_POLICIES}")
        if flush_every < 1:
            raise PersistError(f"flush_every must be >= 1, got {flush_every}")
        if region_bits < 1:
            raise PersistError(f"region_bits must be >= 1, got {region_bits}")
        if snapshot_every < 1:
            raise PersistError(
                f"snapshot_every must be >= 1, got {snapshot_every}")
        self.nbits = int(nbits)
        self.policy = policy
        self.flush_every = int(flush_every)
        self.region_bits = int(region_bits)
        self.snapshot_every = int(snapshot_every)
        self.storage = storage if storage is not None else StableStorage()
        self.nregions = (self.nbits + self.region_bits - 1) // self.region_bits
        #: In-memory mirror of the pending set; None = no open session.
        self._mirror: Optional[FlatBitmap] = None
        #: Next journal record sequence number.
        self._seq = 0
        #: In-memory guard regions (durable copy lives in AREA_GUARD).
        self._guard = np.zeros(self.nregions, dtype=bool)
        self.stats = StoreStats()
        #: Info of the most recent :meth:`recover` (None before any).
        self.last_recovery: Optional[RecoveryInfo] = None

    # -- session lifecycle ----------------------------------------------

    @property
    def is_open(self) -> bool:
        return self._mirror is not None

    def open_session(self,
                     initial_indices: Optional[np.ndarray] = None) -> None:
        """Begin a tracked session with the given initial pending set.

        ``None`` marks the *whole device* pending — the primary-migration
        case where nothing has been confirmed at the destination yet.  An
        index array (possibly empty) marks exactly those blocks, e.g. an
        IM dirty set or a backup chain starting with nothing pending.
        """
        mirror = FlatBitmap(self.nbits)
        if initial_indices is None:
            mirror.set_all()
        else:
            indices = np.asarray(initial_indices, dtype=np.int64)
            if indices.size:
                mirror.set_many(indices)
        self._mirror = mirror
        self._seq = 0
        self.stats.sessions_opened += 1
        self._write_snapshot(clean=False)

    def complete(self) -> None:
        """Orderly close: the session's pending set is fully resolved.

        Writes a clean empty snapshot (QEMU: clearing the "in use" flag)
        so a later crash finds nothing to recover.
        """
        self._require_open()
        self._mirror = FlatBitmap(self.nbits)
        self._seq = 0
        self._write_snapshot(clean=True)
        self._mirror = None

    def _require_open(self) -> FlatBitmap:
        if self._mirror is None:
            raise PersistError("no open session on this bitmap store")
        return self._mirror

    # -- journaling ------------------------------------------------------

    def record_set(self, indices: np.ndarray) -> None:
        """Journal a dirty batch (guest writes).  Deduplicated against the
        mirror: already-pending blocks cost nothing."""
        mirror = self._require_open()
        indices = np.asarray(indices, dtype=np.int64)
        fresh = indices[~mirror.test_many(indices)]
        if fresh.size == 0:
            return
        mirror._set_many_unchecked(fresh)
        if self.policy != "wal":
            self._raise_guard(fresh)
        self._append(OP_SET, fresh)
        self.stats.set_records += 1

    def record_clear(self, indices: np.ndarray) -> None:
        """Journal a clean batch (chunk confirmed written at destination).

        Clears are never guarded: losing one leaves the block pending,
        which is safe (the retry re-sends it).
        """
        mirror = self._require_open()
        indices = np.asarray(indices, dtype=np.int64)
        pending = indices[mirror.test_many(indices)]
        if pending.size == 0:
            return
        mirror.clear_many(pending)
        self._append(OP_CLEAR, pending)
        self.stats.clear_records += 1

    def _append(self, op: int, indices: np.ndarray) -> None:
        self.storage.append_journal(encode_record(self._seq, op, indices))
        self._seq += 1
        self.stats.records_appended += 1
        if self.policy == "wal":
            self.storage.flush_journal()
        elif (self.policy == "batch"
              and self.storage.staged_count >= self.flush_every):
            self.flush()
        if self.storage.record_count >= self.snapshot_every:
            self.snapshot()

    def flush(self) -> None:
        """Make the staged journal tail durable and drop the guard bits it
        was covering."""
        self._require_open()
        self.storage.flush_journal()
        self._lower_guard()

    def snapshot(self) -> None:
        """Compact: write the mirror as a new snapshot, truncate the
        journal, drop all guard bits."""
        self._require_open()
        self._seq = 0
        self._write_snapshot(clean=False)

    def _write_snapshot(self, clean: bool) -> None:
        mirror = self._require_open()
        self.storage.write_area(
            AREA_SNAPSHOT,
            encode_snapshot(mirror.to_bool_array(), seq=self._seq,
                            clean=clean))
        self.storage.truncate_journal()
        self._lower_guard()
        self.stats.snapshots_written += 1

    # -- guard regions ---------------------------------------------------

    def _raise_guard(self, indices: np.ndarray) -> None:
        regions = np.unique(indices // self.region_bits)
        if self._guard[regions].all():
            return
        self._guard[regions] = True
        self._persist_guard()

    def _lower_guard(self) -> None:
        if self._guard.any():
            self._guard[:] = False
            self._persist_guard()

    def _persist_guard(self) -> None:
        self.storage.write_area(AREA_GUARD,
                                encode_snapshot(self._guard, seq=0,
                                                granularity=self.region_bits))

    # -- crash & recovery ------------------------------------------------

    def crash(self) -> None:
        """Simulate the host dying: the staged journal tail and every
        in-memory structure are lost; durable areas survive."""
        self.storage.crash()
        self._mirror = None
        self._seq = 0
        self._guard[:] = False
        self.stats.crashes += 1

    @property
    def recoverable(self) -> bool:
        """True when a crashed session left state worth recovering: a
        persisted snapshot that is either not clean or unreadable."""
        raw = self.storage.read_area(AREA_SNAPSHOT)
        if raw is None:
            return False
        try:
            _bits, _seq, clean, _gran = decode_snapshot(raw)
        except PersistError:
            return True  # corrupt: recover conservatively
        return not clean

    def recover(self, layout: str = "flat",
                leaf_bits: int = DEFAULT_LEAF_BITS
                ) -> tuple[BlockBitmap, RecoveryInfo]:
        """Rebuild the pending set after a crash; returns
        ``(bitmap, info)`` with ``bitmap ⊇ true-pending`` guaranteed.

        Verified snapshot, plus the intact prefix of the durable journal,
        plus the union of persisted guard regions.  Any deeper damage
        (unreadable snapshot, a hole mid-journal) degrades to all-dirty.
        The store is re-baselined from the recovered state, so the
        returned bitmap can keep journaling through a wrapper.
        """
        raw = self.storage.read_area(AREA_SNAPSHOT)
        if raw is None:
            raise PersistError("nothing persisted: no snapshot area")
        info = RecoveryInfo()
        bits: Optional[np.ndarray] = None
        snap_seq = 0
        try:
            bits, snap_seq, clean, _gran = decode_snapshot(raw)
            if bits.size != self.nbits:
                raise PersistError(
                    f"snapshot covers {bits.size} bits, store {self.nbits}")
        except PersistError:
            bits = None
        if bits is None:
            bits = np.ones(self.nbits, dtype=bool)
            info.source = "corrupt-snapshot"
            info.exact = False
        else:
            if clean:
                raise PersistError(
                    "store is clean: the last session completed; nothing "
                    "to recover")
            info.snapshot_seq = snap_seq
            expected = snap_seq
            records = self.storage.durable_records()
            damaged = False
            for pos, raw_rec in enumerate(records):
                try:
                    seq, op, indices = decode_record(raw_rec)
                except PersistError:
                    damaged = True
                    break
                if seq != expected:
                    damaged = True
                    break
                if op == OP_SET:
                    bits[indices] = True
                else:
                    bits[indices] = False
                expected += 1
                info.replayed_records += 1
            if damaged:
                # A hole mid-journal is disk corruption, not a torn tail:
                # the coverage of everything after it is unknown, so only
                # all-dirty is safe.
                bits = np.ones(self.nbits, dtype=bool)
                info.source = "corrupt-journal"
                info.exact = False

        before = int(bits.sum())
        guard_regions = self._read_guard()
        if guard_regions.size and info.source == "journal":
            for region in guard_regions.tolist():
                start = region * self.region_bits
                bits[start:min(start + self.region_bits, self.nbits)] = True
            info.guard_regions = int(guard_regions.size)
            if info.guard_regions:
                info.exact = False
        info.overmarked_blocks = int(bits.sum()) - before
        if info.source != "journal":
            info.overmarked_blocks = int(bits.sum())
        info.pending_blocks = int(bits.sum())
        info.lost_records = self.storage.lost_records
        if info.lost_records:
            info.exact = False
        self.storage.lost_records = 0

        # Re-baseline: the recovered state becomes the new durable
        # snapshot, and the mirror resumes from it so wrapped bitmaps can
        # keep journaling against this store.
        mirror = FlatBitmap(self.nbits)
        mirror._set_many_unchecked(np.flatnonzero(bits))
        self._mirror = mirror
        self._seq = 0
        self._guard[:] = False
        self._write_snapshot(clean=False)

        recovered = make_bitmap(self.nbits, layout, leaf_bits=leaf_bits)
        recovered.set_many(np.flatnonzero(bits))
        self.stats.recoveries += 1
        self.last_recovery = info
        return recovered, info

    def _read_guard(self) -> np.ndarray:
        raw = self.storage.read_area(AREA_GUARD)
        if raw is None:
            return np.empty(0, dtype=np.int64)
        try:
            guard_bits, _seq, _clean, _gran = decode_snapshot(raw)
        except PersistError:
            return np.arange(self.nregions, dtype=np.int64)
        if guard_bits.size != self.nregions:
            return np.arange(self.nregions, dtype=np.int64)
        return np.flatnonzero(guard_bits)

    # -- introspection ---------------------------------------------------

    def pending_indices(self) -> np.ndarray:
        return self._require_open().dirty_indices().copy()

    def collect_stats(self) -> StoreStats:
        """Stats with the storage-level counters folded in."""
        self.stats.journal_flushes = self.storage.journal_flushes
        self.stats.area_writes = self.storage.area_writes
        return self.stats

    def __repr__(self) -> str:
        state = ("open" if self.is_open
                 else "recoverable" if self.recoverable else "closed")
        return (f"<BitmapStore {self.nbits} bits policy={self.policy} "
                f"{state}>")
