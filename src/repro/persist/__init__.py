"""Durable block-bitmaps: snapshot format, journaling store, recovery,
and bitmap-driven backup chains (ROADMAP item 3).

The in-memory block-bitmap is the heart of the paper's §V incremental
migration — and the one piece a host crash destroys.  This package makes
it durable: :class:`BitmapStore` persists snapshots plus a write-ahead
journal to (simulated) stable storage, :class:`PersistentBitmap` makes
any tracking bitmap journal its mutations, recovery rebuilds a
conservative superset of the pending set after a crash (never
under-marking), and :class:`BackupChain` reuses the same machinery for
full + incremental backups that survive both crashes and live migrations.
"""

from .backup import BackupChain, BackupRecord
from .format import (
    FORMAT_VERSION,
    decode_record,
    decode_snapshot,
    encode_record,
    encode_snapshot,
)
from .store import SYNC_POLICIES, BitmapStore, RecoveryInfo, StableStorage, StoreStats
from .tracked import PersistentBitmap

__all__ = [
    "BackupChain",
    "BackupRecord",
    "BitmapStore",
    "FORMAT_VERSION",
    "PersistentBitmap",
    "RecoveryInfo",
    "StableStorage",
    "StoreStats",
    "SYNC_POLICIES",
    "decode_record",
    "decode_snapshot",
    "encode_record",
    "encode_snapshot",
]
