"""Unit tests for StableStorage and BitmapStore: sync policies, crash and
recovery, guard regions, and the conservative-recovery invariant."""

import numpy as np
import pytest

from repro.errors import PersistError
from repro.persist import BitmapStore, StableStorage
from repro.persist.store import AREA_SNAPSHOT

NBITS = 1000


def idx(*values):
    return np.asarray(values, dtype=np.int64)


def recovered_set(store):
    bitmap, _info = store.recover()
    return set(bitmap.dirty_indices().tolist())


class TestStableStorage:
    def test_areas_are_durable_across_crash(self):
        storage = StableStorage()
        storage.write_area("a", b"hello")
        storage.crash()
        assert storage.read_area("a") == b"hello"

    def test_crash_loses_exactly_the_staged_tail(self):
        storage = StableStorage()
        storage.append_journal(b"one")
        storage.flush_journal()
        storage.append_journal(b"two")
        assert storage.staged_count == 1
        storage.crash()
        assert storage.durable_records() == [b"one"]
        assert storage.record_count == 1

    def test_flush_is_counted_only_when_it_does_work(self):
        storage = StableStorage()
        storage.append_journal(b"x")
        storage.flush_journal()
        storage.flush_journal()  # nothing staged: no extra flush
        assert storage.journal_flushes == 1

    def test_truncate_resets_everything(self):
        storage = StableStorage()
        storage.append_journal(b"x")
        storage.flush_journal()
        storage.truncate_journal()
        assert storage.record_count == 0
        assert storage.durable_records() == []


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(PersistError):
            BitmapStore(0)
        with pytest.raises(PersistError):
            BitmapStore(NBITS, policy="fsync")
        with pytest.raises(PersistError):
            BitmapStore(NBITS, flush_every=0)
        with pytest.raises(PersistError):
            BitmapStore(NBITS, region_bits=0)
        with pytest.raises(PersistError):
            BitmapStore(NBITS, snapshot_every=0)

    def test_operations_require_an_open_session(self):
        store = BitmapStore(NBITS)
        for call in (lambda: store.record_set(idx(1)),
                     lambda: store.record_clear(idx(1)),
                     store.flush, store.snapshot, store.complete,
                     store.pending_indices):
            with pytest.raises(PersistError, match="open session"):
                call()

    def test_recover_without_any_snapshot_raises(self):
        with pytest.raises(PersistError, match="nothing persisted"):
            BitmapStore(NBITS).recover()


class TestSessionLifecycle:
    def test_open_with_none_marks_everything_pending(self):
        store = BitmapStore(NBITS)
        store.open_session(None)
        assert store.pending_indices().size == NBITS

    def test_open_with_indices_marks_exactly_those(self):
        store = BitmapStore(NBITS)
        store.open_session(idx(1, 2, 3))
        assert set(store.pending_indices().tolist()) == {1, 2, 3}

    def test_complete_leaves_nothing_recoverable(self):
        store = BitmapStore(NBITS)
        store.open_session(idx(1, 2))
        store.record_set(idx(10))
        store.complete()
        assert not store.is_open
        assert not store.recoverable
        store.crash()
        with pytest.raises(PersistError, match="clean"):
            store.recover()

    def test_fresh_store_is_not_recoverable(self):
        assert not BitmapStore(NBITS).recoverable

    def test_dedup_skips_already_pending_blocks(self):
        store = BitmapStore(NBITS)
        store.open_session(idx(5))
        store.record_set(idx(5))          # no-op: already pending
        store.record_clear(idx(6))        # no-op: not pending
        assert store.stats.records_appended == 0
        store.record_set(idx(5, 6))       # only 6 is fresh
        assert store.stats.records_appended == 1


class TestWalRecovery:
    def test_recovery_is_exact(self):
        store = BitmapStore(NBITS, policy="wal")
        store.open_session(idx(1, 2, 3))
        store.record_set(idx(10, 11))
        store.record_clear(idx(2))
        store.crash()
        assert store.recoverable
        bitmap, info = store.recover()
        assert set(bitmap.dirty_indices().tolist()) == {1, 3, 10, 11}
        assert info.exact
        assert info.source == "journal"
        assert info.replayed_records == 2
        assert info.guard_regions == 0
        assert info.overmarked_blocks == 0
        assert info.pending_blocks == 4

    def test_recovered_store_keeps_journaling(self):
        store = BitmapStore(NBITS, policy="wal")
        store.open_session(idx(1))
        store.crash()
        store.recover()
        assert store.is_open
        store.record_set(idx(50))
        store.crash()
        assert recovered_set(store) == {1, 50}

    def test_layout_request_is_honoured(self):
        from repro.bitmap import LayeredBitmap

        store = BitmapStore(NBITS)
        store.open_session(idx(7))
        store.crash()
        bitmap, _ = store.recover(layout="layered", leaf_bits=64)
        assert isinstance(bitmap, LayeredBitmap)
        assert bitmap.test(7)


class TestLazyPolicies:
    def test_batch_staged_sets_covered_by_guard(self):
        store = BitmapStore(NBITS, policy="batch", flush_every=100,
                            region_bits=8)
        store.open_session(idx())
        store.record_set(idx(9))          # staged only, guard covers [8, 16)
        store.crash()                     # staged record lost
        bitmap, info = store.recover()
        got = set(bitmap.dirty_indices().tolist())
        assert got == set(range(8, 16))   # whole region, never less than {9}
        assert not info.exact
        assert info.guard_regions == 1
        assert info.overmarked_blocks == 8

    def test_batch_flush_drops_the_guard(self):
        store = BitmapStore(NBITS, policy="batch", flush_every=2,
                            region_bits=8)
        store.open_session(idx())
        store.record_set(idx(9))
        store.record_set(idx(200))        # second record triggers the flush
        store.crash()
        bitmap, info = store.recover()
        assert set(bitmap.dirty_indices().tolist()) == {9, 200}
        assert info.exact and info.guard_regions == 0

    def test_snapshot_policy_never_flushes_records(self):
        store = BitmapStore(NBITS, policy="snapshot", region_bits=8)
        store.open_session(idx())
        for i in range(20):
            store.record_set(idx(i * 8))
        assert store.storage.journal_flushes == 0
        store.crash()
        bitmap, info = store.recover()
        # Everything set since the last snapshot comes back via guards.
        assert set(idx(*range(0, 160, 8)).tolist()) <= \
            set(bitmap.dirty_indices().tolist())
        assert info.guard_regions == 20

    def test_lost_clear_leaves_block_pending(self):
        store = BitmapStore(NBITS, policy="batch", flush_every=100)
        store.open_session(idx(1, 2, 3))
        store.record_clear(idx(2))        # staged, then lost
        store.crash()
        assert recovered_set(store) >= {1, 2, 3}   # 2 is back: safe

    def test_explicit_snapshot_compacts_the_journal(self):
        store = BitmapStore(NBITS, policy="wal")
        store.open_session(idx())
        store.record_set(idx(1, 2, 3))
        store.snapshot()
        assert store.storage.record_count == 0
        store.crash()
        assert recovered_set(store) == {1, 2, 3}

    def test_auto_snapshot_bounds_the_journal(self):
        store = BitmapStore(NBITS, policy="wal", snapshot_every=4)
        store.open_session(idx())
        for i in range(10):
            store.record_set(idx(i))
        assert store.storage.record_count < 4
        assert store.stats.snapshots_written > 1


class TestDamage:
    def test_corrupt_snapshot_degrades_to_all_dirty(self):
        store = BitmapStore(NBITS)
        store.open_session(idx(1))
        store.crash()
        store.storage.corrupt_area(AREA_SNAPSHOT, offset=20)
        assert store.recoverable
        bitmap, info = store.recover()
        assert bitmap.count() == NBITS
        assert info.source == "corrupt-snapshot"
        assert not info.exact
        assert info.overmarked_blocks == NBITS

    def test_hole_mid_journal_degrades_to_all_dirty(self):
        store = BitmapStore(NBITS, policy="wal")
        store.open_session(idx())
        store.record_set(idx(1))
        store.record_set(idx(2))
        store.record_set(idx(3))
        store.crash()
        store.storage.corrupt_record(1)   # middle record damaged
        bitmap, info = store.recover()
        assert bitmap.count() == NBITS
        assert info.source == "corrupt-journal"
        assert not info.exact

    def test_wrong_sized_snapshot_is_rejected(self):
        storage = StableStorage()
        other = BitmapStore(NBITS // 2, storage=storage)
        other.open_session(idx(1))
        store = BitmapStore(NBITS, storage=storage)
        bitmap, info = store.recover()
        assert bitmap.count() == NBITS    # size mismatch -> conservative
        assert info.source == "corrupt-snapshot"


class TestAccounting:
    def test_collect_stats_folds_in_storage_counters(self):
        store = BitmapStore(NBITS, policy="wal")
        store.open_session(idx())
        store.record_set(idx(1))
        store.record_clear(idx(1))
        stats = store.collect_stats()
        assert stats.set_records == 1
        assert stats.clear_records == 1
        assert stats.records_appended == 2
        assert stats.journal_flushes == store.storage.journal_flushes
        assert stats.area_writes == store.storage.area_writes
        assert stats.sessions_opened == 1

    def test_wal_writes_more_often_than_snapshot_policy(self):
        def journal_flushes(policy):
            store = BitmapStore(NBITS, policy=policy, flush_every=16)
            store.open_session(idx())
            for i in range(64):
                store.record_set(idx(i))
            return store.collect_stats().journal_flushes

        assert journal_flushes("wal") > journal_flushes("batch") > \
            journal_flushes("snapshot")
