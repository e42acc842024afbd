"""Unit tests for GuestMemory dirty logging."""

import numpy as np
import pytest

from repro.errors import StorageError
from repro.storage import GenerationClock
from repro.vm import GuestMemory


class TestBasics:
    def test_geometry(self):
        mem = GuestMemory(128, page_size=4096)
        assert mem.nbytes == 128 * 4096
        assert not mem.logging

    def test_invalid_size(self):
        with pytest.raises(StorageError):
            GuestMemory(0)

    def test_touch_out_of_range(self):
        mem = GuestMemory(10)
        with pytest.raises(StorageError):
            mem.touch(np.array([10]))


class TestDirtyLogging:
    def test_touch_without_logging_not_recorded(self):
        mem = GuestMemory(10)
        mem.touch(np.array([1, 2]))
        assert mem.dirty_count() == 0

    def test_logging_records_touches(self):
        mem = GuestMemory(10)
        mem.start_logging()
        mem.touch(np.array([1, 2]))
        mem.touch(np.arange(5, 8))
        assert mem.dirty_count() == 5
        assert mem.dirty_indices().tolist() == [1, 2, 5, 6, 7]

    def test_swap_dirty_resets_round(self):
        mem = GuestMemory(10)
        mem.start_logging()
        mem.touch(np.array([1]))
        taken = mem.swap_dirty()
        assert taken.dirty_indices().tolist() == [1]
        assert mem.dirty_count() == 0
        mem.touch(np.array([2]))
        assert mem.dirty_indices().tolist() == [2]

    def test_stop_logging_returns_final(self):
        mem = GuestMemory(10)
        mem.start_logging()
        mem.touch(np.array([3]))
        final = mem.stop_logging()
        assert final.dirty_indices().tolist() == [3]
        assert not mem.logging

    def test_swap_without_logging_rejected(self):
        mem = GuestMemory(10)
        with pytest.raises(StorageError):
            mem.swap_dirty()
        with pytest.raises(StorageError):
            mem.stop_logging()

    def test_empty_touch_is_noop(self):
        mem = GuestMemory(10)
        mem.start_logging()
        mem.touch(np.empty(0, dtype=np.int64))
        assert mem.dirty_count() == 0


class TestTransfer:
    def test_export_import_roundtrip(self):
        clock = GenerationClock()
        src = GuestMemory(20, clock=clock)
        dst = GuestMemory(20, clock=clock)
        src.touch(np.arange(20))
        stamps = src.export_pages(np.arange(20))
        dst.import_pages(np.arange(20), stamps)
        assert dst.identical_to(src)

    def test_identical_requires_same_geometry(self):
        assert not GuestMemory(10).identical_to(GuestMemory(11))

    def test_import_shape_mismatch(self):
        mem = GuestMemory(10)
        with pytest.raises(StorageError):
            mem.import_pages(np.arange(2), np.zeros(3, dtype=np.uint64))

    def test_touches_after_import_diverge(self):
        clock = GenerationClock()
        src = GuestMemory(5, clock=clock)
        dst = GuestMemory(5, clock=clock)
        src.touch(np.array([0]))
        dst.import_pages(np.array([0]), src.export_pages(np.array([0])))
        assert dst.identical_to(src)
        src.touch(np.array([0]))
        assert not dst.identical_to(src)

    def test_snapshot_is_copy(self):
        mem = GuestMemory(5)
        snap = mem.snapshot()
        mem.touch(np.array([0]))
        assert snap[0] == 0
