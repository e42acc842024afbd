"""Unit tests for FlatBitmap."""

import numpy as np
import pytest

from repro.bitmap import FlatBitmap
from repro.errors import BitmapError


class TestBasics:
    def test_starts_clean(self):
        bm = FlatBitmap(100)
        assert bm.count() == 0
        assert not bm.any()

    def test_set_test_clear(self):
        bm = FlatBitmap(100)
        bm.set(7)
        assert bm.test(7)
        assert bm.count() == 1
        bm.clear(7)
        assert not bm.test(7)

    def test_setitem_getitem(self):
        bm = FlatBitmap(10)
        bm[3] = True
        assert bm[3]
        bm[3] = False
        assert not bm[3]

    def test_zero_size_rejected(self):
        with pytest.raises(BitmapError):
            FlatBitmap(0)

    def test_out_of_range_rejected(self):
        bm = FlatBitmap(10)
        with pytest.raises(BitmapError):
            bm.set(10)
        with pytest.raises(BitmapError):
            bm.test(-1)

    def test_len(self):
        assert len(FlatBitmap(42)) == 42


class TestBulk:
    def test_set_many(self):
        bm = FlatBitmap(100)
        bm.set_many(np.array([1, 5, 99]))
        assert bm.dirty_indices().tolist() == [1, 5, 99]

    def test_set_many_out_of_range(self):
        bm = FlatBitmap(10)
        with pytest.raises(BitmapError):
            bm.set_many(np.array([5, 10]))

    def test_set_range(self):
        bm = FlatBitmap(100)
        bm.set_range(10, 5)
        assert bm.dirty_indices().tolist() == [10, 11, 12, 13, 14]

    def test_set_range_empty(self):
        bm = FlatBitmap(100)
        bm.set_range(10, 0)
        assert bm.count() == 0

    def test_set_range_beyond_end_rejected(self):
        bm = FlatBitmap(10)
        with pytest.raises(BitmapError):
            bm.set_range(8, 3)

    def test_clear_many(self):
        bm = FlatBitmap(10)
        bm.set_all()
        bm.clear_many(np.array([0, 9]))
        assert bm.count() == 8

    def test_set_all_and_reset(self):
        bm = FlatBitmap(50)
        bm.set_all()
        assert bm.count() == 50
        bm.reset()
        assert bm.count() == 0


class TestWholeBitmap:
    def test_copy_is_independent(self):
        bm = FlatBitmap(10)
        bm.set(1)
        clone = bm.copy()
        clone.set(2)
        assert not bm.test(2)
        assert clone.test(1)

    def test_union_update(self):
        a, b = FlatBitmap(10), FlatBitmap(10)
        a.set(1)
        b.set(2)
        a.union_update(b)
        assert a.dirty_indices().tolist() == [1, 2]
        assert b.count() == 1  # other unchanged

    def test_union_size_mismatch(self):
        with pytest.raises(BitmapError):
            FlatBitmap(10).union_update(FlatBitmap(11))

    def test_serialized_nbytes_is_packed_size(self):
        # Paper: 4KiB-granularity bitmap for 32 GiB = 1 MiB.
        nblocks_32gib = 32 * 1024 * 1024 // 4
        assert FlatBitmap(nblocks_32gib).serialized_nbytes() == 1024 * 1024

    def test_serialized_rounds_up(self):
        assert FlatBitmap(9).serialized_nbytes() == 2

    def test_to_bool_array_is_copy(self):
        bm = FlatBitmap(5)
        arr = bm.to_bool_array()
        arr[0] = True
        assert not bm.test(0)

    def test_iter_dirty(self):
        bm = FlatBitmap(10)
        bm.set(4)
        bm.set(2)
        assert list(bm.iter_dirty()) == [2, 4]
