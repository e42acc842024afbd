"""Unit tests for LayeredBitmap."""

import numpy as np
import pytest

from repro.bitmap import FlatBitmap, LayeredBitmap
from repro.errors import BitmapError


@pytest.fixture
def bm():
    return LayeredBitmap(1000, leaf_bits=100)


class TestLazyAllocation:
    def test_no_leaves_at_start(self, bm):
        assert bm.allocated_leaves == 0
        assert bm.count() == 0

    def test_set_allocates_one_leaf(self, bm):
        bm.set(150)
        assert bm.allocated_leaves == 1
        assert bm.test(150)

    def test_test_does_not_allocate(self, bm):
        assert not bm.test(500)
        assert bm.allocated_leaves == 0

    def test_clear_does_not_allocate(self, bm):
        bm.clear(500)
        assert bm.allocated_leaves == 0

    def test_reset_frees_leaves(self, bm):
        bm.set_many(np.array([1, 101, 201]))
        assert bm.allocated_leaves == 3
        bm.reset()
        assert bm.allocated_leaves == 0
        assert bm.count() == 0

    def test_memory_grows_with_dirt_spread(self):
        sparse = LayeredBitmap(100_000, leaf_bits=1000)
        sparse.set(5)
        dense = LayeredBitmap(100_000, leaf_bits=1000)
        dense.set_many(np.arange(0, 100_000, 1000))
        assert sparse.memory_nbytes() < dense.memory_nbytes()


class TestCorrectnessVsFlat:
    def test_random_ops_match_flat(self):
        rng = np.random.default_rng(42)
        layered = LayeredBitmap(503, leaf_bits=64)
        flat = FlatBitmap(503)
        for _ in range(50):
            idx = rng.integers(0, 503, size=rng.integers(1, 20))
            if rng.random() < 0.7:
                layered.set_many(idx)
                flat.set_many(idx)
            else:
                layered.clear_many(idx)
                flat.clear_many(idx)
        assert np.array_equal(layered.to_bool_array(), flat.to_bool_array())
        assert layered.count() == flat.count()

    def test_set_range_spanning_leaves(self, bm):
        bm.set_range(95, 10)  # crosses the 100-bit leaf boundary
        assert bm.dirty_indices().tolist() == list(range(95, 105))
        assert bm.allocated_leaves == 2

    def test_set_range_to_last_block(self):
        bm = LayeredBitmap(250, leaf_bits=100)  # last leaf is short (50)
        bm.set_range(240, 10)
        assert bm.count() == 10
        assert bm.test(249)

    def test_set_all(self, bm):
        bm.set_all()
        assert bm.count() == 1000

    def test_last_short_leaf_set_all(self):
        bm = LayeredBitmap(105, leaf_bits=100)
        bm.set_all()
        assert bm.count() == 105


class TestWireCost:
    def test_empty_costs_only_top_layer(self, bm):
        assert bm.serialized_nbytes() == (10 + 7) // 8

    def test_sparse_cheaper_than_flat(self):
        layered = LayeredBitmap(80_000, leaf_bits=8000)
        flat = FlatBitmap(80_000)
        for b in (layered, flat):
            b.set(42)  # single dirty block
        assert layered.serialized_nbytes() < flat.serialized_nbytes()

    def test_dense_close_to_flat(self):
        layered = LayeredBitmap(80_000, leaf_bits=8000)
        layered.set_all()
        flat = FlatBitmap(80_000)
        # All leaves dirty: layered pays flat size + top layer.
        assert layered.serialized_nbytes() == flat.serialized_nbytes() + 2


class TestWholeBitmap:
    def test_copy_independent(self, bm):
        bm.set(5)
        clone = bm.copy()
        clone.set(6)
        assert not bm.test(6)

    def test_union_with_layered(self, bm):
        other = LayeredBitmap(1000, leaf_bits=100)
        bm.set(1)
        other.set(999)
        bm.union_update(other)
        assert bm.dirty_indices().tolist() == [1, 999]

    def test_union_with_flat(self, bm):
        other = FlatBitmap(1000)
        other.set(500)
        bm.union_update(other)
        assert bm.test(500)

    def test_union_size_mismatch(self, bm):
        with pytest.raises(BitmapError):
            bm.union_update(FlatBitmap(999))

    def test_union_mismatched_leaf_size(self, bm):
        other = LayeredBitmap(1000, leaf_bits=64)
        other.set(3)
        bm.union_update(other)
        assert bm.test(3)

    def test_bad_leaf_bits(self):
        with pytest.raises(BitmapError):
            LayeredBitmap(100, leaf_bits=0)
