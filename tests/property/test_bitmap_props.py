"""Property-based tests: flat and layered bitmaps are observationally equal,
and bitmap algebra obeys its invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.bitmap import FlatBitmap, LayeredBitmap, granularity_cost
from repro.units import KiB

NBITS = 257  # deliberately not a multiple of any leaf size


@st.composite
def operations(draw):
    """A random sequence of bitmap operations."""
    ops = []
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(
            ["set", "clear", "set_many", "clear_many", "set_range",
             "reset", "set_all"]))
        if kind in ("set", "clear"):
            ops.append((kind, draw(st.integers(0, NBITS - 1))))
        elif kind in ("set_many", "clear_many"):
            idx = draw(st.lists(st.integers(0, NBITS - 1), max_size=20))
            ops.append((kind, np.array(idx, dtype=np.int64)))
        elif kind == "set_range":
            start = draw(st.integers(0, NBITS - 1))
            count = draw(st.integers(0, NBITS - start))
            ops.append((kind, (start, count)))
        else:
            ops.append((kind, None))
    return ops


def apply_ops(bitmap, ops):
    for kind, arg in ops:
        if kind in ("set", "clear"):
            getattr(bitmap, kind)(arg)
        elif kind in ("set_many", "clear_many"):
            getattr(bitmap, kind)(arg)
        elif kind == "set_range":
            bitmap.set_range(*arg)
        else:
            getattr(bitmap, kind)()


class TestLayeredEquivalence:
    @given(operations(), st.sampled_from([16, 64, 100, 257, 1000]))
    @settings(max_examples=80)
    def test_layered_matches_flat(self, ops, leaf_bits):
        flat = FlatBitmap(NBITS)
        layered = LayeredBitmap(NBITS, leaf_bits=leaf_bits)
        apply_ops(flat, ops)
        apply_ops(layered, ops)
        assert np.array_equal(flat.to_bool_array(), layered.to_bool_array())
        assert flat.count() == layered.count()
        assert np.array_equal(flat.dirty_indices(), layered.dirty_indices())

    @given(operations())
    @settings(max_examples=40)
    def test_copy_preserves_and_isolates(self, ops):
        original = LayeredBitmap(NBITS, leaf_bits=64)
        apply_ops(original, ops)
        clone = original.copy()
        assert np.array_equal(original.to_bool_array(), clone.to_bool_array())
        clone.set_all()
        original_count = original.count()
        assert original_count <= NBITS  # untouched by the clone mutation
        assert clone.count() == NBITS


class TestAlgebra:
    @given(operations(), operations())
    @settings(max_examples=50)
    def test_union_is_elementwise_or(self, ops_a, ops_b):
        a, b = FlatBitmap(NBITS), FlatBitmap(NBITS)
        apply_ops(a, ops_a)
        apply_ops(b, ops_b)
        expected = a.to_bool_array() | b.to_bool_array()
        a.union_update(b)
        assert np.array_equal(a.to_bool_array(), expected)

    @given(operations())
    @settings(max_examples=50)
    def test_count_equals_dirty_indices_length(self, ops):
        bm = LayeredBitmap(NBITS, leaf_bits=50)
        apply_ops(bm, ops)
        assert bm.count() == bm.dirty_indices().size

    @given(operations())
    @settings(max_examples=50)
    def test_layered_wire_size_never_exceeds_flat_plus_top(self, ops):
        layered = LayeredBitmap(NBITS, leaf_bits=64)
        apply_ops(layered, ops)
        flat_size = FlatBitmap(NBITS).serialized_nbytes()
        top_size = (layered._nleaves + 7) // 8
        assert layered.serialized_nbytes() <= flat_size + top_size


class TestWordOps:
    """The word-view merges (union/difference/intersection) must behave
    exactly like elementwise boolean algebra, keep the cached count and
    ``dirty_indices`` coherent, and never disturb the padded backing."""

    @given(operations(), operations(),
           st.lists(st.sampled_from(["union_update", "difference_update",
                                     "intersection_update"]), max_size=4))
    @settings(max_examples=60)
    def test_merge_sequence_matches_elementwise(self, ops_a, ops_b, merges):
        a, b = FlatBitmap(NBITS), FlatBitmap(NBITS)
        apply_ops(a, ops_a)
        apply_ops(b, ops_b)
        expected = a.to_bool_array()
        other = b.to_bool_array()
        for merge in merges:
            a.count(), a.dirty_indices()  # prime the caches
            getattr(a, merge)(b)
            if merge == "union_update":
                expected = expected | other
            elif merge == "difference_update":
                expected = expected & ~other
            else:
                expected = expected & other
            # The satellite invariant: cached dirty_indices always equals
            # a fresh scan of the live bits after any vectorized mutation.
            assert np.array_equal(a.dirty_indices(),
                                  np.flatnonzero(a._bits))
            assert np.array_equal(a.to_bool_array(), expected)
            assert a.count() == int(expected.sum())

    @given(operations())
    @settings(max_examples=60)
    def test_dirty_indices_matches_flatnonzero_after_every_op(self, ops):
        bm = FlatBitmap(NBITS)
        for op in ops:
            apply_ops(bm, [op])
            assert np.array_equal(bm.dirty_indices(),
                                  np.flatnonzero(bm._bits))
            assert bm.count() == int(bm._bits.sum())

    @given(operations(), operations())
    @settings(max_examples=40)
    def test_flat_merges_match_layered_defaults(self, ops_a, ops_b):
        fa, fb = FlatBitmap(NBITS), FlatBitmap(NBITS)
        la, lb = (LayeredBitmap(NBITS, leaf_bits=64),
                  LayeredBitmap(NBITS, leaf_bits=64))
        for bm in (fa, la):
            apply_ops(bm, ops_a)
        for bm in (fb, lb):
            apply_ops(bm, ops_b)
        fa.difference_update(fb)
        la.difference_update(lb)
        assert np.array_equal(fa.to_bool_array(), la.to_bool_array())
        fa.intersection_update(fb)
        la.intersection_update(lb)
        assert np.array_equal(fa.to_bool_array(), la.to_bool_array())

    @given(operations(), operations())
    @settings(max_examples=40)
    def test_padding_bytes_stay_zero(self, ops_a, ops_b):
        a, b = FlatBitmap(NBITS), FlatBitmap(NBITS)
        apply_ops(a, ops_a)
        apply_ops(b, ops_b)
        a.union_update(b)
        a.difference_update(b)
        a.intersection_update(b)
        padding = a._words.view(bool)[NBITS:]
        assert not padding.any()

    @given(st.lists(st.integers(0, NBITS - 1), max_size=30),
           st.lists(st.integers(0, NBITS - 1), max_size=30))
    @settings(max_examples=60)
    def test_union_indices_matches_union1d(self, first, second):
        from repro.bitmap import union_indices
        a = np.array(first, dtype=np.int64)
        b = np.array(second, dtype=np.int64)
        assert np.array_equal(union_indices(NBITS, a, b),
                              np.union1d(a, b))


class TestGranularityProperties:
    @given(st.lists(
        st.tuples(st.integers(0, 900_000), st.integers(1, 60_000)),
        max_size=15))
    @settings(max_examples=50)
    def test_amplification_at_least_one(self, raw_writes):
        disk = 1_000_000
        writes = [(o, min(l, disk - o)) for o, l in raw_writes if o < disk]
        writes = [(o, l) for o, l in writes if l > 0]
        cost = granularity_cost(writes, disk, 4 * KiB)
        assert cost.amplification >= 1.0 - 1e-9

    @given(st.lists(
        st.tuples(st.integers(0, 900_000), st.integers(1, 60_000)),
        max_size=15))
    @settings(max_examples=50)
    def test_finer_granularity_smaller_or_equal_dirty_bytes(self, raw_writes):
        disk = 1_000_000
        writes = [(o, min(l, disk - o)) for o, l in raw_writes if o < disk]
        writes = [(o, l) for o, l in writes if l > 0]
        fine = granularity_cost(writes, disk, 512)
        coarse = granularity_cost(writes, disk, 4 * KiB)
        assert fine.dirty_bytes <= coarse.dirty_bytes
        assert fine.bitmap_nbytes >= coarse.bitmap_nbytes


class TestCachedObservations:
    """The incremental count and cached dirty_indices must stay coherent
    when observations are interleaved with arbitrary mutations — the
    surface the caching fast paths could get wrong."""

    @given(operations(), st.sampled_from([16, 64, 100, 257]))
    @settings(max_examples=60)
    def test_observing_between_every_mutation(self, ops, leaf_bits):
        flat = FlatBitmap(NBITS)
        layered = LayeredBitmap(NBITS, leaf_bits=leaf_bits)
        probe = np.arange(0, NBITS, 7, dtype=np.int64)
        for op in ops:
            apply_ops(flat, [op])
            apply_ops(layered, [op])
            # Every observation in between primes (and must invalidate)
            # the cached count/indices.
            assert flat.count() == layered.count()
            assert np.array_equal(flat.dirty_indices(),
                                  layered.dirty_indices())
            assert np.array_equal(flat.test_many(probe),
                                  layered.test_many(probe))
        assert flat.count() == flat.dirty_indices().size

    @given(operations(), operations())
    @settings(max_examples=40)
    def test_union_update_invalidates_caches(self, ops_a, ops_b):
        a, b = FlatBitmap(NBITS), FlatBitmap(NBITS)
        apply_ops(a, ops_a)
        apply_ops(b, ops_b)
        expected = a.to_bool_array() | b.to_bool_array()
        a.count(), a.dirty_indices()  # prime the caches
        a.union_update(b)
        assert a.count() == int(expected.sum())
        assert np.array_equal(a.dirty_indices(), np.flatnonzero(expected))

    @given(operations())
    @settings(max_examples=40)
    def test_dirty_indices_survive_later_mutation(self, ops):
        bm = FlatBitmap(NBITS)
        apply_ops(bm, ops)
        snapshot = bm.dirty_indices().copy()
        before = bm.dirty_indices()
        bm.set_range(0, NBITS)  # mutate after handing out indices
        # The array handed out earlier must not be corrupted in place.
        assert np.array_equal(before, snapshot)
        assert bm.count() == NBITS
