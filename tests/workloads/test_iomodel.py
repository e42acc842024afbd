"""Unit tests for address models and the memory dirtier."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.workloads import (
    FreshAppendModel,
    MemoryDirtier,
    SequentialModel,
    UniformModel,
)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def in_region(model, extent):
    first, nblocks = extent
    return (model.region_start <= first
            and first + nblocks <= model.region_start + model.region_blocks)


class TestValidation:
    def test_empty_region_rejected(self):
        with pytest.raises(ReproError):
            UniformModel(0, 0)

    def test_extent_must_fit(self):
        with pytest.raises(ReproError):
            UniformModel(0, 4, extent_blocks=5)
        with pytest.raises(ReproError):
            UniformModel(0, 4, extent_blocks=0)


class TestSequential:
    def test_walks_in_order(self, rng):
        model = SequentialModel(100, 10, extent_blocks=2)
        extents = [model.next_extent(rng) for _ in range(5)]
        assert extents == [(100, 2), (102, 2), (104, 2), (106, 2), (108, 2)]

    def test_wraps_and_counts_passes(self, rng):
        model = SequentialModel(0, 4, extent_blocks=2)
        for _ in range(4):
            model.next_extent(rng)
        assert model.passes == 1


class TestUniform:
    def test_stays_in_region(self, rng):
        model = UniformModel(50, 20, extent_blocks=3)
        for _ in range(200):
            assert in_region(model, model.next_extent(rng))

    def test_covers_region(self, rng):
        model = UniformModel(0, 10, extent_blocks=1)
        seen = {model.next_extent(rng)[0] for _ in range(500)}
        assert seen == set(range(10))


class TestFreshAppend:
    def test_rewrite_fraction_converges_to_knob(self, rng):
        model = FreshAppendModel(0, 100_000, extent_blocks=1,
                                 rewrite_prob=0.25)
        seen = set()
        rewrites = ops = 0
        for _ in range(5000):
            first, nblocks = model.next_extent(rng)
            ops += 1
            if first in seen:
                rewrites += 1
            seen.add(first)
        assert rewrites / ops == pytest.approx(0.25, abs=0.03)

    def test_first_write_is_always_fresh(self, rng):
        model = FreshAppendModel(0, 100, rewrite_prob=0.9)
        assert model.next_extent(rng) == (0, 1)

    def test_bounds(self, rng):
        model = FreshAppendModel(5, 50, extent_blocks=4, rewrite_prob=0.3)
        for _ in range(500):
            assert in_region(model, model.next_extent(rng))

    def test_invalid_rewrite_prob(self):
        with pytest.raises(ReproError):
            FreshAppendModel(0, 100, rewrite_prob=1.0)


class TestMemoryDirtier:
    def test_rate_scales_with_dt(self, rng):
        dirtier = MemoryDirtier(10_000, wss_pages=1000,
                                pages_per_second=1000.0)
        total = sum(dirtier.pages(0.1, rng).size for _ in range(100))
        assert total == pytest.approx(10_000, rel=0.15)

    def test_hot_set_dominates(self, rng):
        dirtier = MemoryDirtier(10_000, wss_pages=100,
                                pages_per_second=10_000.0, hot_prob=0.9)
        pages = dirtier.pages(1.0, rng)
        assert (pages < 100).mean() > 0.85

    def test_zero_interval(self, rng):
        dirtier = MemoryDirtier(100, wss_pages=10, pages_per_second=100.0)
        assert dirtier.pages(0.0, rng).size == 0

    def test_pages_in_range(self, rng):
        dirtier = MemoryDirtier(64, wss_pages=8, pages_per_second=5000.0,
                                hot_prob=0.5)
        pages = dirtier.pages(1.0, rng)
        assert pages.min() >= 0 and pages.max() < 64

    def test_invalid_parameters(self):
        with pytest.raises(ReproError):
            MemoryDirtier(100, wss_pages=0, pages_per_second=1)
        with pytest.raises(ReproError):
            MemoryDirtier(100, wss_pages=200, pages_per_second=1)
        with pytest.raises(ReproError):
            MemoryDirtier(100, wss_pages=10, pages_per_second=-1)


MODEL_FACTORIES = [
    pytest.param(lambda: SequentialModel(100, 37, extent_blocks=4),
                 id="sequential"),
    pytest.param(lambda: UniformModel(0, 500, extent_blocks=8),
                 id="uniform"),
    pytest.param(lambda: FreshAppendModel(0, 256, extent_blocks=4,
                                          rewrite_prob=0.3),
                 id="freshappend"),
]


class TestNextExtentsEquivalence:
    """Batched draws must consume the exact stream of scalar draws."""

    @pytest.mark.parametrize("make", MODEL_FACTORIES)
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_interleaved_batched_matches_scalar(self, make, seed):
        scalar_model, batch_model = make(), make()
        scalar_rng = np.random.default_rng(seed)
        batch_rng = np.random.default_rng(seed)
        scalar_draws, batch_draws = [], []
        # Mix batch sizes (including 0 and sizes spanning several wraps
        # of the sequential walk) with single draws on both sides.
        for n in [3, 0, 1, 11, 2, 40, 1]:
            for _ in range(n):
                scalar_draws.append(scalar_model.next_extent(scalar_rng))
            firsts, counts = batch_model.next_extents(n, batch_rng)
            assert firsts.dtype == np.int64 and counts.dtype == np.int64
            batch_draws.extend(zip(firsts.tolist(), counts.tolist()))
        assert scalar_draws == batch_draws
        # The random streams stay aligned: one more scalar draw from each
        # model/rng pair must still agree.
        assert (scalar_model.next_extent(scalar_rng)
                == batch_model.next_extent(batch_rng))

    def test_sequential_state_matches_scalar(self):
        scalar_model = SequentialModel(100, 37, extent_blocks=4)
        batch_model = SequentialModel(100, 37, extent_blocks=4)
        rng = np.random.default_rng(0)
        for _ in range(25):
            scalar_model.next_extent(rng)
        batch_model.next_extents(25, rng)
        assert batch_model.passes == scalar_model.passes
        assert batch_model._cursor == scalar_model._cursor

    @pytest.mark.parametrize("make", MODEL_FACTORIES)
    def test_negative_count_rejected(self, make):
        with pytest.raises(ReproError):
            make().next_extents(-1, np.random.default_rng(0))

    @pytest.mark.parametrize("make", MODEL_FACTORIES)
    def test_zero_count_draws_nothing(self, make):
        model = make()
        rng = np.random.default_rng(5)
        shadow = np.random.default_rng(5)
        firsts, counts = model.next_extents(0, rng)
        assert firsts.size == 0 and counts.size == 0
        # No randomness was consumed.
        assert rng.integers(0, 1 << 30) == shadow.integers(0, 1 << 30)
