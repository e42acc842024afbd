"""Unit tests for bit-granularity arithmetic."""

import pytest

from repro.bitmap import (
    bitmap_wire_nbytes,
    blocks_for_size,
    byte_range_to_blocks,
    granularity_cost,
    make_bitmap,
)
from repro.bitmap.flat import FlatBitmap
from repro.bitmap.layered import LayeredBitmap
from repro.errors import BitmapError
from repro.units import GiB, KiB, MiB


class TestBlocksForSize:
    def test_exact(self):
        assert blocks_for_size(8 * KiB, 4 * KiB) == 2

    def test_rounds_up(self):
        assert blocks_for_size(8 * KiB + 1, 4 * KiB) == 3

    def test_rejects_nonpositive(self):
        with pytest.raises(BitmapError):
            blocks_for_size(0)
        with pytest.raises(BitmapError):
            blocks_for_size(100, 0)


class TestByteRangeToBlocks:
    def test_aligned(self):
        assert byte_range_to_blocks(0, 4 * KiB) == (0, 1)
        assert byte_range_to_blocks(4 * KiB, 8 * KiB) == (1, 2)

    def test_unaligned_start(self):
        # Write of 100 bytes at offset 4000 straddles blocks 0 and 1.
        assert byte_range_to_blocks(4000, 200, 4 * KiB) == (0, 2)

    def test_sub_block_write_dirties_whole_block(self):
        assert byte_range_to_blocks(5000, 1, 4 * KiB) == (1, 1)

    def test_zero_length(self):
        assert byte_range_to_blocks(8192, 0, 4 * KiB) == (2, 0)

    def test_negative_rejected(self):
        with pytest.raises(BitmapError):
            byte_range_to_blocks(-1, 10)
        with pytest.raises(BitmapError):
            byte_range_to_blocks(0, -1)


class TestWireSize:
    def test_paper_figures(self):
        # Paper §IV-A-2: 32GB disk -> 1MB bitmap at 4KB bits, 8MB at 512B.
        assert bitmap_wire_nbytes(32 * GiB, 4 * KiB) == 1 * MiB
        assert bitmap_wire_nbytes(32 * GiB, 512) == 8 * MiB


class TestGranularityCost:
    def test_amplification_for_sub_block_writes(self):
        # 100 writes of 512B, each to a distinct 4KiB block offset.
        writes = [(i * 4 * KiB, 512) for i in range(100)]
        coarse = granularity_cost(writes, 1 * MiB, 4 * KiB)
        fine = granularity_cost(writes, 1 * MiB, 512)
        assert coarse.amplification == pytest.approx(8.0)
        assert fine.amplification == pytest.approx(1.0)
        assert coarse.bitmap_nbytes < fine.bitmap_nbytes

    def test_full_block_writes_have_no_amplification(self):
        writes = [(i * 4 * KiB, 4 * KiB) for i in range(10)]
        cost = granularity_cost(writes, 1 * MiB, 4 * KiB)
        assert cost.amplification == pytest.approx(1.0)
        assert cost.dirty_units == 10

    def test_write_beyond_disk_rejected(self):
        with pytest.raises(BitmapError):
            granularity_cost([(1 * MiB - 100, 200)], 1 * MiB, 4 * KiB)

    def test_empty_trace(self):
        cost = granularity_cost([], 1 * MiB, 4 * KiB)
        assert cost.dirty_units == 0
        assert cost.amplification == 1.0


class TestFactory:
    def test_flat(self):
        assert isinstance(make_bitmap(10, "flat"), FlatBitmap)

    def test_layered(self):
        assert isinstance(make_bitmap(10, "layered"), LayeredBitmap)

    def test_unknown(self):
        with pytest.raises(BitmapError):
            make_bitmap(10, "nested")
