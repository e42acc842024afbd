"""Bit-granularity arithmetic (paper §IV-A-2, "Bit Granularity").

The paper maps one bit to a 4 KiB *block* rather than a 512 B *sector*: for
a 32 GiB disk the bitmap costs 1 MiB instead of 8 MiB.  The cost of the
coarser granularity is *false dirt*: a sub-block write dirties the whole
block and forces retransmission of bytes that did not change.  These helpers
centralise the mapping between byte ranges, sectors, and blocks, plus the
size/amplification accounting that the granularity ablation reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import BitmapError
from ..units import BLOCK_SIZE


def blocks_for_size(size_bytes: int, block_size: int = BLOCK_SIZE) -> int:
    """Number of blocks needed to cover ``size_bytes`` of disk."""
    if size_bytes <= 0:
        raise BitmapError(f"disk size must be positive, got {size_bytes}")
    if block_size <= 0:
        raise BitmapError(f"block size must be positive, got {block_size}")
    return (size_bytes + block_size - 1) // block_size


def byte_range_to_blocks(
    offset: int, length: int, block_size: int = BLOCK_SIZE
) -> tuple[int, int]:
    """Map a byte extent to ``(first_block, block_count)``.

    This is exactly what the modified ``blkback`` does when it "splits the
    requested area into 4K blocks and sets corresponding bits".
    """
    if offset < 0:
        raise BitmapError(f"negative offset {offset}")
    if length < 0:
        raise BitmapError(f"negative length {length}")
    if length == 0:
        return offset // block_size, 0
    first = offset // block_size
    last = (offset + length - 1) // block_size
    return first, last - first + 1


def bitmap_wire_nbytes(disk_bytes: int, granularity: int = BLOCK_SIZE) -> int:
    """Packed size of a flat bitmap for a disk of ``disk_bytes``.

    Reproduces the paper's arithmetic: 32 GiB disk / 4 KiB bits → 1 MiB;
    at 512 B sector bits → 8 MiB.
    """
    nbits = blocks_for_size(disk_bytes, granularity)
    return (nbits + 7) // 8


@dataclass(frozen=True)
class GranularityCost:
    """Accounting for one choice of bit granularity over one write trace."""

    granularity: int            #: bytes of disk per bit
    bitmap_nbytes: int          #: packed bitmap size on the wire
    dirty_units: int            #: number of units marked dirty
    dirty_bytes: int            #: bytes that must be retransferred
    written_bytes: int          #: total bytes written (rewrites included)
    unique_bytes: int           #: distinct bytes touched (union of extents)

    @property
    def amplification(self) -> float:
        """Retransferred bytes / distinct bytes touched (>= 1 always).

        A bit at granularity ``g`` forces retransmission of the whole
        ``g``-byte unit even when only part of it changed; this ratio is
        that false-dirt overhead.
        """
        if self.unique_bytes == 0:
            return 1.0
        return self.dirty_bytes / self.unique_bytes


def _union_length(extents: list[tuple[int, int]]) -> int:
    """Total length of the union of ``(offset, length)`` intervals."""
    if not extents:
        return 0
    spans = sorted((o, o + l) for o, l in extents if l > 0)
    total = 0
    cur_lo, cur_hi = spans[0]
    for lo, hi in spans[1:]:
        if lo > cur_hi:
            total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    return total + (cur_hi - cur_lo)


def granularity_cost(
    writes: list[tuple[int, int]], disk_bytes: int, granularity: int
) -> GranularityCost:
    """Evaluate one granularity over a trace of ``(offset, length)`` writes.

    Used by the granularity ablation to show the bitmap-size vs
    write-amplification trade-off between sector and block bits.
    """
    import numpy as np

    nbits = blocks_for_size(disk_bytes, granularity)
    dirty = np.zeros(nbits, dtype=bool)
    written = 0
    for offset, length in writes:
        if offset + length > disk_bytes:
            raise BitmapError(
                f"write [{offset}, {offset + length}) beyond disk end {disk_bytes}")
        first, count = byte_range_to_blocks(offset, length, granularity)
        dirty[first:first + count] = True
        written += length
    units = int(dirty.sum())
    return GranularityCost(
        granularity=granularity,
        bitmap_nbytes=(nbits + 7) // 8,
        dirty_units=units,
        dirty_bytes=units * granularity,
        written_bytes=written,
        unique_bytes=_union_length(list(writes)),
    )
