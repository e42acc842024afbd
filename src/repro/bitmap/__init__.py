"""Block-bitmap dirty tracking (paper §IV-A-2).

The bitmap is the paper's synchronization currency: writes set bits, the
pre-copy loop scans and resets, freeze-and-copy ships the map itself, and
post-copy push/pull both consume it.  Use :func:`make_bitmap` to construct
the layout named in a :class:`~repro.core.config.MigrationConfig`.
"""

from __future__ import annotations

from .base import BlockBitmap
from .flat import FlatBitmap, union_indices
from .layered import DEFAULT_LEAF_BITS, LayeredBitmap
from .granularity import (
    GranularityCost,
    bitmap_wire_nbytes,
    blocks_for_size,
    byte_range_to_blocks,
    granularity_cost,
)

from ..errors import BitmapError


def make_bitmap(nbits: int, layout: str = "flat", leaf_bits: int = DEFAULT_LEAF_BITS) -> BlockBitmap:
    """Construct a bitmap of the requested layout (``"flat"`` or ``"layered"``)."""
    if layout == "flat":
        return FlatBitmap(nbits)
    if layout == "layered":
        return LayeredBitmap(nbits, leaf_bits=leaf_bits)
    raise BitmapError(f"unknown bitmap layout {layout!r}")


__all__ = [
    "BlockBitmap",
    "DEFAULT_LEAF_BITS",
    "FlatBitmap",
    "GranularityCost",
    "LayeredBitmap",
    "bitmap_wire_nbytes",
    "blocks_for_size",
    "byte_range_to_blocks",
    "granularity_cost",
    "make_bitmap",
    "union_indices",
]
