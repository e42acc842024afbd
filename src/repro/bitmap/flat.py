"""Flat (single-layer) block-bitmap.

In-memory representation is a dense NumPy boolean array — one byte per bit.
That trades 8x memory for O(1) single-bit access and fully vectorized scans
(``np.flatnonzero``), which is the right trade inside a simulator.  The
*serialized* size reported to the migration protocol is the packed size
(one bit per block), matching the paper's accounting: a 4 KiB-granularity
bitmap for a 32 GiB disk costs 1 MiB on the wire.

``count()`` and ``dirty_indices()`` are cached: single-bit writes maintain
the popcount incrementally, bulk writes invalidate and the next query
recomputes.  The pre-copy loop calls ``count()`` once or more per round
while the write path runs thousands of times between rounds, so mutators
pay at most two attribute stores for the caching.

Whole-bitmap merges (``union_update`` / ``difference_update`` /
``intersection_update``) run on a ``uint64`` *word view* of the boolean
backing: the backing is padded to a multiple of 8 bools so 8 bit-bytes
fold into one machine word, and the merge is then a single whole-word
``np.bitwise_or``/``bitwise_and`` pass.  Because every byte of a boolean
array is strictly 0 or 1, bytewise OR/AND/AND-NOT on the words is exactly
the per-bit operation, and padding bytes (always 0) stay 0 under all
three.  Mutating through the word view invalidates both caches.
"""

from __future__ import annotations

import numpy as np

from ..errors import BitmapError
from .base import BlockBitmap


def union_indices(nbits: int, first: np.ndarray,
                  second: np.ndarray) -> np.ndarray:
    """Sorted-unique union of two in-range block-index arrays.

    Equivalent to ``np.union1d`` but runs as two vectorized scatter
    stores plus one ``flatnonzero`` scan over a scratch bitmap — O(k + n)
    instead of sort-based O(k log k), which wins exactly where the
    pre/post-copy merge paths live (dirty sets that are a sizable
    fraction of the device).
    """
    scratch = np.zeros(nbits, dtype=bool)
    scratch[np.asarray(first, dtype=np.int64)] = True
    scratch[np.asarray(second, dtype=np.int64)] = True
    return np.flatnonzero(scratch)


class FlatBitmap(BlockBitmap):
    """Dense bitmap over ``nbits`` blocks."""

    __slots__ = ("_bits", "_words", "_count", "_indices")

    def __init__(self, nbits: int) -> None:
        super().__init__(nbits)
        # Backing padded to a multiple of 8 bools so it reinterprets as
        # whole uint64 words; _bits is the live nbits-long view.  Padding
        # bytes are zero and stay zero under every word-level merge.
        backing = np.zeros(-(-nbits // 8) * 8, dtype=bool)
        self._bits = backing[:nbits]
        self._words = backing.view(np.uint64)
        #: Cached popcount; ``None`` = stale, recomputed on demand.
        self._count: "int | None" = 0
        #: Cached ``dirty_indices()`` result; ``None`` = stale.  Treated as
        #: read-only by every consumer (documented on the base class).
        self._indices: "np.ndarray | None" = None

    # -- single-bit ----------------------------------------------------------

    def set(self, index: int) -> None:
        self._check_index(index)
        bits = self._bits
        if not bits[index]:
            bits[index] = True
            if self._count is not None:
                self._count += 1
            self._indices = None

    def clear(self, index: int) -> None:
        self._check_index(index)
        bits = self._bits
        if bits[index]:
            bits[index] = False
            if self._count is not None:
                self._count -= 1
            self._indices = None

    def test(self, index: int) -> bool:
        self._check_index(index)
        return bool(self._bits[index])

    # -- bulk ------------------------------------------------------------

    def set_many(self, indices: np.ndarray) -> None:
        self._bits[self._check_indices(indices)] = True
        self._count = None
        self._indices = None

    def _set_many_unchecked(self, indices: np.ndarray) -> None:
        """Bulk set for callers that already validated ``indices``."""
        self._bits[indices] = True
        self._count = None
        self._indices = None

    def clear_many(self, indices: np.ndarray) -> None:
        self._bits[self._check_indices(indices)] = False
        self._count = None
        self._indices = None

    def test_many(self, indices: np.ndarray) -> np.ndarray:
        return self._bits[self._check_indices(indices)]

    def set_range(self, start: int, count: int) -> None:
        self._check_range(start, count)
        self._bits[start:start + count] = True
        self._count = None
        self._indices = None

    def set_all(self) -> None:
        self._bits[:] = True
        self._count = self.nbits
        self._indices = None

    def reset(self) -> None:
        self._bits[:] = False
        self._count = 0
        self._indices = None

    def count(self) -> int:
        cached = self._count
        if cached is None:
            cached = self._count = int(self._bits.sum())
        return cached

    def dirty_indices(self) -> np.ndarray:
        cached = self._indices
        if cached is None:
            cached = self._indices = np.flatnonzero(self._bits)
            self._count = cached.size
        return cached

    # -- whole-bitmap ----------------------------------------------------

    def copy(self) -> "FlatBitmap":
        clone = FlatBitmap.__new__(FlatBitmap)
        BlockBitmap.__init__(clone, self.nbits)
        backing = self._words.view(bool).copy()
        clone._bits = backing[:self.nbits]
        clone._words = backing.view(np.uint64)
        clone._count = self._count
        clone._indices = None
        return clone

    def union_update(self, other: BlockBitmap) -> None:
        if other.nbits != self.nbits:
            raise BitmapError(
                f"size mismatch: {self.nbits} vs {other.nbits} blocks")
        if isinstance(other, FlatBitmap):
            np.bitwise_or(self._words, other._words, out=self._words)
        else:
            self._bits[other.dirty_indices()] = True
        self._count = None
        self._indices = None

    def difference_update(self, other: BlockBitmap) -> None:
        if other.nbits != self.nbits:
            raise BitmapError(
                f"size mismatch: {self.nbits} vs {other.nbits} blocks")
        if isinstance(other, FlatBitmap):
            np.bitwise_and(self._words, ~other._words, out=self._words)
            self._count = None
            self._indices = None
        else:
            super().difference_update(other)

    def intersection_update(self, other: BlockBitmap) -> None:
        if other.nbits != self.nbits:
            raise BitmapError(
                f"size mismatch: {self.nbits} vs {other.nbits} blocks")
        if isinstance(other, FlatBitmap):
            np.bitwise_and(self._words, other._words, out=self._words)
            self._count = None
            self._indices = None
        else:
            super().intersection_update(other)

    def serialized_nbytes(self) -> int:
        return (self.nbits + 7) // 8

    def memory_nbytes(self) -> int:
        return self._bits.nbytes

    def to_bool_array(self) -> np.ndarray:
        return self._bits.copy()

