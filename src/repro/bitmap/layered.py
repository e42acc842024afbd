"""Two-layer (layered) block-bitmap (paper §IV-A-2, "Layered-Bitmap").

The bitmap is split into fixed-size *parts* (leaves).  The upper layer holds
one bit per part recording whether that part contains any dirty bit.  Leaves
are allocated lazily on the first write into their range, so a sparse dirty
pattern — the common case, because disk writes are highly local — costs
memory only for the touched parts, and a scan visits only parts whose upper
bit is set.

Popcounts are summarised per leaf: each materialised leaf caches its own
dirty count, a mutation drops only the touched leaves' summaries, and
``count()`` re-sums leaf summaries (recomputing just the stale ones)
instead of re-popcounting every allocated leaf on every call.
"""

from __future__ import annotations

import numpy as np

from ..errors import BitmapError
from .base import BlockBitmap

#: Default part size: 4096 bits = 512 B of wire bitmap covering 16 MiB of
#: disk at 4 KiB granularity.
DEFAULT_LEAF_BITS = 4096


class LayeredBitmap(BlockBitmap):
    """Lazily-allocated two-level bitmap over ``nbits`` blocks."""

    __slots__ = ("leaf_bits", "_nleaves", "_top", "_leaves",
                 "_leaf_counts", "_total", "_indices")

    def __init__(self, nbits: int, leaf_bits: int = DEFAULT_LEAF_BITS) -> None:
        super().__init__(nbits)
        if leaf_bits <= 0:
            raise BitmapError(f"leaf size must be positive, got {leaf_bits}")
        self.leaf_bits = int(leaf_bits)
        self._nleaves = (nbits + leaf_bits - 1) // leaf_bits
        #: Upper layer: True iff the corresponding part may contain dirt.
        self._top = np.zeros(self._nleaves, dtype=bool)
        #: Lazily allocated leaves, keyed by part number.
        self._leaves: dict[int, np.ndarray] = {}
        #: Per-leaf popcount summaries; a missing key means "stale".
        self._leaf_counts: dict[int, int] = {}
        #: Cached total popcount; ``None`` = at least one leaf is stale.
        self._total: "int | None" = 0
        #: Cached ``dirty_indices()`` result (read-only for callers).
        self._indices: "np.ndarray | None" = None

    # -- leaf plumbing -----------------------------------------------------

    def _leaf_len(self, leaf: int) -> int:
        """Number of valid bits in part ``leaf`` (last part may be short)."""
        if leaf == self._nleaves - 1:
            rem = self.nbits - leaf * self.leaf_bits
            return rem
        return self.leaf_bits

    def _get_leaf(self, leaf: int) -> np.ndarray:
        arr = self._leaves.get(leaf)
        if arr is None:
            arr = np.zeros(self._leaf_len(leaf), dtype=bool)
            self._leaves[leaf] = arr
        return arr

    def _touch_leaf(self, leaf: int) -> None:
        """Drop the summaries invalidated by a mutation of ``leaf``."""
        self._leaf_counts.pop(leaf, None)
        self._total = None
        self._indices = None

    # -- single-bit ----------------------------------------------------------

    def set(self, index: int) -> None:
        self._check_index(index)
        leaf, off = divmod(index, self.leaf_bits)
        arr = self._get_leaf(leaf)
        if not arr[off]:
            arr[off] = True
            self._top[leaf] = True
            count = self._leaf_counts.get(leaf)
            if count is not None:
                self._leaf_counts[leaf] = count + 1
            if self._total is not None:
                self._total += 1
            self._indices = None
        else:
            self._top[leaf] = True

    def clear(self, index: int) -> None:
        self._check_index(index)
        leaf, off = divmod(index, self.leaf_bits)
        arr = self._leaves.get(leaf)
        if arr is not None and arr[off]:
            arr[off] = False
            count = self._leaf_counts.get(leaf)
            if count is not None:
                self._leaf_counts[leaf] = count - 1
            if self._total is not None:
                self._total -= 1
            self._indices = None

    def test(self, index: int) -> bool:
        self._check_index(index)
        leaf, off = divmod(index, self.leaf_bits)
        arr = self._leaves.get(leaf)
        return bool(arr[off]) if arr is not None else False

    # -- bulk ------------------------------------------------------------

    def set_many(self, indices: np.ndarray) -> None:
        indices = self._check_indices(indices)
        if indices.size == 0:
            return
        leaves = indices // self.leaf_bits
        offsets = indices - leaves * self.leaf_bits
        for leaf in np.unique(leaves):
            arr = self._get_leaf(int(leaf))
            arr[offsets[leaves == leaf]] = True
            self._top[leaf] = True
            self._touch_leaf(int(leaf))

    def clear_many(self, indices: np.ndarray) -> None:
        indices = self._check_indices(indices)
        if indices.size == 0:
            return
        leaves = indices // self.leaf_bits
        offsets = indices - leaves * self.leaf_bits
        for leaf in np.unique(leaves):
            arr = self._leaves.get(int(leaf))
            if arr is not None:
                arr[offsets[leaves == leaf]] = False
                self._touch_leaf(int(leaf))

    def test_many(self, indices: np.ndarray) -> np.ndarray:
        indices = self._check_indices(indices)
        out = np.zeros(indices.size, dtype=bool)
        if indices.size == 0:
            return out
        leaves = indices // self.leaf_bits
        offsets = indices - leaves * self.leaf_bits
        for leaf in np.unique(leaves):
            arr = self._leaves.get(int(leaf))
            if arr is not None:
                mask = leaves == leaf
                out[mask] = arr[offsets[mask]]
        return out

    def set_range(self, start: int, count: int) -> None:
        self._check_range(start, count)
        if count == 0:
            return
        first, last = start // self.leaf_bits, (start + count - 1) // self.leaf_bits
        for leaf in range(first, last + 1):
            base = leaf * self.leaf_bits
            lo = max(start - base, 0)
            hi = min(start + count - base, self._leaf_len(leaf))
            self._get_leaf(leaf)[lo:hi] = True
            self._top[leaf] = True
            self._touch_leaf(leaf)

    def set_all(self) -> None:
        for leaf in range(self._nleaves):
            self._get_leaf(leaf)[:] = True
            self._leaf_counts[leaf] = self._leaf_len(leaf)
        self._top[:] = True
        self._total = self.nbits
        self._indices = None

    def reset(self) -> None:
        """Drop all dirt *and* free every leaf (fresh iteration = fresh map)."""
        self._leaves.clear()
        self._leaf_counts.clear()
        self._top[:] = False
        self._total = 0
        self._indices = None

    def _leaf_count(self, leaf: int, arr: np.ndarray) -> int:
        count = self._leaf_counts.get(leaf)
        if count is None:
            count = self._leaf_counts[leaf] = int(arr.sum())
        return count

    def count(self) -> int:
        total = self._total
        if total is None:
            total = sum(self._leaf_count(leaf, arr)
                        for leaf, arr in self._leaves.items())
            self._total = total
        return total

    def dirty_indices(self) -> np.ndarray:
        cached = self._indices
        if cached is not None:
            return cached
        # The layered scan: only parts whose top bit is set are visited.
        chunks = []
        for leaf in np.flatnonzero(self._top):
            arr = self._leaves.get(int(leaf))
            if arr is None:
                continue
            hits = np.flatnonzero(arr)
            if hits.size:
                chunks.append(hits + int(leaf) * self.leaf_bits)
        if not chunks:
            result = np.empty(0, dtype=np.int64)
        else:
            result = np.concatenate(chunks)
        self._indices = result
        return result

    # -- whole-bitmap ----------------------------------------------------

    def copy(self) -> "LayeredBitmap":
        clone = LayeredBitmap(self.nbits, self.leaf_bits)
        clone._top = self._top.copy()
        clone._leaves = {leaf: arr.copy() for leaf, arr in self._leaves.items()}
        clone._leaf_counts = dict(self._leaf_counts)
        clone._total = self._total
        return clone

    def union_update(self, other: BlockBitmap) -> None:
        if other.nbits != self.nbits:
            raise BitmapError(
                f"size mismatch: {self.nbits} vs {other.nbits} blocks")
        if isinstance(other, LayeredBitmap) and other.leaf_bits == self.leaf_bits:
            for leaf, arr in other._leaves.items():
                if arr.any():
                    np.logical_or(self._get_leaf(leaf), arr,
                                  out=self._leaves[leaf])
                    self._top[leaf] = True
                    self._touch_leaf(leaf)
        else:
            self.set_many(other.dirty_indices())

    def serialized_nbytes(self) -> int:
        """Wire cost: the top layer plus only the *dirty* parts.

        This is the size reduction the paper credits to the layered design:
        clean parts are never transmitted.
        """
        top_bytes = (self._nleaves + 7) // 8
        dirty_leaf_bytes = 0
        for leaf in np.flatnonzero(self._top):
            arr = self._leaves.get(int(leaf))
            if arr is not None and self._leaf_count(int(leaf), arr):
                dirty_leaf_bytes += (self._leaf_len(int(leaf)) + 7) // 8
        return top_bytes + dirty_leaf_bytes

    def memory_nbytes(self) -> int:
        return self._top.nbytes + sum(arr.nbytes for arr in self._leaves.values())

    @property
    def allocated_leaves(self) -> int:
        """Number of parts currently materialised in memory."""
        return len(self._leaves)
