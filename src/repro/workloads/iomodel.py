"""Block-address models for synthetic workloads.

The migration algorithms care about three properties of a write stream:
its *rate*, its *footprint* (how many distinct blocks it touches), and its
*rewrite locality* (the fraction of writes that hit previously written
blocks — 11 % for a kernel build, 25.2 % for SPECweb banking, 35.6 % for
Bonnie++ per the paper's §IV-A-2 measurement).  These models let each
workload dial those properties explicitly.
"""

from __future__ import annotations

import abc

import numpy as np

from ..errors import ReproError


class AddressModel(abc.ABC):
    """Produces block extents ``(first_block, nblocks)`` within a region."""

    def __init__(self, region_start: int, region_blocks: int,
                 extent_blocks: int = 1) -> None:
        if region_blocks <= 0:
            raise ReproError(f"region must be non-empty, got {region_blocks}")
        if extent_blocks < 1:
            raise ReproError(f"extent must be >= 1 block, got {extent_blocks}")
        if extent_blocks > region_blocks:
            raise ReproError("extent larger than the region")
        self.region_start = int(region_start)
        self.region_blocks = int(region_blocks)
        self.extent_blocks = int(extent_blocks)

    @abc.abstractmethod
    def next_extent(self, rng: np.random.Generator) -> tuple[int, int]:
        """The next ``(first_block, nblocks)`` to access."""

    def next_extents(self, n: int,
                     rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """The next ``n`` extents as ``(firsts, counts)`` int64 arrays.

        Draws exactly the same values, in the same order, as ``n``
        sequential :meth:`next_extent` calls — callers may freely mix the
        two without perturbing the random stream.  Subclasses whose draws
        have no value-dependent control flow override this with a
        vectorized version; the default loops.
        """
        if n < 0:
            raise ReproError(f"cannot draw {n} extents")
        firsts = np.empty(n, dtype=np.int64)
        counts = np.empty(n, dtype=np.int64)
        for i in range(n):
            firsts[i], counts[i] = self.next_extent(rng)
        return firsts, counts

    def _clamp(self, offset: int) -> int:
        """Clamp a region-relative offset so the extent fits."""
        return min(max(offset, 0), self.region_blocks - self.extent_blocks)


class SequentialModel(AddressModel):
    """Walks the region front to back, wrapping around (streaming I/O)."""

    def __init__(self, region_start: int, region_blocks: int,
                 extent_blocks: int = 1) -> None:
        super().__init__(region_start, region_blocks, extent_blocks)
        self._cursor = 0
        #: Completed full passes over the region.
        self.passes = 0

    def next_extent(self, rng: np.random.Generator) -> tuple[int, int]:
        if self._cursor + self.extent_blocks > self.region_blocks:
            self._cursor = 0
            self.passes += 1
        first = self.region_start + self._cursor
        self._cursor += self.extent_blocks
        return first, self.extent_blocks

    def next_extents(self, n: int,
                     rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        # No randomness: the whole walk (wrap points included) is closed
        # form.  The cursor is always a whole number of extents, a pass
        # holds ``region_blocks // ext`` of them, and a full cursor wraps
        # *lazily* on the next draw — all exactly as the scalar path does.
        if n < 0:
            raise ReproError(f"cannot draw {n} extents")
        if n == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy()
        ext = self.extent_blocks
        per_pass = self.region_blocks // ext
        pending = self._cursor + ext > self.region_blocks
        v0 = 0 if pending else self._cursor // ext
        steps = (v0 + np.arange(n, dtype=np.int64)) % per_pass
        firsts = self.region_start + steps * ext
        counts = np.full(n, ext, dtype=np.int64)
        if pending:
            self.passes += 1 + (n - 1) // per_pass
        else:
            self.passes += (v0 + n - 1) // per_pass
        self._cursor = (int(steps[-1]) + 1) * ext
        return firsts, counts


class UniformModel(AddressModel):
    """Uniformly random extents over the region (random seeks)."""

    def next_extent(self, rng: np.random.Generator) -> tuple[int, int]:
        offset = int(rng.integers(0, self.region_blocks - self.extent_blocks + 1))
        return self.region_start + offset, self.extent_blocks

    def next_extents(self, n: int,
                     rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        # One sized draw consumes the identical random stream as ``n``
        # scalar ``integers()`` calls (PCG64 draws per element either way).
        if n < 0:
            raise ReproError(f"cannot draw {n} extents")
        if n == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy()
        offsets = rng.integers(0, self.region_blocks - self.extent_blocks + 1,
                               size=n)
        firsts = self.region_start + offsets.astype(np.int64, copy=False)
        counts = np.full(n, self.extent_blocks, dtype=np.int64)
        return firsts, counts


class FreshAppendModel(AddressModel):
    """Mostly-fresh writes with a controlled rewrite fraction.

    With probability ``rewrite_prob`` the extent rewrites a recently
    written block (drawn from a sliding window over the last writes);
    otherwise it appends at the frontier.  Once the frontier has advanced
    past the window, the achieved rewrite locality converges to exactly
    ``rewrite_prob`` — the knob the paper's locality numbers calibrate.
    """

    def __init__(self, region_start: int, region_blocks: int,
                 extent_blocks: int = 1, rewrite_prob: float = 0.25) -> None:
        super().__init__(region_start, region_blocks, extent_blocks)
        if not 0 <= rewrite_prob < 1:
            raise ReproError(f"rewrite_prob must be in [0, 1), got {rewrite_prob}")
        self.rewrite_prob = rewrite_prob
        #: The rewrite window: the last sixteenth of the region.
        self.window_blocks = max(region_blocks // 16, extent_blocks)
        self._frontier = 0

    def next_extent(self, rng: np.random.Generator) -> tuple[int, int]:
        if self._frontier > 0 and rng.random() < self.rewrite_prob:
            window_lo = max(self._frontier - self.window_blocks, 0)
            window_hi = max(self._frontier - self.extent_blocks, window_lo)
            offset = int(rng.integers(window_lo, window_hi + 1))
            return self.region_start + self._clamp(offset), self.extent_blocks
        offset = self._frontier
        self._frontier += self.extent_blocks
        if self._frontier + self.extent_blocks > self.region_blocks:
            # Region exhausted: keep appending from the start (everything
            # becomes a rewrite, as for a long-running service).
            self._frontier = 0
        return self.region_start + self._clamp(offset), self.extent_blocks


class MemoryDirtier:
    """Writable-working-set model for guest memory dirtying.

    Each call to :meth:`pages` returns page indices to touch: a hot set of
    ``wss_pages`` absorbs ``hot_prob`` of the traffic, the remainder
    scatters over all of memory.  Keeping the WSS small relative to RAM is
    what lets iterative memory pre-copy converge (Clark et al.).
    """

    def __init__(self, npages: int, wss_pages: int, pages_per_second: float,
                 hot_prob: float = 0.9) -> None:
        if not 0 < wss_pages <= npages:
            raise ReproError("WSS must be within memory")
        if pages_per_second < 0:
            raise ReproError("dirty rate cannot be negative")
        self.npages = int(npages)
        self.wss_pages = int(wss_pages)
        self.pages_per_second = float(pages_per_second)
        self.hot_prob = float(hot_prob)

    def pages(self, dt: float, rng: np.random.Generator) -> np.ndarray:
        """Pages dirtied over an interval of ``dt`` seconds."""
        count = rng.poisson(self.pages_per_second * dt)
        if count == 0:
            return np.empty(0, dtype=np.int64)
        hot = rng.random(count) < self.hot_prob
        out = np.empty(count, dtype=np.int64)
        nhot = int(hot.sum())
        if nhot:
            out[:nhot] = rng.integers(0, self.wss_pages, size=nhot)
        if count - nhot:
            out[nhot:] = rng.integers(0, self.npages, size=count - nhot)
        return out
