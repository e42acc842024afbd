"""A write-tracking bitmap that journals its mutations into a store.

:class:`PersistentBitmap` wraps any :class:`~repro.bitmap.base.BlockBitmap`
and forwards every mutation to a :class:`~repro.persist.store.BitmapStore`
session, so the pending set survives a simulated host crash.  It *is* a
``BlockBitmap`` (registered under the backend driver's tracking dict like
any other), which keeps the whole pre-copy/IM machinery oblivious to
persistence.

Journaling is best-effort with respect to the store's lifecycle: if the
store has been crashed or closed out from under the wrapper (e.g. a
completed session), mutations still apply to the in-memory bitmap — a
dead store must never break a healthy domain's write path.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..bitmap.base import BlockBitmap
from .store import BitmapStore


class PersistentBitmap(BlockBitmap):
    """Durability wrapper around an in-memory block bitmap."""

    def __init__(self, inner: BlockBitmap, store: BitmapStore,
                 recovered: bool = False) -> None:
        if len(inner) != store.nbits:
            from ..errors import PersistError

            raise PersistError(
                f"bitmap covers {len(inner)} blocks but store covers "
                f"{store.nbits}")
        super().__init__(len(inner))
        self.inner = inner
        self.store = store
        #: True when this bitmap was rebuilt by crash recovery rather than
        #: started fresh — consumers stamp it into migration reports.
        self.recovered = recovered

    # -- journaled mutations --------------------------------------------

    def set(self, index: int) -> None:
        self.inner.set(index)
        if self.store.is_open:
            self.store.record_set(np.asarray([index], dtype=np.int64))

    def clear(self, index: int) -> None:
        self.inner.clear(index)
        if self.store.is_open:
            self.store.record_clear(np.asarray([index], dtype=np.int64))

    def set_many(self, indices: np.ndarray) -> None:
        self.inner.set_many(indices)
        if self.store.is_open:
            self.store.record_set(indices)

    def clear_many(self, indices: np.ndarray) -> None:
        self.inner.clear_many(indices)
        if self.store.is_open:
            self.store.record_clear(indices)

    def set_range(self, start: int, count: int) -> None:
        self.inner.set_range(start, count)
        if self.store.is_open and count > 0:
            self.store.record_set(
                np.arange(start, start + count, dtype=np.int64))

    def set_all(self) -> None:
        self.inner.set_all()
        if self.store.is_open:
            self.store.record_set(np.arange(self.nbits, dtype=np.int64))

    def reset(self) -> None:
        self.inner.reset()
        if self.store.is_open:
            self.store.record_clear(np.arange(self.nbits, dtype=np.int64))

    def union_update(self, other: BlockBitmap) -> None:
        self.inner.union_update(other)
        if self.store.is_open:
            self.store.record_set(other.dirty_indices())

    # -- read-only delegation -------------------------------------------

    def test(self, index: int) -> bool:
        return self.inner.test(index)

    def test_many(self, indices: np.ndarray) -> np.ndarray:
        return self.inner.test_many(indices)

    def count(self) -> int:
        return self.inner.count()

    def dirty_indices(self) -> np.ndarray:
        return self.inner.dirty_indices()

    def to_bool_array(self) -> np.ndarray:
        return self.inner.to_bool_array()

    def iter_dirty(self) -> Iterator[int]:
        return self.inner.iter_dirty()

    def any(self) -> bool:
        return self.inner.any()

    def serialized_nbytes(self) -> int:
        return self.inner.serialized_nbytes()

    def memory_nbytes(self) -> int:
        return self.inner.memory_nbytes()

    def copy(self) -> BlockBitmap:
        """A plain in-memory copy — copies do not journal."""
        return self.inner.copy()

    def __repr__(self) -> str:
        return (f"<PersistentBitmap {self.count()}/{self.nbits} "
                f"store={self.store!r}>")
