"""Block I/O request types.

The paper (§IV-A-3) defines an I/O request as the triple ``R<O, N, VM>``:
the operation (READ/WRITE), the operated block number, and the ID of the
domain that submitted it.  We extend it with a contiguous block count so
that multi-block requests (the common case for real workloads) are one
object, and with bookkeeping fields used by the pending-queue logic.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

from ..errors import StorageError
from ..units import BLOCK_SIZE

_next_request_id = itertools.count(1).__next__


class IOKind(enum.Enum):
    """The operation ``O`` of the paper's request triple."""

    READ = "read"
    WRITE = "write"


@dataclass(slots=True, init=False)
class IORequest:
    """The paper's ``R<O, N, VM>`` with a block count.

    ``block`` is the first block number (``N``), ``nblocks`` the contiguous
    extent, and ``domain_id`` the submitting domain (``VM``).
    """

    kind: IOKind
    block: int
    nblocks: int
    domain_id: int
    block_size: int
    #: Unique id, used to match pulled blocks back to pending requests.
    request_id: int
    #: Simulated time at which the request was submitted (set by blkback).
    issue_time: float

    # Written out because it runs once per guest I/O: the generated
    # constructor would add a default-factory and a ``__post_init__`` call.
    def __init__(self, kind: IOKind, block: int, nblocks: int = 1,
                 domain_id: int = 0, block_size: int = BLOCK_SIZE) -> None:
        if block < 0:
            raise StorageError(f"negative block number {block}")
        if nblocks < 1:
            raise StorageError(f"request must cover >= 1 block, got {nblocks}")
        self.kind = kind
        self.block = block
        self.nblocks = nblocks
        self.domain_id = domain_id
        self.block_size = block_size
        self.request_id = _next_request_id()
        self.issue_time = -1.0

    @property
    def nbytes(self) -> int:
        """Bytes moved by this request."""
        return self.nblocks * self.block_size

    @property
    def last_block(self) -> int:
        """The final block number touched (inclusive)."""
        return self.block + self.nblocks - 1

    def is_write(self) -> bool:
        return self.kind is IOKind.WRITE

    def __repr__(self) -> str:
        return (f"<IORequest #{self.request_id} {self.kind.value} "
                f"blocks[{self.block}:{self.block + self.nblocks}] "
                f"dom{self.domain_id}>")


def write(block: int, nblocks: int = 1) -> IORequest:
    """Convenience constructor for a WRITE request."""
    return IORequest(IOKind.WRITE, block, nblocks)
