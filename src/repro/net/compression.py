"""Wire compression model (paper §III-A).

"Decrease the size of transferred data, e.g. to compress the transferred
data before sending it, will show a reduction in total migration time."
The model charges CPU time at a configurable throughput on both ends and
shrinks the payload by a configurable ratio; headers are not compressed.
Whether compression helps depends on the bottleneck: on a fast LAN the
disk is the limit and compression only burns CPU, while on a rate-limited
or WAN path it buys real time — the compression bench demonstrates both
regimes.  One ratio applies to every payload kind.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import NetworkError
from ..units import MiB


@dataclass(frozen=True)
class Compressor:
    """A stream compressor with a fixed ratio and CPU cost."""

    #: Achieved compression ratio on bulk payloads (2.0 = halves them).
    ratio: float = 2.0
    #: Sender-side CPU throughput, bytes of *input* per second (lzo/lz4
    #: class codecs on 2008 hardware manage a few hundred MB/s).
    compress_throughput: float = 300 * MiB
    #: Receiver-side decompression throughput (typically faster).
    decompress_throughput: float = 600 * MiB

    def __post_init__(self) -> None:
        if self.ratio < 1.0:
            raise NetworkError(f"compression ratio must be >= 1, got {self.ratio}")
        if self.compress_throughput <= 0 or self.decompress_throughput <= 0:
            raise NetworkError("compression throughput must be positive")

    def wire_nbytes(self, payload_nbytes: int) -> int:
        """Bytes the payload occupies on the wire after compression.

        Nonempty payloads never compress below one byte; an empty payload
        costs nothing (a ``max(..., 1)`` floor here would charge phantom
        wire bytes for zero-byte chunks and skew conserved-byte accounting).
        """
        if payload_nbytes <= 0:
            return 0
        return max(int(payload_nbytes / self.ratio), 1)

    def compress_time(self, payload_nbytes: int) -> float:
        """Sender CPU seconds to compress the payload (ratio-independent:
        the codec scans every input byte regardless of how well it packs)."""
        return payload_nbytes / self.compress_throughput

    def decompress_time(self, payload_nbytes: int) -> float:
        """Receiver CPU seconds to decompress back to ``payload_nbytes``."""
        return payload_nbytes / self.decompress_throughput
