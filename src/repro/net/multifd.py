"""Multifd-style parallel sub-channels over one migration link.

QEMU's multifd splits the migration stream across N TCP connections so
that per-connection CPU work (compression, checksumming) and kernel
socket processing parallelise while the NIC stays the shared bottleneck.
This module models that split for the simulator:

* :class:`MultiFD` builds N :class:`~repro.net.channel.Channel`\\ s over
  the **same** ``Link``/``RoutedPath`` as the base channel.  The wire is
  a capacity-1 resource, so sub-channel transmissions serialise and
  interleave on it exactly like competing TCP streams on one NIC — total
  wire time is conserved, but per-channel CPU stages (compression, delta
  encoding) overlap across stripes.
* All sub-channels **share** the base channel's rate limiter (the token
  bucket paces the aggregate, not each stripe) and compressor.
* Chunks are striped round-robin: chunk ``k`` rides sub-channel
  ``k % nchannels``.  Each sub-channel individually preserves the
  channel layer's in-order delivery invariant, so the receiver sees
  every stripe in send order; *global* cross-stripe ordering is not
  guaranteed (and the streamers do not rely on it — each chunk carries
  its own block/page indices).
* **Byte accounting is conserved**: each sub-channel keeps its own
  per-category ledger, and the migration registers all sub-channels in
  ``MigrationScheme.extra_channels`` so the cluster audit
  (:func:`repro.cluster.accounting.audit_link_bytes`) sums them against
  the shared link's byte counter.

The streamers in :mod:`repro.core.transfer` implement the actual striped
send/receive with a completion barrier (every stripe's writer must finish
before the batch commits); this module only owns the channel fan-out and
the striping arithmetic.  Driven by ``MigrationConfig.multifd_channels``
and **off by default** (``1`` keeps the single pipelined channel).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import NetworkError
from .channel import Channel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import Environment


class MultiFD:
    """N parallel sub-channels striped over one base channel's link."""

    def __init__(self, env: "Environment", base: Channel, nchannels: int,
                 name: str | None = None) -> None:
        if nchannels < 2:
            raise NetworkError(
                f"multifd needs at least 2 sub-channels, got {nchannels}")
        self.env = env
        self.base = base
        self.nchannels = int(nchannels)
        prefix = name if name is not None else base.name
        #: The sub-channels, ``<base>:fd0 .. fdN-1`` — same link, shared
        #: limiter (aggregate pacing), compressor and sender.
        self.channels = [
            Channel(env, base.link, limiter=base.limiter,
                    name=f"{prefix}:fd{i}", compressor=base.compressor,
                    sender=base.sender)
            for i in range(self.nchannels)
        ]

    def lanes(self, chunks: list) -> list[list]:
        """Round-robin stripe assignment: lane ``i`` gets ``chunks[i::N]``.

        The position of lane ``i``'s ``j``-th chunk in the original send
        order is ``i + j * N`` — the streamers use this to mark per-chunk
        completion without threading sequence numbers through the wire.
        """
        return [chunks[i::self.nchannels] for i in range(self.nchannels)]

    @property
    def total_bytes(self) -> int:
        """Wire bytes sent across all sub-channels."""
        return sum(chan.total_bytes for chan in self.channels)

    def __repr__(self) -> str:
        return (f"<MultiFD {self.nchannels}x over {self.base.name!r} "
                f"{self.total_bytes} B>")
