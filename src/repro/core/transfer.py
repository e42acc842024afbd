"""Pipelined bulk-state transfer (disk blocks and memory pages).

Pre-copy moves gigabytes; doing it one block-event at a time would drown
the event loop.  Instead a chunk (default 1 MiB of blocks) is the unit of
work, and three overlapped stages — source disk read, network send,
destination disk write — run as coupled processes with a small buffer
between them, so the achieved rate is set by the slowest stage (as in a
real implementation) rather than the sum of all three.

Pipeline shape and invariants (see docs/TRANSFER.md for the full layer
guide):

* **Stages couple through a bounded Store.**  The reader may run at most
  :data:`PIPELINE_DEPTH` chunks ahead of the sender; the writer is
  driven by channel delivery, which the channel keeps in send order.
  Backpressure therefore propagates stage to stage: a slow network stalls
  the reader once the buffer fills, a slow destination disk stalls
  deliveries in the mailbox.
* **Completion = destination durability.**  ``stream()`` returns only
  when every chunk has been *written* at the destination (a completion
  barrier over all stage processes), never merely when the source
  finished sending.  The pre-copy loop's dirty-rate arithmetic depends on
  this.
* **Confirmation tracking for the failure path.**  The streamer records
  which chunks the destination confirmed; after a mid-batch network
  failure :meth:`BlockStreamer.unconfirmed_indices` names exactly the
  blocks that may never have landed, and the retry re-marks them dirty.
* **One pipeline, N lanes.**  A streamer may be given multifd ``lanes``
  (N channels over the base channel's link).  A batch of more than one
  chunk then sends chunk ``k`` on lane ``k % N``, each lane with its own
  sender/writer pair and read-ahead buffer; every other batch runs the
  base ``channel`` as the single lane.  The single-channel stream is
  simply the one-lane case.
* **Adaptive stack hook** (optional, default-off): a
  :class:`~repro.net.delta.DeltaCache` re-encodes re-sent chunks as
  deltas in the send stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Optional, Sequence

import numpy as np

from ..net.channel import Channel
from ..net.delta import DeltaCache
from ..net.messages import BlockDataMsg, MemoryPagesMsg
from ..sim import Store
from ..storage.disk import PhysicalDisk
from ..storage.vbd import VirtualBlockDevice
from ..vm.memory import GuestMemory
from .config import MigrationConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import Environment

#: Chunks a lane may hold read-but-unsent (the reader→sender buffer).
#: Two lets the source disk read the next chunk while one is on the wire;
#: more would only buffer memory against a slow network.
PIPELINE_DEPTH = 2


@dataclass
class StreamStats:
    """Outcome of one streamed batch."""

    units_sent: int = 0
    bytes_sent: int = 0


def split_chunks(indices: np.ndarray, chunk_size: int) -> list[np.ndarray]:
    """Split ``indices`` into ceil(n/chunk_size) nearly-equal chunks.

    Boundaries match ``np.array_split`` exactly (the first ``n % nchunks``
    chunks get one extra element), but the chunks are plain views of the
    one input array — no temporary division arrays per call.  An empty
    input yields no chunks.
    """
    n = indices.size
    if n == 0:
        return []
    nchunks = (n + chunk_size - 1) // chunk_size
    base, extra = divmod(n, nchunks)
    chunks = []
    pos = 0
    for i in range(nchunks):
        step = base + 1 if i < extra else base
        chunks.append(indices[pos:pos + step])
        pos += step
    return chunks


class BlockStreamer:
    """Moves disk blocks source→destination with stage pipelining."""

    def __init__(
        self,
        env: "Environment",
        src_disk: PhysicalDisk,
        src_vbd: VirtualBlockDevice,
        dst_disk: PhysicalDisk,
        dst_vbd: VirtualBlockDevice,
        channel: Channel,
        config: MigrationConfig,
        lanes: Sequence[Channel] = (),
        delta: Optional[DeltaCache] = None,
    ) -> None:
        self.env = env
        self.src_disk = src_disk
        self.src_vbd = src_vbd
        self.dst_disk = dst_disk
        self.dst_vbd = dst_vbd
        self.channel = channel
        self.config = config
        #: Multifd lanes for multi-chunk batches; empty = base channel only.
        self.lanes = tuple(lanes)
        #: Optional XBZRLE-style cache; None = full-content sends.
        self.delta = delta
        #: Chunks of the in-flight (or last) batch, in send order, and
        #: whether the destination has confirmed each one written — so a
        #: failed batch can report exactly which blocks never landed.
        self._chunks: list[np.ndarray] = []
        self._written: list[bool] = []
        #: Called with each chunk's indices right after the destination
        #: confirms the write — the durable-bitmap hook that lets the
        #: source journal "these blocks are no longer pending".
        self.chunk_written = None

    def unconfirmed_indices(self) -> np.ndarray:
        """Blocks of the current batch not yet written at the destination.

        Each lane's writer is FIFO but lanes interleave, so confirmation
        is tracked per chunk.  A chunk still in flight is conservatively
        treated as lost (it may land, but within one link latency —
        negligible against any retry backoff).
        """
        pending = [chunk for chunk, done in zip(self._chunks, self._written)
                   if not done]
        if not pending:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(pending)

    def stream(self, indices: np.ndarray, category: str = "disk",
               limited: bool = True) -> Generator:
        """Transfer the given blocks; returns :class:`StreamStats`.

        ``yield from`` inside a process.  Completion means the destination
        has *written* every block, not merely that the source finished
        sending.

        The source disk is one spindle, so a single reader feeds the lanes
        in chunk order (lane ``k % N`` gets chunk ``k``); head-of-line
        blocking on a full lane buffer is deliberate, it is what one read
        stream into N sockets does.  Each lane has its own
        :data:`PIPELINE_DEPTH` buffer and sender/writer pair, and the batch
        commits only once every lane's writer has drained.
        """
        indices = np.asarray(indices, dtype=np.int64)
        self._chunks = []
        self._written = []
        if indices.size == 0:
            return StreamStats()

        env = self.env
        block_size = self.src_vbd.block_size
        chunks = self._chunks = split_chunks(indices, self.config.chunk_blocks)
        written = self._written = [False] * len(chunks)
        lanes = _lanes_for(self.lanes, self.channel, len(chunks))
        n = len(lanes)
        buffers = [Store(env, capacity=PIPELINE_DEPTH) for _ in range(n)]

        def reader(env):
            for k, chunk in enumerate(chunks):
                yield from self.src_disk.read(chunk.size * block_size)
                stamps, data = self.src_vbd.export_blocks(chunk)
                yield buffers[k % n].put(
                    BlockDataMsg(chunk, stamps, data, block_size))

        def sender(env, lane):
            chan = lanes[lane]
            sent_bytes = 0
            for _ in range(lane, len(chunks), n):
                msg = yield buffers[lane].get()
                if self.delta is not None:
                    yield from self.delta.encode(env, msg)
                span = env.tracer.begin("chunk", category="transfer",
                                        blocks=msg.nblocks, lane=lane)
                yield from chan.send(msg, category=category, limited=limited)
                env.tracer.end(span, bytes=msg.wire_nbytes)
                sent_bytes += msg.wire_nbytes
            return sent_bytes

        def writer(env, lane):
            chan = lanes[lane]
            for k in range(lane, len(chunks), n):
                msg = yield chan.recv()
                yield from self.dst_disk.write(msg.nblocks * block_size)
                self.dst_vbd.import_blocks(msg.indices, msg.stamps, msg.data)
                written[k] = True
                if self.chunk_written is not None:
                    self.chunk_written(msg.indices)

        read_proc = env.process(reader(env), name="stream:read")
        send_procs = [env.process(sender(env, lane),
                                  name=f"stream:send:fd{lane}")
                      for lane in range(n)]
        write_procs = [env.process(writer(env, lane),
                                   name=f"stream:write:fd{lane}")
                       for lane in range(n)]
        result = yield env.all_of([read_proc, *send_procs, *write_procs])
        return StreamStats(
            units_sent=int(indices.size),
            bytes_sent=sum(int(result[proc]) for proc in send_procs))


class PageStreamer:
    """Moves memory pages source→destination.

    Pages come straight from RAM, so there is no disk stage — the transfer
    is network-bound (plus a small per-page mapping cost folded into the
    message size), and each lane's sender exports its own chunks at send
    time.  Supports the same optional delta cache and multifd lanes as
    :class:`BlockStreamer`; the memory pre-copy rounds are where XBZRLE
    pays off most (hot pages are re-sent every round).
    """

    def __init__(
        self,
        env: "Environment",
        src_mem: GuestMemory,
        dst_mem: Optional[GuestMemory],
        channel: Channel,
        config: MigrationConfig,
        lanes: Sequence[Channel] = (),
        delta: Optional[DeltaCache] = None,
    ) -> None:
        self.env = env
        self.src_mem = src_mem
        self.dst_mem = dst_mem
        self.channel = channel
        self.config = config
        self.lanes = tuple(lanes)
        self.delta = delta

    def stream(self, indices: np.ndarray, category: str = "memory",
               limited: bool = True) -> Generator:
        """Transfer the given pages; returns :class:`StreamStats`."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size == 0:
            return StreamStats()

        env = self.env
        chunks = split_chunks(indices, self.config.mem_chunk_pages)
        lanes = _lanes_for(self.lanes, self.channel, len(chunks))
        n = len(lanes)

        def receiver(env, lane):
            chan = lanes[lane]
            for _ in range(lane, len(chunks), n):
                msg = yield chan.recv()
                if self.dst_mem is not None:
                    self.dst_mem.import_pages(msg.indices, msg.stamps)

        def sender(env, lane):
            chan = lanes[lane]
            sent_bytes = 0
            for chunk in chunks[lane::n]:
                stamps = self.src_mem.export_pages(chunk)
                msg = MemoryPagesMsg(chunk, stamps, self.src_mem.page_size)
                if self.delta is not None:
                    yield from self.delta.encode(env, msg)
                span = env.tracer.begin("chunk", category="transfer",
                                        pages=msg.npages, lane=lane)
                yield from chan.send(msg, category=category, limited=limited)
                env.tracer.end(span, bytes=msg.wire_nbytes)
                sent_bytes += msg.wire_nbytes
            return sent_bytes

        recv_procs = [env.process(receiver(env, lane),
                                  name=f"pages:recv:fd{lane}")
                      for lane in range(n)]
        send_procs = [env.process(sender(env, lane),
                                  name=f"pages:send:fd{lane}")
                      for lane in range(n)]
        result = yield env.all_of([*send_procs, *recv_procs])
        return StreamStats(
            units_sent=int(indices.size),
            bytes_sent=sum(int(result[proc]) for proc in send_procs))


def _lanes_for(lanes: tuple, channel: Channel, nchunks: int) -> tuple:
    """The lanes one batch runs on: the multifd lanes for a batch of more
    than one chunk, else the base channel alone (striping a single chunk
    would only add overhead)."""
    return lanes if lanes and nchunks > 1 else (channel,)
