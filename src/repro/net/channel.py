"""Typed message channel between two machines.

A :class:`Channel` is one direction of the migration control/data path:
messages are paced by an optional rate limiter, serialized onto the link,
delivered after the propagation latency into the receiver's mailbox, and
accounted against a per-category byte ledger (disk / memory / bitmap /
pull / control ...) so the "amount of migrated data" metric can be broken
down exactly as the paper reports it (Table I's "migrated data" row and
the ~protocol-overhead discussion of §VI-B).

Observability (see docs/OBSERVABILITY.md): every send also increments the
``chan.<category>.bytes`` counter on ``env.metrics``, mirroring the byte
ledger one-for-one — a traced run's counter totals equal the final
report's ``bytes_by_category`` exactly.

Invariants the rest of the stack relies on (see docs/TRANSFER.md):

* **In-order delivery.**  Messages arrive in send order, always.  The
  wire itself serialises sends, but per-message decompression delay could
  let a small message overtake a large one still being inflated — the
  ``_delivery_floor`` clamp forbids exactly that.  The transfer pipeline's
  fixed-count receive loops and post-copy's pull matching both assume it.
* **Exact byte accounting.**  Every wire byte lands in exactly one
  ``(channel, category)`` ledger cell, and ``link.bytes_sent`` equals the
  sum over all channels routed through that link — the cluster-level
  conservation audit (:mod:`repro.cluster.accounting`) enforces this,
  including across multifd lanes.
* **A send completes only for a live sender.**  A message that cleared
  the sender's own link before its host crashed still crosses the
  fabric (its bytes are booked), but if the sender crashed at any point
  during the send it raises :class:`~repro.errors.NetworkError` instead
  of returning to a process the crash killed.
* **Compression is size-gated.**  Payloads under
  :attr:`Channel.COMPRESS_THRESHOLD` skip the compressor entirely, so
  control chatter never pays codec CPU; the compressor's per-kind ratio
  is looked up by the send *category* (memory pages vs disk blocks vs
  already-delta-encoded chunks compress very differently).
"""

from __future__ import annotations

from collections import defaultdict
from functools import partial
from typing import TYPE_CHECKING, Generator, Optional, Union

from ..errors import NetworkError
from ..sim import URGENT, Event, Store
from .link import Link
from .messages import Message
from .ratelimit import NullLimiter, TokenBucket

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import Environment

Limiter = Union[TokenBucket, NullLimiter]


class Channel:
    """One direction of a reliable, ordered message pipe."""

    #: Messages smaller than this are sent uncompressed (headers, pulls,
    #: control traffic): the codec setup cost is not worth it.
    COMPRESS_THRESHOLD = 4096

    def __init__(
        self,
        env: "Environment",
        link: Link,
        limiter: Optional[Limiter] = None,
        name: str = "chan",
        compressor=None,
        sender=None,
    ) -> None:
        self.env = env
        self.link = link
        #: The :class:`~repro.vm.host.Host` whose process sends on this
        #: channel, or None for a sender that never crashes.
        self.sender = sender
        self.limiter: Limiter = limiter if limiter is not None else NullLimiter()
        self.name = name
        #: Optional :class:`~repro.net.compression.Compressor` applied to
        #: bulk payloads (paper §III-A's size-reduction suggestion).
        self.compressor = compressor
        self._mailbox: Store = Store(env)
        #: Byte ledger: category -> wire bytes sent.
        self.bytes_by_category: dict[str, int] = defaultdict(int)
        self.messages_sent = 0
        #: Payload bytes saved by compression (pre-wire minus on-wire).
        self.bytes_saved = 0
        #: Earliest time the next delivery may happen: deliveries are FIFO
        #: even when decompression gives messages different pipe delays.
        self._delivery_floor = 0.0
        #: Cached ``(registry, {category: counter})`` for the per-send byte
        #: metric: the counter handle is resolved once per category instead
        #: of name-building and registry-looking-up on every chunk.  Keyed
        #: on registry identity so instrumenting the env rebuilds the cache.
        self._counter_cache: tuple = (None, {})

    # -- sending -------------------------------------------------------------

    def send(self, message: Message, category: str = "control",
             priority: int = 0, limited: bool = True) -> Generator:
        """Transmit ``message``; ``yield from`` inside a process.

        Returns when the last byte is on the wire.  Delivery into the remote
        mailbox happens :attr:`Link.latency` later, preserving send order.
        ``limited=False`` bypasses the rate limiter (e.g. the tiny control
        handshakes, or post-copy traffic when only pre-copy is throttled).
        ``category`` labels the byte ledger entry.
        """
        if not isinstance(message, Message):
            raise NetworkError(f"cannot send non-Message {message!r}")
        payload = message.payload_nbytes
        decompress = 0.0
        if (self.compressor is not None
                and payload >= self.COMPRESS_THRESHOLD):
            yield self.env.timeout(self.compressor.compress_time(payload))
            wire_payload = self.compressor.wire_nbytes(payload)
            decompress = self.compressor.decompress_time(payload)
            self.bytes_saved += payload - wire_payload
            nbytes = wire_payload + (message.wire_nbytes - payload)
        else:
            nbytes = message.wire_nbytes
        sender = self.sender
        crashes = sender.crash_count if sender is not None else 0
        if limited:
            yield from self.limiter.consume(nbytes)
        try:
            yield from self.link.transmit(nbytes, priority=priority)
        except NetworkError as exc:
            raise NetworkError(f"{self.name}: send failed: {exc}") from exc
        self.bytes_by_category[category] += nbytes
        self.messages_sent += 1
        metrics = self.env.metrics
        registry, by_category = self._counter_cache
        if registry is not metrics:
            by_category = {}
            self._counter_cache = (metrics, by_category)
        counter = by_category.get(category)
        if counter is None:
            counter = by_category[category] = metrics.counter(
                f"chan.{category}.bytes")
        counter.inc(nbytes)
        if sender is not None and (sender.crashed
                                   or sender.crash_count != crashes):
            raise NetworkError(
                f"{self.name}: sender {sender.name!r} crashed with the "
                "send in flight")
        # The arrival is fixed by an URGENT event at ``now``, not here, so
        # that the delivery keeps its place in the event order.
        launch = Event(self.env)
        launch._value = None
        launch.callbacks.append(partial(self._deliver, message, decompress))
        self.env.schedule(launch, priority=URGENT)

    def _deliver(self, message: Message, decompress_time: float,
                 _launch: Event) -> None:
        now = self.env.now
        arrival = now + self.link.effective_latency + decompress_time
        # A small fast message must not overtake a large one still being
        # decompressed: clamp to the previous message's arrival.
        arrival = max(arrival, self._delivery_floor)
        self._delivery_floor = arrival
        if arrival > now:
            self.env.timeout(arrival - now, message).callbacks.append(
                self._land)
        else:
            self._mailbox.deposit(message)

    def _land(self, timeout: Event) -> None:
        self._mailbox.deposit(timeout._value)

    # -- receiving -------------------------------------------------------

    def recv(self) -> Event:
        """Event that fires with the next delivered message (``yield`` it)."""
        return self._mailbox.get()

    @property
    def pending(self) -> int:
        """Messages delivered but not yet received."""
        return len(self._mailbox)

    # -- accounting ------------------------------------------------------

    @property
    def total_bytes(self) -> int:
        """All wire bytes sent on this channel, headers included."""
        return sum(self.bytes_by_category.values())

    def ledger(self) -> dict[str, int]:
        """A copy of the per-category byte ledger."""
        return dict(self.bytes_by_category)

    def __repr__(self) -> str:
        return f"<Channel {self.name!r} {self.total_bytes} B sent>"

