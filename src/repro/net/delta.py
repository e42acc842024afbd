"""XBZRLE-style delta compression for re-sent blocks and pages.

Iterative pre-copy re-sends whatever the guest dirtied during the last
iteration.  A re-sent unit usually differs from its previously-sent
version in only a few bytes (a counter bumped, a record appended), so
QEMU's XBZRLE keeps a cache of previously-transferred page contents and
ships only an encoded run-length delta on a re-send.  The
:class:`DeltaCache` models exactly that economy for this simulator:

* **Bounded LRU keyed by unit index.**  The cache holds the (simulated)
  contents of the most recently sent ``capacity_units`` blocks or pages.
  Sending a unit inserts/refreshes its entry; inserting past capacity
  evicts the least-recently-sent entry.
* **Hit → delta encoding.**  A unit whose previous contents are still
  cached is charged ``unit_nbytes / delta_ratio`` wire bytes (plus its
  8-byte locator) instead of the full unit.  The generation-stamp disk
  model carries no real bytes, so the achieved ratio is a parameter
  (:attr:`delta_ratio`) rather than measured — docs/TRANSFER.md discusses
  the fidelity trade.
* **Miss or overflow → full send.**  Units never sent, or evicted under
  cache pressure, ship whole — delta compression degrades gracefully to
  the baseline when the write working set exceeds the cache.
* **CPU cost on hits only.**  The encoder scans old+new contents of every
  hit unit at :attr:`encode_throughput` bytes/s; misses just copy into
  the cache, which the model treats as free.

:meth:`encode` stamps the resulting on-wire payload size onto the
message's ``encoded_nbytes`` field (see :mod:`repro.net.messages`); the
receiver reconstructs full contents, so destination-side state is
unchanged.  The whole feature is driven by ``MigrationConfig.delta_cache_mb``
and is **off by default** — no :class:`DeltaCache` is ever constructed
then, keeping default runs bit-identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

import numpy as np

from ..errors import NetworkError
from ..units import MiB

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import Environment

#: Per-unit locator (index) bytes, matching the bulk messages' charge.
UNIT_LOCATOR_NBYTES = 8


def _distinct(indices: np.ndarray) -> bool:
    """True when no unit index repeats (strictly ascending is the common,
    cheap case)."""
    if indices.size < 2 or bool((indices[1:] > indices[:-1]).all()):
        return True
    return np.unique(indices).size == indices.size


class DeltaCache:
    """Bounded LRU of previously-sent unit contents, keyed by unit index
    (a block or page number, so never negative).

    Recency lives in flat int64 arrays rather than a dict node per unit.
    Every sent unit takes the next tick of a monotone send clock;
    ``_last_sent[unit]`` holds the tick of its latest send (0 = never)
    and ``_log[tick - _base - 1]`` records which unit each tick sent.
    Eviction advances a watermark ``_floor`` through the log: a unit is
    resident iff ``_last_sent[unit] > _floor``, and a log entry whose
    unit was re-sent later is stale and simply skipped.  Both arrays grow
    on demand, so the cache needs no device size up front.
    """

    def __init__(
        self,
        capacity_nbytes: float,
        unit_nbytes: int,
        delta_ratio: float = 8.0,
        encode_throughput: float = 800 * MiB,
        name: str = "delta",
    ) -> None:
        if capacity_nbytes <= 0:
            raise NetworkError("delta cache capacity must be positive")
        if unit_nbytes <= 0:
            raise NetworkError("delta cache unit size must be positive")
        if delta_ratio < 1.0:
            raise NetworkError(
                f"delta_ratio must be >= 1, got {delta_ratio}")
        if encode_throughput <= 0:
            raise NetworkError("encode_throughput must be positive")
        self.unit_nbytes = int(unit_nbytes)
        #: Entries the cache can hold (at least one, so a 1-unit cache is
        #: usable in tests and degenerate configs).
        self.capacity_units = max(int(capacity_nbytes) // self.unit_nbytes, 1)
        self.delta_ratio = float(delta_ratio)
        self.encode_throughput = float(encode_throughput)
        self.name = name
        self._counter_names = tuple(
            f"{name}.{stat}" for stat in ("hits", "misses", "bytes_saved"))
        #: Encoded size of one hit unit: changed bytes survive the delta.
        self.delta_unit_nbytes = max(
            int(self.unit_nbytes / self.delta_ratio), 1)
        # -- recency state (see the class docstring) ----------------------
        self._last_sent = np.zeros(0, dtype=np.int64)
        self._log = np.zeros(0, dtype=np.int64)
        self._base = 0
        self._clock = 0
        self._floor = 0
        self._resident = 0
        # -- statistics (surfaced in report.extra and obs metrics) --------
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Payload bytes the delta encoding avoided sending.
        self.bytes_saved = 0
        #: Sender CPU seconds spent scanning hit units.
        self.encode_seconds = 0.0

    def __len__(self) -> int:
        return self._resident

    def encode(self, env: "Environment", msg) -> Generator:
        """Delta-encode one bulk message in place; ``yield from`` it.

        Charges the encoder's CPU time on the sender, updates the LRU and
        statistics, and stamps ``msg.encoded_nbytes`` with the on-wire
        payload size.  Misses leave their units at full size, so a run
        whose working set never fits the cache converges to baseline
        wire bytes (plus the encoder finding no hits to scan = no time).
        """
        indices = np.asarray(msg.indices, dtype=np.int64)
        count = int(indices.size)
        self._reserve(indices, count)
        hits = int(np.count_nonzero(
            self._last_sent[indices] > self._floor))
        if (count - hits <= self.capacity_units - self._resident
                and _distinct(indices)):
            # Every miss fits the free room: no eviction, so each unit's
            # outcome is its residency before the message.
            clock = self._clock
            start = clock - self._base
            self._last_sent[indices] = np.arange(
                clock + 1, clock + count + 1)
            self._log[start:start + count] = indices
            self._clock = clock + count
            self._resident += count - hits
        else:
            hits = self._walk(indices)
        misses = count - hits
        encoded = (hits * (self.delta_unit_nbytes + UNIT_LOCATOR_NBYTES)
                   + misses * (self.unit_nbytes + UNIT_LOCATOR_NBYTES))
        saved = msg.payload_nbytes - encoded
        msg.encoded_nbytes = encoded
        self.hits += hits
        self.misses += misses
        self.bytes_saved += saved
        hits_name, misses_name, saved_name = self._counter_names
        env.metrics.counter(hits_name).inc(hits)
        env.metrics.counter(misses_name).inc(misses)
        env.metrics.counter(saved_name).inc(saved)
        if hits:
            encode_time = hits * self.unit_nbytes / self.encode_throughput
            self.encode_seconds += encode_time
            yield env.timeout(encode_time)

    def _walk(self, indices: np.ndarray) -> int:
        """Send ``indices`` one unit at a time in exact LRU order (a miss
        past capacity evicts the coldest resident unit); returns the hits.
        """
        # memoryviews share the arrays' buffers and index to plain ints.
        last_sent = memoryview(self._last_sent)
        log = memoryview(self._log)
        base, clock, floor = self._base, self._clock, self._floor
        resident, capacity = self._resident, self.capacity_units
        hits = evictions = 0
        for index in indices.tolist():
            if last_sent[index] > floor:
                hits += 1
            else:
                resident += 1
            clock += 1
            last_sent[index] = clock
            log[clock - base - 1] = index
            if resident > capacity:
                # Advance the watermark past stale ticks to the coldest
                # live one; never the unit just sent, as capacity >= 1.
                floor += 1
                while last_sent[log[floor - base - 1]] != floor:
                    floor += 1
                resident -= 1
                evictions += 1
        self._clock, self._floor, self._resident = clock, floor, resident
        self.evictions += evictions
        return hits

    def _reserve(self, indices: np.ndarray, count: int) -> None:
        """Grow ``_last_sent`` to cover ``indices`` and make room in the
        log for ``count`` more ticks."""
        top = int(indices.max()) if count else -1
        if top >= self._last_sent.size:
            grown = np.zeros(max(top + 1, 2 * self._last_sent.size),
                             dtype=np.int64)
            grown[:self._last_sent.size] = self._last_sent
            self._last_sent = grown
        if self._clock - self._base + count <= self._log.size:
            return
        # Compact: keep only the live ticks (one per resident unit, in
        # recency order) and renumber them from the watermark up.
        floor = self._floor
        window = self._log[floor - self._base:self._clock - self._base]
        live = window[self._last_sent[window]
                      == np.arange(floor + 1, self._clock + 1)]
        needed = live.size + count
        if 2 * needed > self._log.size:
            self._log = np.zeros(2 * needed, dtype=np.int64)
        self._log[:live.size] = live
        self._base = floor
        self._clock = floor + live.size
        self._last_sent[live] = np.arange(floor + 1, self._clock + 1)

    def summary(self) -> dict:
        """JSON-friendly statistics for ``report.extra``."""
        return dict(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            bytes_saved=int(self.bytes_saved),
            encode_seconds=self.encode_seconds,
            capacity_units=self.capacity_units,
            resident_units=self._resident,
        )

    def __repr__(self) -> str:
        return (f"<DeltaCache {self.name!r} {self._resident}/"
                f"{self.capacity_units} units, {self.hits} hits>")
