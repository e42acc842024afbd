"""Token-bucket rate limiting for the migration stream.

The paper's §VI-C-3 experiment limits "the network bandwidth used by the
migration process in the pre-copy phase" to halve the impact on the guest's
disk throughput, at the cost of a ~37 % longer pre-copy.  The limiter paces
*only* flows that opt in — guest service traffic is never throttled.

**Debt semantics** (the invariant consumers rely on): a blocking
:meth:`TokenBucket.consume` books its bytes *immediately* — the token
count may go negative — and then sleeps exactly ``deficit / rate``.
Consequences:

* aggregate throughput is paced to ``rate`` even for single requests
  larger than the burst (they simply go deeper into debt and sleep
  longer);
* concurrent consumers are served in arrival order, because each books
  its debt before sleeping — a later consumer always sees the earlier
  one's debt and sleeps behind it;
* one bucket instance can safely be **shared** across channels: multifd
  lanes deliberately share the migration limiter so the token
  bucket paces the aggregate stripe throughput, not N× the configured
  rate (see docs/TRANSFER.md).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from ..errors import NetworkError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import Environment


class TokenBucket:
    """Classic token bucket: ``rate`` bytes/s, up to ``burst`` banked bytes.

    ``consume(n)`` is a generator to ``yield from``; it returns immediately
    while tokens last and otherwise waits exactly long enough for the
    deficit to refill.  Consumers are served in the order they block.
    """

    def __init__(self, env: "Environment", rate: float, burst: float | None = None) -> None:
        if rate <= 0:
            raise NetworkError(f"rate must be positive, got {rate}")
        self.env = env
        self.rate = float(rate)
        self.burst = float(burst) if burst is not None else float(rate)
        if self.burst <= 0:
            raise NetworkError(f"burst must be positive, got {self.burst}")
        self._tokens = self.burst
        self._last_refill = env.now
        self.consumed = 0.0

    def _refill(self) -> None:
        now = self.env.now
        elapsed = now - self._last_refill
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
            self._last_refill = now

    def consume(self, nbytes: float) -> Generator:
        """Blocking consume; ``yield from`` inside a process.

        Uses the *debt* formulation: the consumption is booked immediately
        (tokens may go negative) and the caller waits until the deficit has
        refilled.  This paces aggregate throughput to ``rate`` even for
        requests larger than the burst, and serves concurrent consumers in
        arrival order because each books its debt before sleeping.
        """
        if nbytes < 0:
            raise NetworkError(f"negative consume {nbytes}")
        self._refill()
        self._tokens -= nbytes
        self.consumed += nbytes
        if self._tokens < 0:
            yield self.env.timeout(-self._tokens / self.rate)

    @property
    def available(self) -> float:
        """Tokens currently available (refreshes the bucket first)."""
        self._refill()
        return self._tokens


class NullLimiter:
    """A limiter that never delays — used when migration bandwidth is uncapped."""

    rate = float("inf")

    def __init__(self) -> None:
        self.consumed = 0.0

    def consume(self, nbytes: float) -> Generator:
        self.consumed += nbytes
        return
        yield  # pragma: no cover - makes this a generator function
