"""Sharded simulation: one event heap per rack, conservatively synced.

At datacenter scale (ROADMAP: 1,000+ hosts, 10,000+ VMs) a single
:class:`~repro.sim.engine.Environment` serializes every rack's events
through one heap and walks one giant object graph, which is where the
wall clock goes.  :class:`ShardedEngine` runs one Environment per rack
*shard* and advances them in **conservative lookahead windows**
(Chandy–Misra–Bryant style, time-stepped):

* Racks only influence each other across the inter-rack fabric, whose
  minimum one-way link latency ``L`` is the cluster's
  :data:`~repro.cluster.testbed.LINK_LATENCY`.  No event a shard
  executes at time ``t`` can affect another shard before ``t + L``.
* Each iteration computes ``t_next`` — the earliest pending event (or
  queued cross-shard message) across all shards — and runs every shard
  up to ``horizon = t_next + L`` in a fixed, deterministic shard order.
  All shard clocks meet at the boundary, messages due by then are
  applied, and the loop repeats.
* Cross-shard interactions travel through :meth:`send`: a message
  carries its earliest-visibility time and a callback; it is applied at
  the first window boundary at or after that time (arrival visibility
  is quantized to boundaries — deterministic, and never early).

**Application lookahead fast path.**  Message *sources* (e.g. in-flight
cross-rack migrations) register via :meth:`add_source`/
:meth:`remove_source`.  While no source is registered and no message is
queued, no shard can possibly influence another, so the window widens
to the caller's ``until`` — each shard then runs its whole span back to
back on a small heap with a hot cache, which is where the sharded
engine's throughput win over the monolithic engine comes from (the
conservative L-windows are only paid while cross-rack traffic is
actually in flight).

Determinism: shard order is fixed (registration order), window
boundaries are a pure function of event times, and messages apply in
(visibility time, sequence number) order — two runs of the same
scenario produce identical states, reports, and byte ledgers.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Optional

from ..errors import SimulationError
from .engine import Environment

#: A cross-shard message callback: ``fn(env)`` runs with the *target*
#: shard's environment, at that shard's current (boundary) time.
MessageFn = Callable[[Environment], None]


class Shard:
    """One rack-local simulation: a name, an Environment, an inbox."""

    __slots__ = ("name", "index", "env", "inbox")

    def __init__(self, name: str, env: Environment, index: int) -> None:
        self.name = name
        self.index = index
        self.env = env
        #: Heap of (visible_at, seq, fn) cross-shard messages awaiting
        #: a window boundary >= visible_at.
        self.inbox: list[tuple[float, int, MessageFn]] = []

    def __repr__(self) -> str:
        return (f"<Shard {self.name!r} now={self.env.now:g} "
                f"inbox={len(self.inbox)}>")


class ShardedEngine:
    """Coordinates per-shard Environments under conservative lookahead."""

    def __init__(self, lookahead: float) -> None:
        if lookahead <= 0.0:
            raise SimulationError(
                f"lookahead must be positive, got {lookahead!r}")
        self.lookahead = float(lookahead)
        self._shards: list[Shard] = []
        self._by_name: dict[str, Shard] = {}
        self._seq = 0
        #: Registered cross-shard message sources (in-flight cross-rack
        #: migrations and the like).  While zero, windows widen to the
        #: caller's horizon.
        self._sources = 0
        #: Windows executed (1 window = every shard advanced once).
        self.windows = 0
        #: Messages delivered across shards.
        self.messages_delivered = 0

    # -- construction ------------------------------------------------------

    def add_shard(self, name: str, env: Optional[Environment] = None
                  ) -> Shard:
        """Register a shard; order of registration is execution order."""
        if name in self._by_name:
            raise SimulationError(f"duplicate shard name {name!r}")
        shard = Shard(name, env if env is not None else Environment(),
                      len(self._shards))
        self._shards.append(shard)
        self._by_name[name] = shard
        return shard

    @property
    def shards(self) -> list[Shard]:
        return list(self._shards)

    def shard(self, name: str) -> Shard:
        try:
            return self._by_name[name]
        except KeyError:
            raise SimulationError(f"no shard named {name!r}") from None

    # -- cross-shard messaging ---------------------------------------------

    def send(self, target: str, visible_at: float, fn: MessageFn) -> None:
        """Queue ``fn`` to run in shard ``target`` at the first window
        boundary at or after ``visible_at``.

        Safe to call from inside any shard's processes (that is the
        normal case: a cross-rack migration completing in its source
        shard hands the domain to the destination shard) — but only
        while a source is registered via :meth:`add_source`.  That
        contract is what makes the wide-window fast path sound: with no
        sources live, the coordinator *knows* no send can happen.
        """
        if self._sources <= 0:
            raise SimulationError(
                "send() without a registered source; wrap cross-shard "
                "activity in add_source()/remove_source()")
        shard = self.shard(target)
        self._seq += 1
        heapq.heappush(shard.inbox, (float(visible_at), self._seq, fn))

    def add_source(self) -> None:
        """Declare a live cross-shard message source (disables the
        wide-window fast path until :meth:`remove_source`)."""
        self._sources += 1

    def remove_source(self) -> None:
        if self._sources <= 0:
            raise SimulationError("remove_source() without add_source()")
        self._sources -= 1

    @property
    def quiescent(self) -> bool:
        """True when no cross-shard interaction is possible right now."""
        return self._sources == 0 and not any(
            shard.inbox for shard in self._shards)

    # -- the conservative loop ---------------------------------------------

    def _deliver_due(self, shard: Shard) -> None:
        """Apply inbox messages visible by the shard's current time."""
        inbox = shard.inbox
        env = shard.env
        while inbox and inbox[0][0] <= env.now:
            _when, _seq, fn = heapq.heappop(inbox)
            self.messages_delivered += 1
            fn(env)

    def _t_next(self) -> float:
        """Earliest pending work (event or message) across all shards."""
        t = float("inf")
        for shard in self._shards:
            peek = shard.env.peek()
            if peek < t:
                t = peek
            if shard.inbox and shard.inbox[0][0] < t:
                t = shard.inbox[0][0]
        return t

    def step_window(self, until: Optional[float] = None) -> bool:
        """Execute one synchronization window; False when no work was
        available (every queue idle and every inbox empty, or the next
        work item lies beyond ``until``)."""
        if not self._shards:
            raise SimulationError("no shards registered")
        shards = self._shards
        t_next = self._t_next()
        if t_next == float("inf"):
            return False
        if until is not None and t_next > until:
            return False
        if self.quiescent:
            # No possible cross-shard influence (send() requires a
            # registered source, and there are none): run each shard's
            # whole remaining span in one hot pass.
            horizon = math.inf
        else:
            horizon = t_next + self.lookahead
        if until is not None and horizon > until:
            horizon = float(until)
        self.windows += 1
        for shard in shards:
            self._deliver_due(shard)
            if shard.env.now < horizon or shard.env.peek() <= horizon:
                shard.env.run(until=horizon)
        return True

    def run(self, until: Optional[float] = None) -> None:
        """Advance every shard to ``until`` (or until all work drains).

        With ``until`` given, all shard clocks equal it on return and
        every message visible by then has been applied.  With
        ``until=None`` the engine runs until no shard holds a pending
        event or message — beware perpetual background processes, which
        make that never happen (use a horizon or :meth:`step_window`).
        """
        while self.step_window(until=until):
            pass
        # Land every clock on the requested horizon and flush messages
        # that became visible by it.
        if until is not None:
            final = float(until)
            for shard in self._shards:
                if shard.env.now < final:
                    shard.env.run(until=final)
                self._deliver_due(shard)

    # -- merged views ------------------------------------------------------

    @property
    def now(self) -> float:
        """The trailing clock across shards (all equal at boundaries)."""
        if not self._shards:
            return 0.0
        return min(shard.env.now for shard in self._shards)

    @property
    def events_processed(self) -> int:
        """Total events dispatched across every shard."""
        return sum(shard.env.events_processed for shard in self._shards)

    def __repr__(self) -> str:
        return (f"<ShardedEngine {len(self._shards)} shards "
                f"lookahead={self.lookahead:g} windows={self.windows}>")
