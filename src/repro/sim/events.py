"""Core event primitives for the discrete-event engine.

The design follows the classic *SimPy* shape: an :class:`Event` is a one-shot
box that is eventually *triggered* (succeeded or failed) and, once the
environment processes it, invokes its callbacks.  Processes are generators
that ``yield`` events; the engine resumes them when the event fires.

The engine is small, but it is not off the hot path: event dispatch is the
largest single layer of every benchmark workload (40–61 % of wall time), so
the per-event paths — ``Timeout`` construction, ``Process._resume``, the
``Resource`` grant — are written as fast lanes, and an event that is
provably the next one dispatched runs inline (see ``Environment``).  Bulk
work (bitmaps, block scans) stays in vectorized NumPy.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Environment

#: Scheduling priorities: urgent events fire before normal ones at equal time.
URGENT = 0
NORMAL = 1

#: Sentinel for "not yet triggered".
PENDING = object()


class Interrupt(Exception):
    """Thrown *into* a process when another process interrupts it.

    The ``cause`` attribute carries whatever object the interrupter passed.
    """

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class Event:
    """A one-shot occurrence that processes may wait on.

    Lifecycle: *pending* → *triggered* (``succeed``/``fail``) → *processed*
    (callbacks have run).  Triggering twice is an error.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callbacks invoked with this event when it is processed.  Becomes
        #: ``None`` after processing — appending then is a bug.
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        #: Failed events whose exception was delivered to at least one
        #: waiter are "defused"; an un-defused failure crashes the run.
        self._defused = False

    # -- state inspection --------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not be processed yet)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been invoked."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception, for failed events)."""
        if self._value is PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering --------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        env = self.env
        eid = env._eid = env._eid + 1
        # Triggered events fire *now*, which the engine keeps at or before
        # the calendar's current bucket — straight to the near heap.
        heappush(env._queue, (env._now, NORMAL, eid, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception delivered to waiters."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        env = self.env
        eid = env._eid = env._eid + 1
        heappush(env._queue, (env._now, NORMAL, eid, self))
        return self

    def trigger(self, event: "Event") -> None:
        """Copy another event's outcome into this one (callback helper)."""
        if event._ok:
            self.succeed(event._value)
        else:
            event._defused = True
            self.fail(event._value)

    def defuse(self) -> None:
        """Mark a failed event as handled so it does not crash the run."""
        self._defused = True

    def __repr__(self) -> str:
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay.

    Timeouts are the single most-constructed event type (every modelled
    latency is one), so construction is a fast lane: the triggered state
    is written directly and the entry is pushed on the heap or filed in
    its far calendar bucket inline, skipping the generic
    ``Event.__init__``/``Environment.schedule``/``_defer`` calls (and the
    redundant second delay validation).
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        self.env = env
        self.callbacks = []
        self._ok = True
        self._value = value
        self._defused = False
        self.delay = delay
        eid = env._eid = env._eid + 1
        when = env._now + delay
        width = env._cal_width
        if width:
            key = int(when / width)
            if key > env._cal_k:
                # Environment._defer, inlined: file in the far bucket.
                bucket = env._far.get(key)
                if bucket is None:
                    env._far[key] = [(when, NORMAL, eid, self)]
                    heappush(env._far_keys, key)
                else:
                    bucket.append((when, NORMAL, eid, self))
                env._far_count += 1
            else:
                heappush(env._queue, (when, NORMAL, eid, self))
        else:
            heappush(env._queue, (when, NORMAL, eid, self))

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay!r}>"


class AllOf(Event):
    """Fires when *all* constituent events have fired, or fails with the
    first constituent failure.

    The value is a dict mapping each *processed* constituent event to its
    value, in original order.
    """

    __slots__ = ("_events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise SimulationError("cannot mix events from different environments")

        if not self._events:
            self.succeed(self._collect())
            return

        for event in self._events:
            if event.processed:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _collect(self) -> dict[Event, Any]:
        # Only *processed* events count as having fired: a Timeout is
        # "triggered" (has a value) from construction, but it has not
        # happened until the loop processes it.
        return {e: e.value for e in self._events if e.processed}

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event.defuse()  # condition already resolved; swallow
            return
        self._count += 1
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        elif self._count == len(self._events):
            self.succeed(self._collect())
