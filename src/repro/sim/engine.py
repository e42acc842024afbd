"""The discrete-event simulation environment (event loop)."""

from __future__ import annotations

import heapq
from typing import Any, Iterable, Optional

from ..errors import SimulationError, StaleSchedulingError
from ..obs.metrics import NULL_METRICS
from ..obs.tracer import NULL_TRACER
from .events import AllOf, Event, Timeout, NORMAL
from .process import Process, ProcessGenerator


class Environment:
    """Owns simulated time and the pending-event queue.

    Typical use::

        env = Environment()

        def worker(env):
            yield env.timeout(1.0)
            return "done"

        proc = env.process(worker(env))
        env.run()
        assert env.now == 1.0 and proc.value == "done"

    Every environment carries an observability pair — :attr:`tracer` and
    :attr:`metrics` — initialised to no-op singletons so instrumented
    code can call them unconditionally at zero recording cost.  Install
    live instances with :func:`repro.obs.install` to start recording.

    **Inline dispatch.**  The three dispatch loops in :meth:`run` keep
    their bodies inline (local bindings; the loop runs once per event and
    dominates wall-clock at cluster scale), and each records in
    :attr:`_sole` whether the event it is dispatching has exactly one
    callback.  While that holds and the callback is a running process,
    the next thing the loop would do is pop the heap head: far calendar
    buckets only hold times later than ``now``, a ``run(until=<event>)``
    stop hook would be a second callback (so ``_sole`` is false while it
    is present), and ``now <= horizon`` under ``run(until=<t>)``, so the
    loop always pops an entry at ``now``.  An entry at ``now`` that is
    the heap head is therefore provably the next event dispatched, and
    :meth:`Process._resume <repro.sim.process.Process._resume>` and
    :meth:`Resource.acquire <repro.sim.resources.Resource.acquire>`
    dispatch it inline: the event ids, the order and
    :attr:`events_processed` are unchanged, only the heap round trip
    goes.  :meth:`step` never sets ``_sole``, so it never dispatches
    inline; it is the reference that
    ``tests/sim/test_inline_dispatch.py`` checks :meth:`run` against.

    **Calendar queue.**  Under Timeout-dominated load the pending set can
    grow to tens of thousands of entries, and every push/pop then pays
    ``O(log n)`` against the full heap.  When the queue crosses
    ``calendar_threshold`` entries the environment *engages* a two-level
    scheme: a small near-term heap (the current time bucket and earlier)
    plus far-term buckets keyed by ``int(t / width)``.  Far inserts are a
    dict lookup + list append; when the near heap drains, the next whole
    bucket is heapified in at once.  Dispatch order is provably unchanged:
    ``int(t / width)`` is monotone in ``t``, buckets are consumed in key
    order, and within a bucket the original ``(time, priority, seq)``
    tuples restore the exact global order — so the bit-identical
    equivalence gate holds with the calendar engaged or not.
    """

    #: Engage the calendar when the heap outgrows this many entries
    #: (constructor default); disengage below ``_CAL_LO`` to keep tiny
    #: simulations on the plain-heap fast path.
    _CAL_LO = 256
    #: Target mean bucket occupancy when sizing the bucket width.
    _CAL_OCCUPANCY = 64

    __slots__ = ("_now", "_queue", "_eid", "_sole", "_popped",
                 "tracer", "metrics", "events_processed",
                 "_far", "_far_keys", "_far_count",
                 "_cal_width", "_cal_k", "_cal_threshold")

    def __init__(self, initial_time: float = 0.0,
                 calendar_threshold: Optional[int] = 2048) -> None:
        self._now = float(initial_time)
        #: Heap of (time, priority, sequence, event).
        self._queue: list[tuple[float, int, int, Event]] = []
        #: Far-term calendar buckets: bucket key -> list of heap entries.
        self._far: dict[int, list[tuple[float, int, int, Event]]] = {}
        #: Min-heap of non-empty far bucket keys.
        self._far_keys: list[int] = []
        self._far_count = 0
        #: Bucket width in simulated seconds; 0.0 means "calendar off"
        #: (every insert goes straight to the heap, as before).
        self._cal_width = 0.0
        #: Highest bucket key already merged into the near heap.
        self._cal_k = 0
        self._cal_threshold = int(calendar_threshold or 0)
        self._eid = 0
        #: True while a :meth:`run` loop dispatches an event with exactly
        #: one callback (see "Inline dispatch" above); never set by
        #: :meth:`step`.
        self._sole = False
        #: Span/instant recorder (:class:`repro.obs.Tracer` when installed).
        self.tracer = NULL_TRACER
        #: Counter/gauge/histogram registry
        #: (:class:`repro.obs.MetricsRegistry` when installed).
        self.metrics = NULL_METRICS
        #: Events processed since construction (engine-level load signal,
        #: kept as a plain int so the hot loop stays cheap either way).
        self.events_processed = 0
        #: Of those, the events dispatched off the heap by :meth:`step`
        #: or a :meth:`run` loop (the rest were dispatched inline).
        self._popped = 0

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_inline(self) -> int:
        """Events dispatched inline, without a heap round trip, since
        construction (a share of :attr:`events_processed`)."""
        return self.events_processed - self._popped

    # -- event factories -------------------------------------------------

    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` simulated seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator, name: Optional[str] = None) -> Process:
        """Start a new process from a generator."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling --------------------------------------------------------

    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        """Queue ``event`` to be processed ``delay`` seconds from now."""
        if delay < 0:
            raise StaleSchedulingError(
                f"cannot schedule {event!r} {delay!r}s into the past")
        self._eid += 1
        when = self._now + delay
        entry = (when, priority, self._eid, event)
        width = self._cal_width
        if width:
            key = int(when / width)
            if key > self._cal_k:
                self._defer(key, entry)
                return
        heapq.heappush(self._queue, entry)

    # -- calendar-queue internals -----------------------------------------

    def _defer(self, key: int, entry: tuple) -> None:
        """File ``entry`` in the far-term bucket ``key`` (calendar engaged)."""
        bucket = self._far.get(key)
        if bucket is None:
            self._far[key] = [entry]
            heapq.heappush(self._far_keys, key)
        else:
            bucket.append(entry)
        self._far_count += 1

    def _pull_far(self, limit_key: Optional[int] = None) -> bool:
        """Merge the earliest far bucket into the near heap.

        Returns False (and merges nothing) when no buckets remain or the
        earliest bucket's key exceeds ``limit_key``.  The near heap's list
        identity is preserved — the inlined ``_run`` loops hold an alias.
        """
        if not self._far_count:
            return False
        key = self._far_keys[0]
        if limit_key is not None and key > limit_key:
            return False
        heapq.heappop(self._far_keys)
        bucket = self._far.pop(key)
        self._far_count -= len(bucket)
        queue = self._queue
        queue.extend(bucket)
        heapq.heapify(queue)
        self._cal_k = key
        return True

    def _engage(self, width: Optional[float] = None) -> None:
        """Switch to calendar mode, repartitioning the pending heap.

        ``width`` is normally derived from the current queue's time span
        (targeting ``_CAL_OCCUPANCY`` entries per bucket); tests may pass
        an explicit width.  A no-op when the span is degenerate.
        """
        queue = self._queue
        if width is None:
            if len(queue) < 2:
                return
            span = max(entry[0] for entry in queue) - self._now
            if span <= 0.0:
                return
            width = max(span * self._CAL_OCCUPANCY / len(queue),
                        span / 4096.0)
        if width <= 0.0:
            return
        self._cal_width = width
        self._cal_k = key0 = int(self._now / width)
        near = []
        for entry in queue:
            key = int(entry[0] / width)
            if key <= key0:
                near.append(entry)
            else:
                self._defer(key, entry)
        queue[:] = near
        heapq.heapify(queue)

    def _disengage(self) -> None:
        """Flush every far bucket back into the heap and turn the calendar off."""
        if self._far_count:
            queue = self._queue
            for bucket in self._far.values():
                queue.extend(bucket)
            heapq.heapify(queue)
        self._far.clear()
        self._far_keys.clear()
        self._far_count = 0
        self._cal_width = 0.0
        self._cal_k = 0

    def _maybe_adapt(self) -> None:
        """Periodic load check from the dispatch loops: engage the calendar
        above the threshold, drop back to the plain heap when the pending
        set shrinks below ``_CAL_LO``."""
        if self._cal_width:
            if len(self._queue) + self._far_count < self._CAL_LO:
                self._disengage()
        elif self._cal_threshold and len(self._queue) > self._cal_threshold:
            self._engage()

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if the queue is empty."""
        if not self._queue and self._far_count:
            self._pull_far()
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        if not self._queue and self._far_count:
            self._pull_far()
        try:
            when, _prio, _eid, event = heapq.heappop(self._queue)
        except IndexError:
            raise SimulationError("no more events to process") from None

        self._now = when
        self.events_processed += 1
        self._popped += 1
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            # A failure nobody waited on: surface it rather than losing it.
            if isinstance(event._value, BaseException):
                raise event._value
            raise SimulationError(f"unhandled event failure: {event._value!r}")

    def run(self, until: "float | Event | None" = None) -> Any:
        """Drive the simulation.

        * ``until=None`` — run until no events remain.
        * ``until=<number>`` — run until the clock reaches that time.
        * ``until=<Event>`` — run until that event is processed and return
          its value (raising if it failed).
        """
        return self._run(until)

    def _run(self, until: "float | Event | None") -> Any:
        queue = self._queue
        heappop = heapq.heappop
        processed = 0

        if until is None:
            try:
                while queue or self._far_count:
                    while queue:
                        when, _prio, _eid, event = heappop(queue)
                        self._now = when
                        processed += 1
                        callbacks, event.callbacks = event.callbacks, None
                        self._sole = len(callbacks) == 1
                        for callback in callbacks:
                            callback(event)
                        if not event._ok and not event._defused:
                            if isinstance(event._value, BaseException):
                                raise event._value
                            raise SimulationError(
                                f"unhandled event failure: {event._value!r}")
                        if not processed & 2047:
                            self._maybe_adapt()
                    if not self._pull_far():
                        break
            finally:
                self._sole = False
                self.events_processed += processed
                self._popped += processed
            return None

        if isinstance(until, Event):
            stop_event = until
            if stop_event.callbacks is not None:  # not yet processed
                done = [False]
                stop_event.callbacks.append(
                    lambda _e: done.__setitem__(0, True))
                try:
                    while not done[0]:
                        if not queue and not self._pull_far():
                            raise SimulationError(
                                f"run(until={stop_event!r}) but the event "
                                f"queue drained first")
                        when, _prio, _eid, event = heappop(queue)
                        self._now = when
                        processed += 1
                        callbacks, event.callbacks = event.callbacks, None
                        self._sole = len(callbacks) == 1
                        for callback in callbacks:
                            callback(event)
                        if not event._ok and not event._defused:
                            if isinstance(event._value, BaseException):
                                raise event._value
                            raise SimulationError(
                                f"unhandled event failure: {event._value!r}")
                        if not processed & 2047:
                            self._maybe_adapt()
                finally:
                    self._sole = False
                    self.events_processed += processed
                    self._popped += processed
            if not stop_event._ok:
                # Defuse in the already-processed case too: raising here
                # hands the failure to the caller, so the watchdog in
                # step() must not surface it a second time.
                stop_event.defuse()
                raise stop_event.value
            return stop_event.value

        horizon = float(until)
        if horizon < self._now:
            raise StaleSchedulingError(
                f"cannot run until {horizon!r}; clock is already at {self._now!r}")
        try:
            while True:
                while queue and queue[0][0] <= horizon:
                    when, _prio, _eid, event = heappop(queue)
                    self._now = when
                    processed += 1
                    callbacks, event.callbacks = event.callbacks, None
                    self._sole = len(callbacks) == 1
                    for callback in callbacks:
                        callback(event)
                    if not event._ok and not event._defused:
                        if isinstance(event._value, BaseException):
                            raise event._value
                        raise SimulationError(
                            f"unhandled event failure: {event._value!r}")
                    if not processed & 2047:
                        self._maybe_adapt()
                # int(t / width) is monotone in t, so every event at or
                # before the horizon lives in a bucket keyed at or before
                # int(horizon / width); pulling up to that key can never
                # strand an in-horizon event in the far calendar.
                width = self._cal_width
                if not width or not self._pull_far(int(horizon / width)):
                    break
        finally:
            self._sole = False
            self.events_processed += processed
            self._popped += processed
        self._now = horizon
        width = self._cal_width
        if width:
            # The clock jumped past dispatched events, so re-anchor the
            # current-bucket key: triggered events insert at ``now`` on the
            # near heap, which is only order-safe while no far bucket at or
            # before ``int(now / width)`` exists (all such buckets were
            # pulled above).
            key = int(horizon / width)
            if key > self._cal_k:
                self._cal_k = key
        return None
