"""Shared-resource primitives: :class:`Spindle`, :class:`Resource` and
:class:`Store`.

These model contention — a disk or a link wire that serves one
operation at a time (a :class:`Spindle`), a bounded pool of admission
slots (a :class:`Resource`), a queue of migration messages (a
:class:`Store`).
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from collections import deque
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Optional

from ..errors import SimulationError
from .events import Event, NORMAL, PENDING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Environment


class Spindle:
    """A capacity-1 server that grants by priority: a disk spindle or a
    link wire.

    A process takes the server with :meth:`acquire`, yields the returned
    grant as its very next statement (a grant that is already processed
    may skip that yield), and hands the grant back to :meth:`release`
    when done (in a ``finally``)::

        grant = spindle.acquire(priority)
        try:
            if grant.callbacks is not None:  # else granted inline
                yield grant
            yield env.timeout(service_time)
        finally:
            spindle.release(grant)

    Waiters are granted lowest ``priority`` first, and in arrival order
    within one priority.  That is the order a ``Resource(env,
    capacity=1)`` serves, and the spindle serves it with the same event
    ids and the same
    :attr:`Environment.events_processed <repro.sim.engine.Environment.events_processed>`,
    without that class's priority heap, sequence numbers,
    :class:`Request` objects and tombstones.  A grant is a plain
    :class:`Event`:

    - **inline**, when the grant is provably the next event the running
      :meth:`~repro.sim.engine.Environment.run` loop would dispatch —
      the loop is dispatching an event whose sole callback is the caller,
      the server is idle (so nobody waits) and no heap entry is due at
      ``now`` (see ``Environment``, "Inline dispatch").  It takes the
      event id a pushed grant would have taken and counts as one
      processed event, but touches no heap: :meth:`acquire` returns an
      already-processed event, made once per spindle, so the ``yield``
      continues at once;
    - **pushed at request time**, when the server is idle but the grant
      cannot run inline: it is triggered and pushed at ``now`` the way
      :meth:`Event.succeed` would;
    - **queued**, when the server is busy: it is triggered by ``succeed()``
      when the holder ahead of it releases.

    Releasing a grant that is still queued withdraws it (an interrupted
    or abandoned wait); releasing one that no longer holds the server
    does nothing.
    """

    __slots__ = ("env", "busy", "_waiting", "_granted")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: The grant holding the server, or None while it is idle.
        self.busy: Optional[Event] = None
        #: ``(priority, grant)`` pairs in grant order (priority, then
        #: arrival), or None while none waits: the list is made for the
        #: first waiter and dropped with the last, so an idle or
        #: uncontended spindle holds no queue.
        self._waiting: Optional[list[tuple[int, Event]]] = None
        #: The already-processed event an inline grant hands out (made on
        #: first use; one holder at a time, so one event serves them all).
        self._granted: Optional[Event] = None

    @property
    def queue_length(self) -> int:
        """Number of grants waiting for the server."""
        return 0 if self._waiting is None else len(self._waiting)

    def acquire(self, priority: int = 0) -> Event:
        """Claim the server (lower ``priority`` is granted first); the
        caller's next statement yields the grant."""
        env = self.env
        if self.busy is None:
            if env._sole:
                queue = env._queue
                if not queue or queue[0][0] > env._now:
                    env._eid += 1
                    env.events_processed += 1
                    granted = self._granted
                    if granted is None:
                        granted = self._granted = Event(env)
                        granted._value = None
                        granted.callbacks = None
                    self.busy = granted
                    return granted
            grant = self.busy = Event(env)
            grant._value = None
            eid = env._eid = env._eid + 1
            heapq.heappush(env._queue, (env._now, NORMAL, eid, grant))
            return grant
        grant = Event(env)
        waiting = self._waiting
        if waiting is None:
            self._waiting = [(priority, grant)]
        elif priority >= waiting[-1][0]:
            waiting.append((priority, grant))
        else:
            # Behind every waiter of the same or a lower priority.
            waiting.insert(bisect_right(waiting, priority, key=itemgetter(0)),
                           (priority, grant))
        return grant

    def release(self, grant: Event) -> None:
        """Return the server (or withdraw a waiting grant)."""
        waiting = self._waiting
        if grant is self.busy:
            if waiting is None:
                self.busy = None
            else:
                head = self.busy = waiting.pop(0)[1]
                if not waiting:
                    self._waiting = None
                head.succeed()
        elif waiting is not None:
            for i, entry in enumerate(waiting):
                if entry[1] is grant:
                    del waiting[i]
                    if not waiting:
                        self._waiting = None
                    return


class Request(Event):
    """A pending claim on a :class:`Resource`; fires when capacity is granted.

    Usable as a context manager so that the resource is always released::

        with slots.request() as req:
            yield req
            yield env.timeout(hold_time)
    """

    __slots__ = ("resource", "priority", "_cancelled")

    def __init__(self, resource: "Resource", priority: int = 0) -> None:
        # Inlined Event.__init__ — a Request is constructed per simulated
        # I/O, and the chained constructor call is measurable there.
        self.env = resource.env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self.resource = resource
        self.priority = priority
        #: Set when the request is withdrawn while still queued; the heap
        #: entry stays behind and is skipped lazily by ``Resource._grant``.
        self._cancelled = False
        resource._request(self)

    def release(self) -> None:
        self.resource.release(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.release()


class Resource:
    """A capacity-limited resource with FIFO (or priority) granting.

    Cancelling a queued request (releasing it before it was granted) is
    *lazy*: the heap entry is left in place, flagged, and skipped when it
    eventually surfaces in :meth:`_grant` — O(log n) instead of the O(n)
    rebuild-and-reheapify a physical removal would cost.  It serves the
    scheduler's capacity-N slots; for one server, :class:`Spindle` serves
    the same order more cheaply.
    """

    __slots__ = ("env", "capacity", "users", "_waiting", "_seq",
                 "_ncancelled")

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        #: Requests currently holding capacity.
        self.users: list[Request] = []
        #: Heap of (priority, sequence, request) awaiting capacity.
        self._waiting: list[tuple[int, int, Request]] = []
        self._seq = 0
        #: Entries in ``_waiting`` that are lazily-cancelled tombstones.
        self._ncancelled = 0

    @property
    def count(self) -> int:
        """Number of users currently holding the resource."""
        return len(self.users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for capacity."""
        return len(self._waiting) - self._ncancelled

    def request(self, priority: int = 0) -> Request:
        """Claim one unit of capacity (lower ``priority`` wins)."""
        return Request(self, priority)

    def release(self, request: Request) -> None:
        """Return ``request``'s unit of capacity and grant the next waiter."""
        try:
            self.users.remove(request)
        except ValueError:
            # Releasing an ungranted request = cancelling it from the
            # queue.  A granted request is always triggered, so a pending
            # value means the entry is still in the heap: tombstone it.
            if request._value is PENDING and not request._cancelled:
                request._cancelled = True
                self._ncancelled += 1
            return
        if self._waiting:
            self._grant()

    # -- internals -----------------------------------------------------------

    def _request(self, request: Request) -> None:
        self._seq += 1
        if not self._waiting and len(self.users) < self.capacity:
            # Uncontended fast path: grant without touching the wait heap,
            # and push the grant the way ``succeed()`` would.
            self.users.append(request)
            request._value = None
            env = self.env
            eid = env._eid = env._eid + 1
            heapq.heappush(env._queue, (env._now, NORMAL, eid, request))
            return
        heapq.heappush(self._waiting, (request.priority, self._seq, request))
        self._grant()

    def _grant(self) -> None:
        waiting = self._waiting
        users = self.users
        capacity = self.capacity
        while waiting and len(users) < capacity:
            request = heapq.heappop(waiting)[2]
            if request._cancelled:
                self._ncancelled -= 1
                continue
            users.append(request)
            request.succeed()


class Store:
    """An unbounded-or-bounded FIFO of Python objects with blocking get/put.

    :meth:`put` returns an event that fires once the item is accepted;
    :meth:`deposit` is the event-free form for an item that is never
    refused (a channel's mailbox deposits every delivered message).
    """

    __slots__ = ("env", "capacity", "items", "_getters", "_putters")

    def __init__(self, env: "Environment", capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise SimulationError(f"store capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self._putters: deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        """Deposit ``item``; the returned event fires when accepted."""
        event = Event(self.env)
        if len(self.items) < self.capacity:
            self.items.append(item)
            event.succeed()
            self._dispatch()
        else:
            self._putters.append((event, item))
        return event

    def deposit(self, item: Any) -> None:
        """Deposit ``item`` at once, making no put event.

        The oldest waiting getter, if any, fires with it at ``now``,
        exactly as after :meth:`put`.  Raises
        :class:`~repro.errors.SimulationError` when the store is full.
        """
        if len(self.items) >= self.capacity:
            raise SimulationError("cannot deposit into a full store")
        if self._getters:
            # A getter waits only while no item is queued: hand it over.
            self._getters.popleft().succeed(item)
        else:
            self.items.append(item)

    def get(self) -> Event:
        """Withdraw the oldest item; the returned event fires with the item."""
        event = Event(self.env)
        self._getters.append(event)
        self._dispatch()
        return event

    def _dispatch(self) -> None:
        while self._getters and self.items:
            getter = self._getters.popleft()
            getter.succeed(self.items.popleft())
            while self._putters and len(self.items) < self.capacity:
                putter, item = self._putters.popleft()
                self.items.append(item)
                putter.succeed()

