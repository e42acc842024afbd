"""Shared-resource primitives: :class:`Resource` and :class:`Store`.

These model contention — e.g. a physical disk that can serve a bounded
number of in-flight operations, or a bounded queue of migration messages.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import TYPE_CHECKING, Any, Optional

from ..errors import SimulationError
from .events import Event, PENDING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Environment


class Request(Event):
    """A pending claim on a :class:`Resource`; fires when capacity is granted.

    Usable as a context manager so that the resource is always released::

        with disk.request() as req:
            yield req
            yield env.timeout(service_time)
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
    rebuild-and-reheapify a physical removal would cost.
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
        self._grant()

    # -- internals -----------------------------------------------------------

    def _request(self, request: Request) -> None:
        self._seq += 1
        if not self._waiting and len(self.users) < self.capacity:
            # Uncontended fast path: grant without touching the heap.
            self.users.append(request)
            request.succeed()
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
    """An unbounded-or-bounded FIFO of Python objects with blocking get/put."""

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

