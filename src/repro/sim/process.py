"""Generator-based processes for the discrete-event engine."""

from __future__ import annotations

from heapq import heappop
from typing import TYPE_CHECKING, Any, Generator, Optional

from ..errors import SimulationError
from .events import Event, Interrupt, URGENT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Environment

ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A running coroutine inside the simulation.

    A process wraps a generator that yields :class:`Event` instances.  The
    process is itself an event: it succeeds with the generator's return value
    when the generator finishes, or fails with the exception that escaped it.
    Other processes can therefore ``yield proc`` to join on it.
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(
        self,
        env: "Environment",
        generator: ProcessGenerator,
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        #: The event this process is currently waiting on (None once done).
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")

        # Kick the generator off via an initialisation event so that the
        # process body runs inside the event loop, not in the caller.
        init = Event(env)
        init._ok = True
        init._value = None
        init.callbacks.append(self._resume)
        env.schedule(init, priority=URGENT)
        self._target = init

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process as soon as possible.

        Interrupting a finished process is an error; interrupting a process
        that is waiting on an event detaches it from that event first.
        """
        if self.triggered:
            raise SimulationError(f"{self} has terminated and cannot be interrupted")
        if self._target is None:
            raise SimulationError(f"{self} is not yet waiting and cannot be interrupted")

        # Deliver the interrupt through a dedicated failed event so that the
        # ordinary resume path (below) converts it into a thrown exception.
        hit = Event(self.env)
        hit._ok = False
        hit._value = Interrupt(cause)
        hit._defused = True
        hit.callbacks.append(self._deliver)
        self.env.schedule(hit, priority=URGENT)
        self._detach()

    # -- engine plumbing ---------------------------------------------------

    def _detach(self) -> None:
        """Stop waiting on the current target: when it later fires it must
        not resume us a second time."""
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None

    def _deliver(self, hit: Event) -> None:
        """Throw a scheduled interrupt into the process.

        The target in :meth:`interrupt` may already have been mid-dispatch,
        with our callback still to run; the process then resumed and now
        waits on something else, so detach again.  An interrupt that finds
        the process finished is dropped.
        """
        if self.triggered:
            return
        self._detach()
        self._resume(hit)

    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        env = self.env
        gen = self._generator
        send = gen.send

        while True:
            try:
                if event._ok:
                    next_event = send(event._value)
                else:
                    event._defused = True
                    next_event = gen.throw(event._value)
            except StopIteration as stop:
                self._target = None
                self.succeed(stop.value)
                return
            except BaseException as exc:
                self._target = None
                self.fail(exc)
                return

            if not isinstance(next_event, Event):
                msg = (
                    f"process {self.name!r} yielded {next_event!r}; "
                    "processes may only yield Event instances"
                )
                self._target = None
                self.fail(SimulationError(msg))
                return
            if next_event.env is not env:
                self._target = None
                self.fail(SimulationError(
                    "process yielded an event from a different environment"))
                return

            callbacks = next_event.callbacks
            if callbacks is not None:
                if not callbacks and env._sole:
                    queue = env._queue
                    if (queue and queue[0][3] is next_event
                            and queue[0][0] == env._now):
                        # Inline dispatch: this process is the sole callback
                        # of the event being dispatched, so the loop's next
                        # step is to pop the heap head, and a head entry at
                        # ``now`` is the event just yielded (see
                        # Environment, "Inline dispatch").  With no other
                        # callback on it, dispatching it is resuming us.
                        heappop(queue)
                        next_event.callbacks = None
                        env.events_processed += 1
                        event = next_event
                        continue
                # Not yet processed: park until it fires.
                callbacks.append(self._resume)
                self._target = next_event
                return

            # Already processed (e.g. an event triggered earlier this step):
            # consume its outcome immediately and keep driving the generator.
            event = next_event

    def __repr__(self) -> str:
        state = "done" if self.triggered else "alive"
        return f"<Process {self.name!r} {state}>"
