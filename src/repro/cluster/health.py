"""Host health tracking: per-host circuit breakers on simulated time.

Production schedulers do not keep hurling migrations at a host that just
ate three of them — they trip a breaker and wait.  This module is the
cluster's memory of recent failure:

* :class:`CircuitBreaker` — the classic closed → open → half-open state
  machine, evaluated lazily against the simulated clock (no timers, no
  processes: the state is a pure function of the recorded history and
  ``now``);
* :class:`HealthMonitor` — one breaker per host, fed by job outcomes
  (:meth:`record_failure` / :meth:`record_success`), crash events
  (:meth:`note_crash`, wired from the fault injector's crash listeners),
  and :meth:`poll` scans of live ``host.crashed`` flags.

The scheduler consults the monitor in three places (all default-off, so
the bit-identical equivalence gate never sees it): the HostManager's
``healthy`` filter keeps suspect hosts out of placement, the admission
path sheds new work when :meth:`open_fraction` crosses a threshold, and
the retry loop re-places jobs whose destination's breaker opened
mid-flight.

Breaker semantics:

* **closed** — normal; ``failure_threshold`` *consecutive* failures trip
  it open (a success resets the streak);
* **open** — the host receives nothing for ``recovery_time`` simulated
  seconds, then lapses to half-open;
* **half-open** — the next job sent there is the probe: success closes
  the breaker, failure re-opens it (and restarts the recovery clock);
  an attempt that dies with its *source* gives the probe back with no
  verdict (:meth:`HealthMonitor.release_probe`).

Asking is free: :meth:`HealthMonitor.healthy` and
:meth:`CircuitBreaker.would_allow` change nothing, so a placement pass
may ask about every candidate.  Only :meth:`HealthMonitor.admit` (the
scheduler, for the one host it sends a job to) takes a half-open
breaker's probe.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from ..errors import MigrationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import Environment
    from ..vm.host import Host

#: Breaker states, in escalation order.
CLOSED, OPEN, HALF_OPEN = "closed", "open", "half-open"


class CircuitBreaker:
    """One host's failure memory; state derives from history + ``now``."""

    __slots__ = ("name", "failure_threshold", "recovery_time",
                 "consecutive_failures", "opened_at", "trips",
                 "_half_open_pending")

    def __init__(self, name: str, failure_threshold: int = 3,
                 recovery_time: float = 5.0) -> None:
        if failure_threshold < 1:
            raise MigrationError(
                f"failure_threshold must be >= 1, got {failure_threshold}")
        if recovery_time <= 0:
            raise MigrationError(
                f"recovery_time must be positive, got {recovery_time}")
        self.name = name
        self.failure_threshold = failure_threshold
        self.recovery_time = recovery_time
        #: Failures since the last success (the trip counter).
        self.consecutive_failures = 0
        #: When the breaker last tripped, or None while closed.
        self.opened_at: Optional[float] = None
        #: Lifetime trip count (observability).
        self.trips = 0
        #: True once a half-open probe has been admitted but not judged.
        self._half_open_pending = False

    def state(self, now: float) -> str:
        """The breaker state at simulated time ``now``."""
        if self.opened_at is None:
            return CLOSED
        if now - self.opened_at >= self.recovery_time:
            return HALF_OPEN
        return OPEN

    def would_allow(self, now: float) -> bool:
        """Would :meth:`allows` admit a placement at ``now``?  A pure
        query: closed yes, open no, half-open while no probe is out."""
        state = self.state(now)
        return state == CLOSED or (state == HALF_OPEN
                                   and not self._half_open_pending)

    def allows(self, now: float) -> bool:
        """May this host receive a placement at ``now``?

        Closed: yes.  Open: no.  Half-open: one probe at a time — the
        first caller gets through and takes the probe, the rest wait for
        its verdict.
        """
        if not self.would_allow(now):
            return False
        if self.opened_at is not None:
            self._half_open_pending = True
        return True

    def release_probe(self) -> None:
        """Give back a half-open probe with no verdict (its attempt died
        for a reason that says nothing about this host)."""
        self._half_open_pending = False

    def record_success(self, now: float) -> None:
        """A migration toward this host completed."""
        self.consecutive_failures = 0
        self.opened_at = None
        self._half_open_pending = False

    def record_failure(self, now: float) -> None:
        """A migration toward this host died."""
        self._half_open_pending = False
        if self.opened_at is not None:
            # Half-open probe failed (or a straggler died while open):
            # re-open and restart the recovery clock.
            self.opened_at = now
            self.trips += 1
            return
        self.consecutive_failures += 1
        if self.consecutive_failures >= self.failure_threshold:
            self.opened_at = now
            self.trips += 1

    def force_open(self, now: float) -> None:
        """Trip immediately (host crash observed) regardless of streak."""
        if self.opened_at is None:
            self.trips += 1
        self.opened_at = now
        self.consecutive_failures = max(self.consecutive_failures,
                                        self.failure_threshold)
        self._half_open_pending = False

    def reset(self) -> None:
        """Administratively close the breaker (host verified healthy)."""
        self.consecutive_failures = 0
        self.opened_at = None
        self._half_open_pending = False

    def __repr__(self) -> str:
        return (f"<CircuitBreaker {self.name} "
                f"failures={self.consecutive_failures} "
                f"opened_at={self.opened_at}>")


class HealthMonitor:
    """Per-host circuit breakers plus the feeds that drive them."""

    def __init__(self, env: "Environment", failure_threshold: int = 3,
                 recovery_time: float = 5.0) -> None:
        self.env = env
        self.failure_threshold = failure_threshold
        self.recovery_time = recovery_time
        self.breakers: dict[str, CircuitBreaker] = {}
        #: Hosts whose crash this monitor has already counted (a crash
        #: trips the breaker once, not once per poll).
        self._crashed_seen: set[str] = set()

    def breaker(self, name: str) -> CircuitBreaker:
        """The breaker for one host (created closed on first use)."""
        state = self.breakers.get(name)
        if state is None:
            state = self.breakers[name] = CircuitBreaker(
                name, self.failure_threshold, self.recovery_time)
        return state

    # -- feeds -------------------------------------------------------------

    def record_success(self, name: str) -> None:
        self.breaker(name).record_success(self.env.now)

    def record_failure(self, name: str) -> None:
        self.breaker(name).record_failure(self.env.now)
        self.env.metrics.counter("cluster.health.failures").inc()

    def release_probe(self, name: str) -> None:
        """Free ``name``'s half-open probe without a verdict."""
        state = self.breakers.get(name)
        if state is not None:
            state.release_probe()

    def note_crash(self, name: str, at: float) -> None:
        """Fault-injector crash listener: trip the breaker at ``at``."""
        self.breaker(name).force_open(at)
        self._crashed_seen.add(name)
        self.env.metrics.counter("cluster.health.crashes").inc()

    def note_restart(self, name: str, at: float) -> None:
        """Restart listener: the host is back, but stays suspect — the
        breaker lapses to half-open on its own clock and the first
        successful placement closes it."""
        self._crashed_seen.discard(name)

    def attach(self, injector) -> "HealthMonitor":
        """Subscribe to a fault injector's crash/restart events."""
        injector.crash_listeners.append(self.note_crash)
        injector.restart_listeners.append(self.note_restart)
        return self

    def poll(self, hosts: Iterable["Host"]) -> None:
        """Fold live ``crashed`` flags in (for crashes the injector did
        not announce, e.g. direct ``host.crash()`` calls)."""
        for host in hosts:
            if getattr(host, "is_surrogate", False):
                continue
            if host.crashed:
                if host.name not in self._crashed_seen:
                    self.note_crash(host.name, self.env.now)
            else:
                self._crashed_seen.discard(host.name)

    # -- queries -----------------------------------------------------------

    def healthy(self, name: str) -> bool:
        """May ``name`` receive a placement right now?

        A pure query: it takes no half-open probe (:meth:`admit` does).
        Hosts without recorded history are healthy; this never creates a
        breaker, so read-only queries stay allocation-free.
        """
        state = self.breakers.get(name)
        return state is None or state.would_allow(self.env.now)

    def admit(self, name: str) -> bool:
        """Send a job to ``name`` if it is healthy; a half-open host's
        one probe is then taken until the job's verdict comes in."""
        state = self.breakers.get(name)
        return state is None or state.allows(self.env.now)

    def state_of(self, name: str) -> str:
        state = self.breakers.get(name)
        return CLOSED if state is None else state.state(self.env.now)

    def open_fraction(self, names: Iterable[str]) -> float:
        """Fraction of the given hosts whose breaker is open right now
        (half-open hosts count as recovering, not open)."""
        names = list(names)
        if not names:
            return 0.0
        now = self.env.now
        open_count = sum(
            1 for name in names
            if (b := self.breakers.get(name)) is not None
            and b.state(now) == OPEN)
        return open_count / len(names)

    def __repr__(self) -> str:
        now = self.env.now
        states = {name: b.state(now) for name, b in self.breakers.items()}
        return f"<HealthMonitor {states}>"
