"""Workload framework: guest applications driving I/O and memory traffic.

A :class:`Workload` is a simulation process bound to a :class:`Domain`.
It issues disk requests through the domain (so they traverse blkback and
are intercepted/tracked like real guest I/O), dirties guest memory, and
records application-level throughput into the environment's metrics
registry, one ``<workload>:<series>`` instrument per series — the series
the paper's Figures 5 and 6 plot.

Workloads are *closed-loop*: each operation completes before the next
begins, so disk contention with the migration slows the application
naturally, exactly as Bonnie++ slows in the paper's Figure 6.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Generator, Optional

import numpy as np

from ..errors import ReproError
from ..sim import Interrupt
from ..vm.domain import Domain
from .iomodel import MemoryDirtier

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import Environment, Process


class Workload(abc.ABC):
    """Base class for guest applications."""

    #: Short identifier used as the metric-series prefix.
    name: str = "workload"

    def __init__(self, seed: int = 0) -> None:
        self.rng = np.random.default_rng(seed)
        self.domain: Optional[Domain] = None
        self.process: Optional["Process"] = None
        #: Optional egress NIC for client-facing traffic.  When it is the
        #: same link the migration uses, service responses contend with
        #: migration data — the situation the paper's "secondary NIC"
        #: suggestion (§IV-A-4) avoids.
        self.service_link = None
        #: Aggregate counters.
        self.ops = 0
        self.bytes_processed = 0
        #: Callbacks fired with the 0-based pass index when a phased
        #: workload (e.g. Bonnie++) starts a new benchmark pass.
        self.pass_observers: list = []
        #: Set by :meth:`stop`; the next :meth:`read` or :meth:`write`
        #: ends the loop instead of issuing.
        self._stopping = False
        #: Instruments by series, taken from the registry ``_metrics``.
        self._metrics = None
        self._series: dict = {}

    # -- lifecycle -----------------------------------------------------------

    def bind(self, domain: Domain, service_link=None) -> None:
        """Attach to the domain whose guest this workload plays."""
        self.domain = domain
        self.service_link = service_link

    def start(self, env: "Environment") -> "Process":
        """Spawn the workload loop as a simulation process."""
        if self.domain is None:
            raise ReproError(f"workload {self.name!r} is not bound to a domain")
        self._stopping = False
        self.process = env.process(self._guarded_run(env),
                                   name=f"workload:{self.name}")
        return self.process

    def stop(self) -> None:
        """End the workload loop (end of an experiment) at an operation
        boundary.

        A disk request the guest has issued always completes: cutting a
        write short after it has cancelled a post-copy transfer would
        leave the block with neither the pushed copy nor the guest's data.
        So while the domain has a request in flight the loop runs on to
        its next :meth:`read` or :meth:`write`, which ends it instead of
        issuing; otherwise the loop is interrupted at once.
        """
        self._stopping = True
        process = self.process
        if process is None or not process.is_alive:
            return
        driver = self.domain.driver
        if driver is None or not driver.inflight:
            process.interrupt("stop")

    def _guarded_run(self, env: "Environment") -> Generator:
        try:
            yield from self.run(env)
        except Interrupt:
            return

    @abc.abstractmethod
    def run(self, env: "Environment") -> Generator:
        """The guest's main loop; yields simulation events forever."""

    # -- helpers for subclasses -------------------------------------------

    def fire_pass_start(self, index: int) -> None:
        """Notify observers that benchmark pass ``index`` is starting."""
        for observer in self.pass_observers:
            observer(index)

    def _instrument(self, series: str, kind: str):
        """The ``name:series`` instrument of the environment's registry."""
        metrics = self.domain.env.metrics
        if metrics is not self._metrics:
            self._metrics, self._series = metrics, {}
        inst = self._series.get(series)
        if inst is None:
            inst = self._series[series] = getattr(metrics, kind)(
                f"{self.name}:{series}")
        return inst

    def record(self, series: str, value: float) -> None:
        """Observe a latency-like sample in the ``name:series`` histogram."""
        self._instrument(series, "histogram").observe(value)

    def account(self, nbytes: int, series: str = "throughput") -> None:
        """Count ``nbytes`` of application-level progress in the
        ``name:series`` counter."""
        self.ops += 1
        self.bytes_processed += nbytes
        self._instrument(series, "counter").inc(nbytes)

    def read(self, block: int, nblocks: int = 1) -> Generator:
        """Guest disk read (gated on the domain running)."""
        if self._stopping:
            raise Interrupt("stop")
        return self.domain.read(block, nblocks)

    def write(self, block: int, nblocks: int = 1) -> Generator:
        """Guest disk write (gated on the domain running)."""
        if self._stopping:
            raise Interrupt("stop")
        return self.domain.write(block, nblocks)

    def touch(self, pages: np.ndarray) -> Generator:
        """Dirty guest pages, waiting for resume if suspended mid-loop."""
        yield from self.domain.ensure_running()
        self.domain.touch_memory(pages)

    #: Responses are transmitted in segments of this size so that service
    #: and migration traffic interleave on a shared port the way TCP flows
    #: would, instead of one side monopolising the wire per burst.
    SERVICE_SEGMENT_BYTES = 256 * 1024

    def serve_network(self, nbytes: int) -> Generator:
        """Ship ``nbytes`` of responses to clients over the service NIC.

        A no-op when no NIC is modelled; otherwise the transmission time
        (and any contention with migration traffic sharing the link)
        closes the loop on service throughput.
        """
        if self.service_link is None or nbytes <= 0:
            return
        remaining = int(nbytes)
        while remaining > 0:
            segment = min(remaining, self.SERVICE_SEGMENT_BYTES)
            yield from self.service_link.transmit(segment)
            remaining -= segment

    def dirty_memory(self, dirtier: MemoryDirtier, dt: float) -> Generator:
        """Apply a :class:`MemoryDirtier` interval."""
        pages = dirtier.pages(dt, self.rng)
        if pages.size:
            yield from self.touch(pages)


class IdleWorkload(Workload):
    """A guest that does nothing (baseline for overhead measurements)."""

    name = "idle"

    def __init__(self, seed: int = 0, tick: float = 1.0) -> None:
        super().__init__(seed)
        self.tick = tick

    def run(self, env: "Environment") -> Generator:
        while True:
            yield from self.domain.ensure_running()
            yield env.timeout(self.tick)
