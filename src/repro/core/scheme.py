"""Unified migration-scheme framework.

Every migration scheme — the paper's Three-Phase Migration and the four
§II baselines it is compared against — shares the same scaffolding: a
(fwd, rev) channel pair, a :class:`~repro.core.metrics.MigrationReport`
lifecycle, phase notifications (consumed by the fault injector), a
per-category byte ledger, tracer integration, and a failure path that
stamps the report and raises :class:`~repro.errors.MigrationFailed`.
:class:`MigrationScheme` extracts that scaffolding so each scheme only
implements :meth:`MigrationScheme._execute` with its own protocol, and so
the comparative experiments (§VI) run every scheme through the *same*
harness — history recording, retry, fault injection, and tracing come for
free rather than being hand-rolled (or silently missing) per scheme.
The switch-over is shared the same way: every scheme freezes, ships its
final memory and CPU state, moves the domain and resumes through the
protected steps :meth:`MigrationScheme._freeze`,
:meth:`~MigrationScheme._ship_memory`,
:meth:`~MigrationScheme._switch_over` and
:meth:`~MigrationScheme._resume`, so downtime means the same thing for
all of them.  Every scheme ends in the one consistency check,
:meth:`~MigrationScheme._verify`.

The set of schemes is closed: :data:`~repro.core.manager.SCHEMES` maps
each scheme's :attr:`~MigrationScheme.name` to its class, and
:meth:`Migrator.migrate(..., scheme="delta-queue")
<repro.core.manager.Migrator.migrate>` looks the name up there and runs
any of them through one code path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

import numpy as np

from ..bitmap import BlockBitmap
from ..errors import (ConsistencyError, MigrationError, MigrationFailed,
                      NetworkError)
from ..net.channel import Channel
from ..net.messages import CPUStateMsg
from ..storage.vbd import VirtualBlockDevice
from ..vm.domain import Domain
from ..vm.host import Host
from ..vm.memory import GuestMemory
from .config import MigrationConfig
from .memcopy import MemoryPreCopier
from .metrics import MigrationReport
from .precopy import TRACKING_NAME
from .transfer import PageStreamer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import Environment
    from ..vm.cpu import CPUState

class MigrationScheme:
    """Base class for one whole-system migration, source → destination.

    Subclasses implement :meth:`_execute` (a simulation generator) and may
    override the hook methods (:meth:`_span_attrs`, :meth:`_end_attrs`,
    :meth:`_on_failure`).  The template :meth:`run`:

    1. stamps ``report.started_at`` and opens the ``migration:<name>``
       tracer span,
    2. validates that the domain runs on the source host,
    3. snapshots the byte ledger across :attr:`channels`,
    4. runs :meth:`_execute`, converting any
       :class:`~repro.errors.NetworkError` into a stamped
       :class:`~repro.errors.MigrationFailed` (the guest, if still on the
       source, is resumed — it "keeps running untouched" per §V),
    5. fills ``report.bytes_by_category`` from the ledger delta and closes
       the migration span.
    """

    #: Key in :data:`~repro.core.manager.SCHEMES`; also stamped on every
    #: report this scheme produces.
    name: str = ""
    #: True when the scheme participates in the Migrator's Incremental
    #: Migration bookkeeping (stale copies, divergence bitmaps, partial
    #: copies from failed attempts).
    uses_im: bool = False

    def __init__(
        self,
        env: "Environment",
        domain: Domain,
        source: Host,
        destination: Host,
        fwd_channel: Channel,
        rev_channel: Channel,
        config: Optional[MigrationConfig] = None,
        workload_name: str = "unknown",
    ) -> None:
        self.env = env
        self.domain = domain
        self.source = source
        self.destination = destination
        self.fwd = fwd_channel
        self.rev = rev_channel
        self.config = config if config is not None else MigrationConfig()
        self.workload_name = workload_name
        #: Additional channels the scheme opened (e.g. the delta baseline's
        #: delta stream); included in the byte ledger.
        self.extra_channels: list[Channel] = []
        #: Callables invoked as ``observer(phase_name)`` when the migration
        #: enters a phase — used by the fault injector for phase-triggered
        #: faults.  Empty by default; notifying costs nothing then.
        self.phase_observers: list = []
        self._phase = "init"
        self._mig_span = None
        self._ledger_before: dict[str, int] = {}
        self.report = MigrationReport(scheme=type(self).name,
                                      workload=workload_name)

    # -- phases ------------------------------------------------------------

    def _notify_phase(self, name: str) -> None:
        self._phase = name
        for observer in self.phase_observers:
            observer(name)

    # -- byte ledger -------------------------------------------------------

    @property
    def channels(self) -> list[Channel]:
        """Every channel whose bytes this migration is accountable for."""
        return [self.fwd, self.rev, *self.extra_channels]

    def _ledger_snapshot(self) -> dict[str, int]:
        snap: dict[str, int] = {}
        for chan in self.channels:
            for key, val in chan.bytes_by_category.items():
                snap[key] = snap.get(key, 0) + val
        return snap

    def _ledger_delta(self, before: dict[str, int]) -> dict[str, int]:
        after = self._ledger_snapshot()
        return {k: after[k] - before.get(k, 0) for k in after
                if after[k] - before.get(k, 0) > 0}

    # -- template ----------------------------------------------------------

    def run(self) -> Generator:
        """Execute the migration; returns a :class:`MigrationReport`.

        ``yield from`` inside a process, or wrap with ``env.process``.
        """
        env = self.env
        report = self.report
        tracer = env.tracer
        report.started_at = env.now
        self._mig_span = tracer.begin(
            f"migration:{self.domain.name}", category="migration",
            scheme=report.scheme, workload=self.workload_name,
            **self._span_attrs())
        if self.domain.host is not self.source:
            tracer.end(self._mig_span, error="domain not on source")
            raise MigrationError(
                f"{self.domain} is on "
                f"{self.domain.host and self.domain.host.name}, "
                f"not on source {self.source.name}")
        self._ledger_before = self._ledger_snapshot()
        try:
            yield from self._execute()
        except NetworkError as exc:
            raise self._fail(exc) from exc
        report.bytes_by_category = self._ledger_delta(self._ledger_before)
        tracer.end(self._mig_span, **self._end_attrs())
        return report

    def _execute(self) -> Generator:
        """The scheme's protocol; implemented by subclasses."""
        raise NotImplementedError
        yield  # pragma: no cover - makes this a generator for type parity

    # -- shared protocol steps -----------------------------------------------
    #
    # Every scheme ends with the same switch-over: freeze, ship the final
    # memory and CPU state, move the domain, resume.  Schemes compose these
    # steps and put their own storage work between them.

    def _page_streamer(self, **kwargs) -> PageStreamer:
        """A streamer from guest memory into a fresh destination image
        (``streamer.dst_mem``); ``kwargs`` pass lanes and a delta cache."""
        memory = self.domain.memory
        shadow = GuestMemory(memory.npages, memory.page_size,
                             clock=memory.clock)
        return PageStreamer(self.env, memory, shadow, self.fwd, self.config,
                            **kwargs)

    def _precopy_memory(self, streamer: Optional[PageStreamer]) -> Generator:
        """The ``precopy-mem`` phase: iterative rounds over ``streamer``
        (None = the scheme moves no memory; the phase is still stamped).
        Dirty logging stays on for :meth:`_ship_memory`."""
        env, report = self.env, self.report
        self._notify_phase("precopy-mem")
        span = env.tracer.begin("phase:precopy-mem", category="phase")
        report.precopy_mem_started_at = env.now
        if streamer is not None:
            report.mem_rounds = yield from MemoryPreCopier(
                env, self.domain.memory, streamer, self.config).run()
        report.precopy_mem_ended_at = env.now
        env.tracer.end(span, rounds=len(report.mem_rounds))

    def _freeze(self) -> Generator:
        """Commit and stop the guest on the source; returns the open
        ``phase:freeze`` span for :meth:`_resume` to close.

        Guest I/O already in flight drains first, so its writes are
        applied (and tracked) before anything final is harvested; the
        hypervisor's suspend cost follows the drain, never overlaps it.
        """
        env = self.env
        self._notify_phase("freeze")
        span = env.tracer.begin("phase:freeze", category="phase")
        self.domain.suspend()
        self.report.suspended_at = env.now
        env.tracer.instant("suspend", category="freeze")
        yield from self.source.driver_of(self.domain.domain_id).quiesce()
        if self.config.suspend_overhead > 0:
            yield env.timeout(self.config.suspend_overhead)
        return span

    def _ship_memory(self, streamer: PageStreamer,
                     pages: Optional[np.ndarray] = None) -> Generator:
        """Send the final pages and the CPU state of the frozen guest;
        returns the captured :class:`~repro.vm.cpu.CPUState`.

        ``pages=None`` ships the dirty set harvested from the log that
        :meth:`_precopy_memory` left on.
        """
        domain = self.domain
        if pages is None:
            pages = domain.memory.stop_logging().dirty_indices()
            self.report.final_dirty_pages = int(pages.size)
        yield from streamer.stream(pages, category="memory", limited=False)
        # Captured now, while the guest is frozen: this snapshot is what
        # the CPUStateMsg ships and what the destination resumes from.
        cpu = domain.cpu.capture()
        yield from self.fwd.send(CPUStateMsg(domain.cpu.state_nbytes),
                                 category="cpu", limited=False)
        yield self.fwd.recv()  # destination receives the CPU state
        if not streamer.dst_mem.identical_to(domain.memory):
            raise MigrationError(
                "destination memory inconsistent at end of freeze")
        return cpu

    def _switch_over(self, vbd: VirtualBlockDevice,
                     streamer: Optional[PageStreamer] = None,
                     cpu: Optional[CPUState] = None):
        """Move the frozen domain onto ``vbd`` at the destination and adopt
        the memory image ``streamer`` shipped and the CPU state ``cpu``;
        returns the destination driver.

        The one carry rule: every bitmap registered on the source driver
        but the pre-copy's own follows the domain (a backup chain's, IM
        divergence maps), and a durable one's store with it, so a crash
        of the new host recovers it and one of the old host no longer
        touches it.  No write is missed: the guest is frozen.
        """
        domain, source = self.domain, self.source
        domain_id = domain.domain_id
        src_driver = source.driver_of(domain_id)
        carried = {name: src_driver.tracking_bitmap(name)
                   for name in src_driver.tracking_names()
                   if name != TRACKING_NAME}
        source.detach_domain(domain_id)
        driver = self.destination.attach_domain(domain, vbd)
        for name, bitmap in carried.items():
            driver.start_tracking(name, bitmap)
            source.move_bitmap_store(domain_id, name, self.destination)
        if streamer is not None:
            domain.cpu.restore(cpu)
            domain.memory = streamer.dst_mem
        return driver

    def _resume(self, span, **attrs) -> Generator:
        """Resume the guest on the destination and close the freeze
        ``span`` (``attrs`` are stamped on it)."""
        env, report = self.env, self.report
        if self.config.resume_overhead > 0:
            yield env.timeout(self.config.resume_overhead)
        self.domain.resume()
        report.resumed_at = env.now
        env.tracer.instant("resume", category="freeze",
                           downtime=report.resumed_at - report.suspended_at)
        env.tracer.end(span, final_dirty_pages=report.final_dirty_pages,
                       **attrs)

    def _verify(self, src_vbd: VirtualBlockDevice,
                dest_vbd: VirtualBlockDevice,
                pending: Optional[BlockBitmap] = None) -> None:
        """The ``verify`` phase, one rule for every scheme: no delivered
        block (``pending`` marks the rest) is older on the destination.
        Sets ``report.consistency_verified``, else raises
        :class:`~repro.errors.ConsistencyError` naming the blocks."""
        tracer = self.env.tracer
        span = tracer.begin("phase:verify", category="phase")
        lagging = dest_vbd.lagging_blocks(src_vbd)
        if pending is not None and lagging.size:
            lagging = lagging[~pending.test_many(lagging)]
        if lagging.size:
            suffix = ", ..." if lagging.size > 10 else ""
            tracer.close_open(error="inconsistent after migration")
            raise ConsistencyError(
                f"{lagging.size} blocks inconsistent after migration; "
                f"offending blocks: {lagging[:10].tolist()}{suffix}")
        self.report.consistency_verified = True
        tracer.end(span, verified=True)

    # -- hooks -------------------------------------------------------------

    def _span_attrs(self) -> dict:
        """Extra args for the opening ``migration:*`` span."""
        return {}

    def _end_attrs(self) -> dict:
        """Args stamped on the ``migration:*`` span when it closes."""
        return dict(total_migration_time=self.report.total_migration_time,
                    downtime=self.report.downtime)

    def _on_failure(self, exc: NetworkError) -> Optional[VirtualBlockDevice]:
        """Scheme-specific failure bookkeeping (tear down interceptors,
        absorb unconfirmed transfers, ...).  Returns the destination VBD to
        carry on the :class:`~repro.errors.MigrationFailed` when a partial
        copy is worth keeping for an incremental retry, else None."""
        return None

    def _failure_attrs(self) -> dict:
        """Extra args for the ``migration:failed`` instant."""
        return {}

    def _fail(self, exc: NetworkError) -> MigrationFailed:
        """Stamp the report for a mid-flight death and build the exception.

        The guest — when it never left the source — resumes there untouched
        (the paper's §V failure story: "the user can resume the virtual
        machine on the source machine and retry later").
        """
        report = self.report
        keep_vbd = self._on_failure(exc)
        if self.domain.memory.logging:
            self.domain.memory.stop_logging()
        if (self.domain.host is self.source and not self.domain.running
                and not self.source.crashed):
            # A crashed source cannot resume anything — the host's own
            # restart brings the domain back.
            self.domain.resume()
        report.extra["failed"] = True
        report.extra["failure"] = str(exc)
        report.extra["failed_phase"] = self._phase
        report.ended_at = self.env.now
        report.bytes_by_category = self._ledger_delta(self._ledger_before)
        self.env.tracer.instant("migration:failed", category="migration",
                                phase=self._phase, failure=str(exc),
                                **self._failure_attrs())
        self.env.tracer.close_open(failed=True)
        return MigrationFailed(
            f"migration of {self.domain} failed during {self._phase}: {exc}",
            report=report, dest_vbd=keep_vbd)
