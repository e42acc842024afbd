"""High-level migration façade and Incremental-Migration bookkeeping (§V).

:class:`Migrator` owns the network topology between hosts and the state
needed for IM: after a migration, the copy of the disk left on the old
source is remembered as a *stale copy*, and the destination driver keeps
tracking guest writes in the IM bitmap (BM_3).  When the domain later
migrates back to a host that still holds a stale copy, only the BM_3
blocks are transferred in the first pre-copy iteration.

As in the paper, IM by default acts only between the primary destination
and the source machine: migrating to a third host invalidates the
remembered stale copies for that domain.  Constructing the Migrator with
``multi_host_im=True`` enables the paper's stated *future work* — "local
disk storage version maintenance to facilitate IM ... among any recently
used physical machines": one divergence bitmap is maintained per stale
host and carried across hops, so a VM that travelled A→B→C can still
return to A incrementally.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from ..errors import MigrationError, MigrationFailed, StorageError
from ..persist.backup import BACKUP_TRACKING_PREFIX
from ..net.channel import Channel
from ..net.compression import Compressor
from ..net.link import DuplexLink
from ..net.ratelimit import NullLimiter, TokenBucket
from ..net.topology import Topology
from ..storage.vbd import VirtualBlockDevice
from ..units import Gbps
from ..vm.domain import Domain
from ..vm.host import Host
from .config import MigrationConfig
from .metrics import MigrationReport
from .precopy import TRACKING_NAME
from .scheme import MigrationScheme, get_scheme
from .tpm import IM_TRACKING_NAME, ThreePhaseMigration

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import Environment, Process


class Migrator:
    """Coordinates migrations among a set of hosts on a network."""

    def __init__(self, env: "Environment",
                 config: Optional[MigrationConfig] = None,
                 multi_host_im: bool = False) -> None:
        self.env = env
        self.config = config if config is not None else MigrationConfig()
        #: Enable the paper's future-work extension: IM back to *any*
        #: recently used host, not just the immediately previous one.
        self.multi_host_im = multi_host_im
        #: The cluster network graph.  Hosts joined through switches get
        #: multi-hop routes automatically; see :class:`~repro.net.topology.
        #: Topology`.
        self.topology = Topology(env)
        #: (domain_id, host_name) -> stale VBD left behind on that host.
        self._stale: dict[tuple[int, str], VirtualBlockDevice] = {}
        #: domain_id -> name of the host the domain most recently left
        #: (the host its "im" bitmap diverges from).
        self._im_source: dict[int, str] = {}
        #: (domain_id, host_name) -> partially populated VBD left on that
        #: host by a *failed* migration, reusable by an incremental retry
        #: while the source keeps the surviving tracking bitmap.
        self._partial: dict[tuple[int, str], VirtualBlockDevice] = {}
        #: Set by :meth:`~repro.faults.injector.FaultInjector.inject`;
        #: migrations register it for phase-triggered faults.
        self.fault_injector = None
        #: All reports produced, in order (failed attempts included).
        self.history: list[MigrationReport] = []
        #: domain_id -> in-flight migration (for :meth:`abort`).
        self.active_migrations: dict[int, MigrationScheme] = {}
        #: The most recently constructed migration object (any scheme);
        #: gives experiments access to scheme-specific state (e.g. the
        #: on-demand baseline's residual-dependency counters).
        self.last_migration: Optional[MigrationScheme] = None
        #: Every migration object ever constructed, in order — keeps the
        #: per-channel byte ledgers reachable for cluster-level
        #: conservation audits (see :mod:`repro.cluster.accounting`).
        self.migrations: list[MigrationScheme] = []

    # -- topology ----------------------------------------------------------

    @property
    def _links(self) -> dict[tuple[str, str], DuplexLink]:
        """Compat view of the topology's link table (fault injector)."""
        return self.topology.links

    @property
    def _hosts(self) -> dict[str, Host]:
        """Compat view of the topology's host table (fault injector)."""
        return self.topology.hosts

    def connect(self, a: Host, b: Host, bandwidth: float = 1 * Gbps,
                latency: float = 100e-6) -> DuplexLink:
        """Join two hosts (or switches, by name) with a full-duplex link.

        Reconnecting an already-connected pair returns the existing link
        when the parameters match and raises on a conflict — it never
        silently replaces a link carrying in-flight channels.
        """
        return self.topology.connect(a, b, bandwidth, latency)

    def link_between(self, src: Host, dst: Host) -> tuple:
        """``(data_link, reverse_link)`` for a migration src → dst.

        Directly connected hosts get the raw directional links; hosts
        joined through switches get store-and-forward
        :class:`~repro.net.topology.RoutedPath` objects.
        """
        return self.topology.endpoints(src, dst)

    # -- migration -------------------------------------------------------

    def migrate(self, domain: Domain, destination: Host,
                config: Optional[MigrationConfig] = None,
                workload_name: str = "unknown",
                scheme: str = "tpm",
                scheme_kwargs: Optional[dict] = None) -> Generator:
        """Migrate ``domain`` to ``destination``; returns the report.

        ``yield from`` inside a process (or use :meth:`migrate_process`).
        ``scheme`` selects any registered migration scheme (``"tpm"``,
        ``"freeze-and-copy"``, ``"on-demand"``, ``"delta-queue"``,
        ``"shared-storage"`` or an alias); every scheme runs through the
        same harness, so history recording, fault injection, retry, and
        tracing behave identically across them.  ``scheme_kwargs`` is
        passed to the scheme's constructor (e.g. ``throttle_watermark``
        for the delta baseline).

        With the default TPM scheme, incremental migration is chosen
        automatically when the destination still holds a stale copy of
        the domain's disk and the current host has been tracking writes
        since the last migration.
        """
        cfg = config if config is not None else self.config
        scheme_cls = get_scheme(scheme)
        source = domain.host
        if source is None:
            raise MigrationError(f"{domain} is not running on any host")
        if destination is source:
            raise MigrationError("destination must differ from the source")
        if source.crashed or destination.crashed:
            victim = source.name if source.crashed else destination.name
            report = MigrationReport(scheme=scheme_cls.name,
                                     workload=workload_name)
            report.started_at = report.ended_at = self.env.now
            report.extra["failed"] = True
            report.extra["failure"] = f"host {victim!r} is down"
            report.extra["failed_phase"] = "init"
            self.history.append(report)
            raise MigrationFailed(
                f"cannot migrate {domain}: host {victim!r} is down",
                report=report)

        fwd_link, rev_link = self.link_between(source, destination)
        limiter = (TokenBucket(self.env, cfg.rate_limit, cfg.rate_limit_burst)
                   if cfg.rate_limit else NullLimiter())
        compressor = (Compressor(ratio=cfg.compression_ratio,
                                 ratios=cfg.compression_ratios)
                      if cfg.compress else None)
        fwd = Channel(self.env, fwd_link, limiter=limiter,
                      name=f"mig:{source.name}->{destination.name}",
                      compressor=compressor, sender=source)
        rev = Channel(self.env, rev_link,
                      name=f"mig:{destination.name}->{source.name}",
                      sender=destination)

        kwargs = dict(scheme_kwargs) if scheme_kwargs else {}
        partial_key = (domain.domain_id, destination.name)
        stale_key = (domain.domain_id, destination.name)
        dest_vbd = None
        src_vbd = source.vbd_of(domain.domain_id)
        if scheme_cls.uses_im:
            src_driver = source.driver_of(domain.domain_id)

            # Retry of a failed migration? -- needs the surviving pre-copy
            # tracking bitmap on the source AND the partial copy the failed
            # attempt left at this destination.  The bitmap stays registered
            # (adopted atomically by the pre-copier), so no write between
            # the failure and here is ever missed.
            resume = False
            if src_driver.has_tracking(TRACKING_NAME):
                partial = self._partial.pop(partial_key, None)
                if partial is not None:
                    resume = True
                    dest_vbd = partial
                else:
                    # The surviving bitmap describes a partial copy
                    # elsewhere; against this destination it is useless.
                    # Start clean.
                    src_driver.stop_tracking(TRACKING_NAME)
                    self._drop_partials(domain.domain_id)

            # Incremental? -- needs a stale copy at the destination AND a
            # live divergence bitmap on the current host recording writes
            # since the domain last left that destination.
            divergence = self._collect_divergence(domain, src_driver)

            im_bitmap = None
            if (not resume and stale_key in self._stale
                    and destination.name in divergence):
                dest_vbd = self._stale.pop(stale_key)
                im_bitmap = divergence.pop(destination.name)

            # Multi-host IM: divergence maps against the *other* stale
            # hosts keep tracking on the source through pre-copy (they are
            # still registered there) and are re-registered on the
            # destination by TPM before resume, so they never miss a write.
            extra_im = ({f"{IM_TRACKING_NAME}:{host}": bitmap
                         for host, bitmap in divergence.items()}
                        if self.multi_host_im else {})

            # Backup-chain tracking bitmaps follow the domain: they stay
            # registered on the source through pre-copy and re-register on
            # the destination before resume, so the chain keeps
            # accumulating deltas across the migration (the tp-qemu
            # backup-with-migration scenario).
            for name in src_driver.tracking_names():
                if name.startswith(BACKUP_TRACKING_PREFIX):
                    extra_im[name] = src_driver.tracking_bitmap(name)

            kwargs.update(im_bitmap=im_bitmap,
                          dest_vbd=dest_vbd, extra_im_bitmaps=extra_im,
                          resume=resume)

        migration = scheme_cls(
            self.env, domain, source, destination, fwd, rev, cfg,
            workload_name=workload_name, **kwargs)
        self.last_migration = migration
        self.migrations.append(migration)
        if self.fault_injector is not None:
            migration.phase_observers.append(self.fault_injector.on_phase)
        self.active_migrations[domain.domain_id] = migration
        try:
            report = yield from migration.run()
        except MigrationFailed as failure:
            if failure.dest_vbd is not None:
                self._partial[partial_key] = failure.dest_vbd
            if failure.report is not None:
                self.history.append(failure.report)
            raise
        finally:
            self.active_migrations.pop(domain.domain_id, None)

        if report.extra.get("aborted"):
            # Nothing moved: restore the stale-copy entry an IM attempt
            # consumed (its divergence bitmap stayed registered; it may
            # now over-approximate, which only costs retransfers).
            if dest_vbd is not None:
                self._stale[stale_key] = dest_vbd
            self.history.append(report)
            return report

        # A completed migration supersedes any partial copy left around by
        # earlier failed attempts of this domain.
        self._drop_partials(domain.domain_id)

        if scheme_cls.uses_im:
            # Bookkeeping for the next IM: the disk left on the old source
            # is now a stale copy.  Without multi-host IM only it stays
            # valid (paper: IM acts between the primary destination and the
            # source).
            if not self.multi_host_im:
                self._stale = {key: vbd for key, vbd in self._stale.items()
                               if key[0] != domain.domain_id}
            self._stale[(domain.domain_id, source.name)] = src_vbd
            self._im_source[domain.domain_id] = source.name
        else:
            # A non-IM scheme moved the domain without maintaining any
            # divergence bitmaps: every remembered stale copy of this
            # domain's disk is now unusable for incremental migration.
            self._stale = {key: vbd for key, vbd in self._stale.items()
                           if key[0] != domain.domain_id}
            self._im_source.pop(domain.domain_id, None)

        self.history.append(report)
        return report

    def abort(self, domain: Domain) -> bool:
        """Cancel ``domain``'s in-flight migration, if still possible."""
        migration = self.active_migrations.get(domain.domain_id)
        if migration is None:
            return False
        return migration.request_abort()

    def _drop_partials(self, domain_id: int) -> None:
        for key in [k for k in self._partial if k[0] == domain_id]:
            del self._partial[key]

    def discard_partial(self, domain: Domain) -> None:
        """Forget the recovery state of ``domain``'s failed migration.

        Drops the partial destination copies and stops the surviving
        pre-copy tracking bitmap, forcing the next attempt to start from
        scratch.  Only call between attempts, never mid-migration.
        """
        self._drop_partials(domain.domain_id)
        if domain.host is not None:
            driver = domain.host.driver_of(domain.domain_id)
            if driver.has_tracking(TRACKING_NAME):
                driver.stop_tracking(TRACKING_NAME)

    def _collect_divergence(self, domain: Domain, src_driver) -> dict:
        """Divergence bitmaps living on the current host's driver, keyed by
        the stale-copy host they diverge from."""
        divergence: dict = {}
        previous = self._im_source.get(domain.domain_id)
        if previous is not None:
            try:
                divergence[previous] = src_driver.tracking_bitmap(
                    IM_TRACKING_NAME)
            except StorageError:
                pass
        if self.multi_host_im:
            for dom_id, host_name in list(self._stale):
                if dom_id != domain.domain_id or host_name == previous:
                    continue
                try:
                    divergence[host_name] = src_driver.tracking_bitmap(
                        f"{IM_TRACKING_NAME}:{host_name}")
                except StorageError:
                    pass
        return divergence

    def migrate_process(self, domain: Domain, destination: Host,
                        config: Optional[MigrationConfig] = None,
                        workload_name: str = "unknown",
                        scheme: str = "tpm",
                        scheme_kwargs: Optional[dict] = None) -> "Process":
        """Spawn :meth:`migrate` as a process; run it with ``env.run``."""
        return self.env.process(
            self.migrate(domain, destination, config, workload_name,
                         scheme=scheme, scheme_kwargs=scheme_kwargs),
            name=f"migrate:{domain.name}->{destination.name}")

    def has_stale_copy(self, domain: Domain, host: Host) -> bool:
        """True if ``host`` holds a stale disk copy usable for IM."""
        return (domain.domain_id, host.name) in self._stale

    def has_partial_copy(self, domain: Domain, host: Host) -> bool:
        """True if ``host`` holds a failed attempt's partial disk copy."""
        return (domain.domain_id, host.name) in self._partial


class MigrationRetrier:
    """Re-runs failed migrations with exponential backoff.

    The retry is *incremental* by default: the source's surviving
    write-tracking bitmap (kept registered across the failure, still
    absorbing guest writes during the backoff) becomes the first
    iteration's transfer set, and the destination's partial copy is
    reused — §V's incremental-migration machinery repurposed as fault
    tolerance.  With ``incremental=False`` every attempt starts from
    scratch, which is the baseline the benchmark compares against.
    """

    def __init__(self, migrator: Migrator, max_attempts: int = 3,
                 initial_backoff: float = 0.5, backoff_factor: float = 2.0,
                 incremental: bool = True, max_backoff: float = 60.0,
                 wait_for_restart: bool = False) -> None:
        if max_attempts < 1:
            raise MigrationError("max_attempts must be >= 1")
        if initial_backoff < 0:
            raise MigrationError("initial_backoff cannot be negative")
        if backoff_factor < 1.0:
            raise MigrationError("backoff_factor must be >= 1")
        if max_backoff <= 0:
            raise MigrationError("max_backoff must be positive")
        self.migrator = migrator
        self.env = migrator.env
        self.max_attempts = max_attempts
        self.initial_backoff = initial_backoff
        self.backoff_factor = backoff_factor
        self.incremental = incremental
        #: Ceiling on the exponential backoff: without it, large
        #: ``max_attempts`` produce absurd simulated waits (0.5 * 2**20 s).
        self.max_backoff = max_backoff
        #: After the backoff, additionally wait for a crashed source or
        #: destination to restart before re-attempting — the crash-recovery
        #: path (pointless against hosts that never restart, hence opt-in).
        self.wait_for_restart = wait_for_restart

    def migrate(self, domain: Domain, destination: Host,
                config: Optional[MigrationConfig] = None,
                workload_name: str = "unknown",
                scheme: str = "tpm",
                scheme_kwargs: Optional[dict] = None,
                deadline: Optional[float] = None,
                replace_destination=None,
                on_attempt_failure=None) -> Generator:
        """Migrate with retries; returns the final attempt's report.

        ``yield from`` inside a process.  Any registered ``scheme`` may
        be retried, though only IM-aware schemes (TPM) resume
        incrementally — the others restart from scratch each attempt.
        The report carries the retry accounting: ``attempts``,
        ``failed_attempts``, ``backoff_time``.  Raises
        :class:`~repro.errors.MigrationFailed` once ``max_attempts``
        attempts have all died.

        The three optional hooks are the cluster scheduler's recovery
        surface: ``deadline`` (absolute simulated time; once passed, no
        further attempt starts), ``on_attempt_failure(attempt,
        destination, failure)`` called after each failed attempt, and
        ``replace_destination(domain, destination, attempt, failure)``
        called before each re-attempt — returning a different
        :class:`~repro.vm.host.Host` redirects the retry there (the
        partial-copy table is keyed per destination, so a replacement
        target automatically starts clean while the source keeps its
        surviving tracking bitmap).
        """
        failures: list[MigrationReport] = []
        backoff_total = 0.0
        delay = min(self.initial_backoff, self.max_backoff)
        for attempt in range(1, self.max_attempts + 1):
            self.env.metrics.counter("retry.attempts").inc()
            try:
                report = yield from self.migrator.migrate(
                    domain, destination, config, workload_name,
                    scheme=scheme, scheme_kwargs=scheme_kwargs)
            except MigrationFailed as failure:
                if failure.report is not None:
                    failures.append(failure.report)
                if on_attempt_failure is not None:
                    on_attempt_failure(attempt, destination, failure)
                if attempt == self.max_attempts:
                    self.env.tracer.instant("retry:gave-up",
                                            category="retry",
                                            attempts=attempt)
                    raise MigrationFailed(
                        f"migration of {domain} failed {attempt} times; "
                        f"giving up", report=failure.report) from failure
                if not self.incremental:
                    self.migrator.discard_partial(domain)
                with self.env.tracer.span("retry:backoff", category="retry",
                                          attempt=attempt, delay=delay,
                                          incremental=self.incremental):
                    self.env.metrics.gauge("retry.backoff_delay").set(delay)
                    if delay > 0:
                        yield self.env.timeout(delay)
                backoff_total += delay
                delay = min(delay * self.backoff_factor, self.max_backoff)
                if self.wait_for_restart:
                    source = domain.host
                    if source is not None and source.crashed:
                        yield from source.wait_until_up()
                    if destination.crashed:
                        yield from destination.wait_until_up()
                if deadline is not None and self.env.now >= deadline:
                    self.env.tracer.instant("retry:deadline",
                                            category="retry",
                                            attempts=attempt,
                                            deadline=deadline)
                    raise MigrationFailed(
                        f"migration of {domain} abandoned after {attempt} "
                        f"attempt(s): deadline {deadline:.3f}s passed",
                        report=failure.report) from failure
                if replace_destination is not None:
                    replacement = replace_destination(
                        domain, destination, attempt, failure)
                    if replacement is not None \
                            and replacement is not destination:
                        destination = replacement
                continue
            report.attempts = attempt
            report.failed_attempts = failures
            report.backoff_time = backoff_total
            return report

    def migrate_process(self, domain: Domain, destination: Host,
                        config: Optional[MigrationConfig] = None,
                        workload_name: str = "unknown",
                        scheme: str = "tpm",
                        scheme_kwargs: Optional[dict] = None) -> "Process":
        """Spawn :meth:`migrate` as a process; run it with ``env.run``."""
        return self.env.process(
            self.migrate(domain, destination, config, workload_name,
                         scheme=scheme, scheme_kwargs=scheme_kwargs),
            name=f"retry-migrate:{domain.name}->{destination.name}")
