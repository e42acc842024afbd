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

A divergence bitmap is registered as ``im:<host>`` and lives exactly as
long as the stale copy on ``<host>`` it describes: every scheme carries
it at switch-over like any other bitmap, and after each migration the
Migrator stops the ones whose stale copy it no longer holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Optional

from ..baselines.delta import DeltaQueueMigration
from ..baselines.freeze_copy import FreezeAndCopyMigration
from ..baselines.ondemand import OnDemandMigration
from ..baselines.shared_storage import SharedStorageMigration
from ..errors import MigrationError, MigrationFailed
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
from .scheme import MigrationScheme
from .tpm import IM_TRACKING_NAME, ThreePhaseMigration

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import Environment, Process

#: The migration schemes, keyed by :attr:`MigrationScheme.name`: the
#: paper's Three-Phase Migration and the four §II baselines it is
#: compared against.  The set is closed; :meth:`Migrator.migrate` takes
#: exactly these names.
SCHEMES: dict[str, type[MigrationScheme]] = {
    cls.name: cls for cls in (
        ThreePhaseMigration, FreezeAndCopyMigration, OnDemandMigration,
        DeltaQueueMigration, SharedStorageMigration)}


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
        #: (domain_id, host_name) -> partially populated VBD left on that
        #: host by a *failed* migration, reusable by an incremental retry
        #: while the source keeps the surviving tracking bitmap.
        self._partial: dict[tuple[int, str], VirtualBlockDevice] = {}
        #: Set by :meth:`~repro.faults.injector.FaultInjector.inject`;
        #: migrations register it for phase-triggered faults.
        self.fault_injector = None
        #: All reports produced, in order (failed attempts included).
        self.history: list[MigrationReport] = []
        #: Every migration object ever constructed, in order — keeps the
        #: per-channel byte ledgers reachable for cluster-level
        #: conservation audits (see :mod:`repro.cluster.accounting`) and
        #: gives experiments scheme-specific state (e.g. the on-demand
        #: baseline's residual-dependency counters).
        self.migrations: list[MigrationScheme] = []

    # -- topology ----------------------------------------------------------

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
                scheme: str = "tpm") -> Generator:
        """Migrate ``domain`` to ``destination``; returns the report.

        ``yield from`` inside a process (or use :meth:`migrate_process`).
        ``scheme`` names one of the :data:`SCHEMES` (``"tpm"``,
        ``"freeze-and-copy"``, ``"on-demand"``, ``"delta-queue"`` or
        ``"shared-storage"``); any other name raises
        :class:`~repro.errors.MigrationError`.  Every scheme runs through
        the same harness, so history recording, fault injection, retry,
        and tracing behave identically across them.

        With the default TPM scheme, incremental migration is chosen
        automatically when the destination still holds a stale copy of
        the domain's disk and the current host has been tracking writes
        since the last migration.
        """
        cfg = config if config is not None else self.config
        scheme_cls = SCHEMES.get(scheme)
        if scheme_cls is None:
            raise MigrationError(
                f"unknown migration scheme {scheme!r}; choose one of: "
                f"{', '.join(SCHEMES)}")
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
        limiter = (TokenBucket(self.env, cfg.rate_limit)
                   if cfg.rate_limit else NullLimiter())
        compressor = (Compressor(ratio=cfg.compression_ratio)
                      if cfg.compress else None)
        fwd = Channel(self.env, fwd_link, limiter=limiter,
                      name=f"mig:{source.name}->{destination.name}",
                      compressor=compressor, sender=source)
        rev = Channel(self.env, rev_link,
                      name=f"mig:{destination.name}->{source.name}",
                      sender=destination)

        im_kwargs = {}
        fallback = None
        key = (domain.domain_id, destination.name)
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
                partial = self._partial.pop(key, None)
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
            im_bitmap = None
            if not resume and key in self._stale:
                im_name = f"{IM_TRACKING_NAME}:{destination.name}"
                if src_driver.has_tracking(im_name):
                    dest_vbd = self._stale.pop(key)
                    im_bitmap = src_driver.tracking_bitmap(im_name)
                else:
                    # A stale copy lives only as long as its divergence
                    # bitmap: without it the copy is useless.
                    del self._stale[key]
                    fallback = (
                        f"stale copy at {destination.name!r} but no "
                        f"divergence bitmap on {source.name!r} (a crash "
                        f"drops it): full copy")

            im_kwargs = dict(im_bitmap=im_bitmap, dest_vbd=dest_vbd,
                             resume=resume)

        migration = scheme_cls(
            self.env, domain, source, destination, fwd, rev, cfg,
            workload_name=workload_name, **im_kwargs)
        if fallback is not None:
            migration.report.extra["im_fallback"] = fallback
        self.migrations.append(migration)
        if self.fault_injector is not None:
            migration.phase_observers.append(self.fault_injector.on_phase)
        try:
            report = yield from migration.run()
        except MigrationFailed as failure:
            if failure.dest_vbd is not None:
                self._partial[key] = failure.dest_vbd
            if failure.report is not None:
                self.history.append(failure.report)
            raise

        # A completed migration supersedes any partial copy left around by
        # earlier failed attempts of this domain.
        self._drop_partials(domain.domain_id)

        # Bookkeeping for the next IM: after TPM the disk left on the old
        # source is a stale copy.  Without multi-host IM only it stays
        # valid (paper: IM acts between the primary destination and the
        # source); a non-IM scheme moved the domain without starting a
        # divergence bitmap, so none of this domain's copies stays valid.
        if not (scheme_cls.uses_im and self.multi_host_im):
            self._stale = {k: vbd for k, vbd in self._stale.items()
                           if k[0] != domain.domain_id}
        if scheme_cls.uses_im:
            self._stale[(domain.domain_id, source.name)] = src_vbd
        # A divergence bitmap lives exactly as long as its stale copy.
        driver = domain.driver
        for name in driver.tracking_names():
            prefix, _, host = name.partition(":")
            if (prefix == IM_TRACKING_NAME
                    and (domain.domain_id, host) not in self._stale):
                driver.stop_tracking(name)

        self.history.append(report)
        return report

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

    def migrate_process(self, domain: Domain, destination: Host,
                        config: Optional[MigrationConfig] = None,
                        workload_name: str = "unknown",
                        scheme: str = "tpm") -> "Process":
        """Spawn :meth:`migrate` as a process; run it with ``env.run``."""
        return self.env.process(
            self.migrate(domain, destination, config, workload_name,
                         scheme=scheme),
            name=f"migrate:{domain.name}->{destination.name}")

    def has_stale_copy(self, domain: Domain, host: Host) -> bool:
        """True if ``host`` holds a stale disk copy usable for IM."""
        return (domain.domain_id, host.name) in self._stale

    def has_partial_copy(self, domain: Domain, host: Host) -> bool:
        """True if ``host`` holds a failed attempt's partial disk copy."""
        return (domain.domain_id, host.name) in self._partial


@dataclass(frozen=True)
class RetryPolicy:
    """The one set of retry parameters, for :class:`MigrationRetrier` and
    :class:`~repro.cluster.scheduler.ClusterScheduler` alike.

    ``max_attempts`` bounds the attempts (1 = fail fast).  Between
    attempts the retrier sleeps ``initial_backoff`` seconds, multiplied
    by ``backoff_factor`` after every failure and capped at
    ``max_backoff``.  ``incremental`` resumes from the source's surviving
    tracking bitmap and the destination's partial copy (False restarts
    from scratch, the benchmark's baseline).  ``wait_for_restart``
    additionally waits for a crashed source or destination to come back
    before re-attempting.  Bad values raise
    :class:`~repro.errors.MigrationError` here, where the policy is
    built.
    """

    max_attempts: int = 3
    initial_backoff: float = 0.5
    backoff_factor: float = 2.0
    max_backoff: float = 60.0
    incremental: bool = True
    wait_for_restart: bool = False

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise MigrationError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.initial_backoff < 0:
            raise MigrationError(
                f"initial_backoff cannot be negative, got "
                f"{self.initial_backoff}")
        if self.backoff_factor < 1.0:
            raise MigrationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}")
        if self.max_backoff <= 0:
            raise MigrationError(
                f"max_backoff must be positive, got {self.max_backoff}")


class MigrationRetrier:
    """Runs a migration's attempts under a :class:`RetryPolicy`.

    The retry is *incremental* by default: the source's surviving
    write-tracking bitmap (kept registered across the failure, still
    absorbing guest writes during the backoff) becomes the first
    iteration's transfer set, and the destination's partial copy is
    reused — §V's incremental-migration machinery repurposed as fault
    tolerance.  Only :class:`~repro.errors.MigrationFailed` is retried;
    a plain :class:`~repro.errors.MigrationError` (a request that can
    never succeed) ends the loop at once.
    """

    def __init__(self, migrator: Migrator, policy: RetryPolicy) -> None:
        self.migrator = migrator
        self.env = migrator.env
        self.policy = policy

    def migrate(self, domain: Domain, destination: Host,
                config: Optional[MigrationConfig] = None,
                workload_name: str = "unknown",
                scheme: str = "tpm",
                deadline: Optional[float] = None,
                observer=None) -> Generator:
        """Migrate with retries; returns the final attempt's report.

        ``yield from`` inside a process.  Any ``scheme`` may be retried,
        though only IM-aware schemes (TPM) resume incrementally — the
        others restart from scratch each attempt.
        The report carries the retry accounting: ``attempts``,
        ``failed_attempts``, ``backoff_time``.  Once the policy's
        ``max_attempts`` attempts have all died it raises
        :class:`~repro.errors.MigrationFailed` ("giving up"); a
        single-attempt policy, like a non-retriable error, re-raises the
        attempt's own failure.

        ``deadline`` (absolute simulated time) stops further attempts
        once passed.  ``observer`` is the cluster scheduler's recovery
        surface: its ``attempt_failed(attempt, destination, failure)``
        is called once for every failed attempt, retriable or not, and
        its ``replacement(destination, attempt)`` before each re-attempt
        — returning a :class:`~repro.vm.host.Host` redirects the retry
        there (the partial-copy table is keyed per destination, so a
        replacement target automatically starts clean while the source
        keeps its surviving tracking bitmap).
        """
        policy = self.policy
        # A tuple: the shared empty one keeps a first-try success from
        # holding a list for the whole migration (a cluster wave runs
        # hundreds of these loops at once).
        failures: tuple[MigrationReport, ...] = ()
        backoff_total = 0.0
        delay = min(policy.initial_backoff, policy.max_backoff)
        for attempt in range(1, policy.max_attempts + 1):
            self.env.metrics.counter("retry.attempts").inc()
            try:
                report = yield from self.migrator.migrate(
                    domain, destination, config, workload_name,
                    scheme=scheme)
            except MigrationError as failure:
                if observer is not None:
                    observer.attempt_failed(attempt, destination, failure)
                if (not isinstance(failure, MigrationFailed)
                        or policy.max_attempts == 1):
                    raise
                if failure.report is not None:
                    failures += (failure.report,)
                if attempt == policy.max_attempts:
                    self.env.tracer.instant("retry:gave-up",
                                            category="retry",
                                            attempts=attempt)
                    raise MigrationFailed(
                        f"migration of {domain} failed {attempt} times; "
                        f"giving up", report=failure.report) from failure
                if not policy.incremental:
                    self.migrator.discard_partial(domain)
                with self.env.tracer.span("retry:backoff", category="retry",
                                          attempt=attempt, delay=delay,
                                          incremental=policy.incremental):
                    self.env.metrics.gauge("retry.backoff_delay").set(delay)
                    if delay > 0:
                        yield self.env.timeout(delay)
                backoff_total += delay
                delay = min(delay * policy.backoff_factor, policy.max_backoff)
                if policy.wait_for_restart:
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
                if observer is not None:
                    replacement = observer.replacement(destination, attempt)
                    if replacement is not None:
                        destination = replacement
                continue
            report.attempts = attempt
            report.failed_attempts = list(failures)
            report.backoff_time = backoff_total
            return report

    def migrate_process(self, domain: Domain, destination: Host,
                        config: Optional[MigrationConfig] = None,
                        workload_name: str = "unknown",
                        scheme: str = "tpm") -> "Process":
        """Spawn :meth:`migrate` as a process; run it with ``env.run``."""
        return self.env.process(
            self.migrate(domain, destination, config, workload_name,
                         scheme=scheme),
            name=f"retry-migrate:{domain.name}->{destination.name}")
