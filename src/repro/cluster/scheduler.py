"""Cluster-scale migration orchestration.

The paper's mechanism is point-to-point: one VM, one source, one
destination.  Production clusters (ROADMAP north star) run *many*
migrations at once — evacuating a machine for maintenance, rebalancing
after load shifts — over a shared topology where concurrent transfers
contend for links.  :class:`ClusterScheduler` turns the point-to-point
:class:`~repro.core.manager.Migrator` into that layer:

* **submission** — :meth:`submit` queues one VM move as a
  :class:`MigrationJob` and runs it as a simulation process;
* **admission control** — at most ``max_concurrent`` migrations run at
  once (a :class:`~repro.sim.Resource`); the rest wait FIFO;
* **per-link in-flight limits** — with ``per_link_limit`` set, a job
  must hold a slot on every duplex link its route crosses before it
  starts.  Slots are acquired in sorted link order, so two jobs wanting
  overlapping link sets can never deadlock;
* **placement** — every destination decision (evacuate, rebalance, and
  re-placement of queued jobs whose target died) flows through one
  :class:`~repro.cluster.hostmanager.HostManager` placement pass, so
  no choice can land on a crashed or in-maintenance host.

Every job runs its attempts through one
:class:`~repro.core.manager.MigrationRetrier` under the scheduler's
:class:`~repro.core.manager.RetryPolicy` (no policy: one attempt).  A
failed job is contained: it records a :class:`JobFailure` per attempt,
lands in the dead-letter list, and the scheduler moves on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generator, Optional

from ..core.manager import MigrationRetrier, Migrator, RetryPolicy
from ..core.metrics import MigrationReport
from ..errors import AdmissionRejected, MigrationError, NoValidHost
from ..sim import Resource
from .hostmanager import HostManager

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.config import MigrationConfig
    from ..sim import Environment, Process
    from ..vm.domain import Domain
    from ..vm.host import Host
    from .health import HealthMonitor


@dataclass(frozen=True)
class JobFailure:
    """One failed migration attempt, structured for operators.

    ``error_type`` is the underlying exception class (``NetworkError``
    for a blackout kill, not the wrapping ``MigrationFailed``);
    ``phase`` is the migration phase the attempt died in (from the
    report's ``failed_phase``, or a scheduler stage like ``placement``).
    """

    error_type: str
    message: str
    phase: str
    attempt: int
    at: float
    destination: str

    def __str__(self) -> str:
        return (f"attempt {self.attempt} -> {self.destination}: "
                f"{self.error_type}@{self.phase}: {self.message}")


@dataclass
class MigrationJob:
    """One scheduled VM move and its lifecycle."""

    domain: "Domain"
    destination: "Host"
    scheme: str = "tpm"
    #: pending -> running -> done | failed
    status: str = "pending"
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    ended_at: Optional[float] = None
    report: Optional[MigrationReport] = None
    error: Optional[Exception] = None
    process: Optional["Process"] = None
    #: True for jobs whose destination the *scheduler* chose (evacuate /
    #: rebalance): if that destination crashes or enters maintenance
    #: while the job queues, admission re-places it.  Explicitly
    #: submitted jobs keep their requested destination and fail instead.
    replaceable: bool = False
    #: Absolute simulated time after which no retry attempt starts
    #: (None = unbounded).
    deadline: Optional[float] = None
    #: Attempts made, each counted as it ends (0 until the first does).
    attempts: int = 0
    #: Structured record of every failed attempt, in order.
    failures: list[JobFailure] = field(default_factory=list)
    #: The scheduler running this job; it observes the job's attempts.
    scheduler: Optional["ClusterScheduler"] = field(
        default=None, repr=False, compare=False)

    @property
    def queue_time(self) -> float:
        """Seconds spent waiting for admission + link slots."""
        if self.started_at is None:
            return 0.0
        return self.started_at - self.submitted_at

    @property
    def succeeded(self) -> bool:
        return self.status == "done"

    @property
    def failure(self) -> Optional[JobFailure]:
        """The most recent failure record, or None."""
        return self.failures[-1] if self.failures else None

    # -- MigrationRetrier observer -------------------------------------------
    # The job observes its own attempts, so a job in flight holds no
    # per-job callback objects.

    def attempt_failed(self, attempt: int, destination: "Host",
                       failure: MigrationError) -> None:
        """Record one failed attempt (called once per failure)."""
        self.scheduler._record_failure(self, attempt, destination, failure)

    def replacement(self, destination: "Host",
                    attempt: int) -> Optional["Host"]:
        """Re-place this job before a re-attempt; None keeps its target."""
        try:
            return self.scheduler._replace(self, attempt)
        except NoValidHost:
            # Nowhere better to go; keep retrying the original (it may
            # restart) rather than giving up early.
            return None


class ClusterScheduler:
    """Runs many migrations concurrently over a shared topology."""

    def __init__(self, env: "Environment", migrator: Migrator,
                 max_concurrent: int = 4,
                 per_link_limit: Optional[int] = None,
                 config: Optional["MigrationConfig"] = None,
                 hostmanager: Optional[HostManager] = None,
                 retry: Optional[RetryPolicy] = None,
                 health: Optional["HealthMonitor"] = None,
                 shed_threshold: Optional[float] = None) -> None:
        if max_concurrent < 1:
            raise MigrationError(
                f"max_concurrent must be >= 1, got {max_concurrent}")
        if per_link_limit is not None and per_link_limit < 1:
            raise MigrationError(
                f"per_link_limit must be >= 1, got {per_link_limit}")
        if shed_threshold is not None and not 0.0 < shed_threshold <= 1.0:
            raise MigrationError(
                f"shed_threshold must be in (0, 1], got {shed_threshold}")
        self.env = env
        self.migrator = migrator
        self.config = config
        self.max_concurrent = max_concurrent
        self.per_link_limit = per_link_limit
        #: Job-level recovery policy (None = fail fast: one attempt, the
        #: pre-recovery behaviour the equivalence gate pins down).
        self.retry = retry if retry is not None else RetryPolicy(
            max_attempts=1)
        self._retrier = MigrationRetrier(migrator, self.retry)
        #: Per-host circuit breakers (None = no health tracking).
        self.health = health
        #: Reject new submissions while this fraction of hosts has an
        #: open breaker (None = never shed).
        self.shed_threshold = shed_threshold
        self._admission = Resource(env, capacity=max_concurrent)
        #: duplex-link name -> in-flight slot resource (lazy).
        self._link_slots: dict[str, Resource] = {}
        #: Every job ever submitted, in submission order.
        self.jobs: list[MigrationJob] = []
        #: Jobs that exhausted their recovery budget (or failed with
        #: recovery off) — the operator's to-triage list.
        self.dead_letter: list[MigrationJob] = []
        #: Submissions rejected by overload shedding (count only; no
        #: job object is created for shed work).
        self.shed_count = 0
        #: host name -> migrations currently scheduled *toward* that host
        #: but not yet completed (placement looks at planned load).
        self._inbound: dict[str, int] = {}
        #: The placement pass.  The default manager shares this
        #: scheduler's live inbound map, so HostState.planned_load tracks
        #: submissions without explicit refresh calls.
        self.hostmanager = hostmanager if hostmanager is not None else \
            HostManager(migrator.topology, inbound=self._inbound)
        # The scheduler owns inbound bookkeeping; an externally built
        # manager is rewired onto the live map so its planned-load view
        # tracks submissions.
        self.hostmanager._inbound = self._inbound
        if health is not None:
            # Placement consults the breakers: the monitor on the
            # manager switches its ``healthy`` filter on.
            self.hostmanager.health = health

    # -- introspection -----------------------------------------------------

    @property
    def running(self) -> int:
        """Jobs currently holding an admission slot."""
        return self._admission.count

    @property
    def waiting(self) -> int:
        """Jobs queued for admission."""
        return self._admission.queue_length

    # -- submission --------------------------------------------------------

    def _shed_check(self) -> None:
        """Raise :class:`AdmissionRejected` while the fleet is melting."""
        if self.shed_threshold is None or self.health is None:
            return
        hosts = [host for host in self.migrator.topology.hosts.values()
                 if not getattr(host, "is_surrogate", False)]
        self.health.poll(hosts)
        fraction = self.health.open_fraction(host.name for host in hosts)
        if fraction >= self.shed_threshold:
            self.shed_count += 1
            self.env.metrics.counter("cluster.jobs.shed").inc()
            self.env.tracer.instant("cluster:shed", category="cluster",
                                    open_fraction=fraction)
            raise AdmissionRejected(
                f"admission shed: {fraction:.0%} of hosts have an open "
                f"circuit breaker (threshold {self.shed_threshold:.0%})",
                open_fraction=fraction)

    def submit(self, domain: "Domain", destination: "Host",
               scheme: str = "tpm", replaceable: bool = False,
               deadline: Optional[float] = None) -> MigrationJob:
        """Queue one migration; returns its :class:`MigrationJob`.

        The job runs as a simulation process — drive the environment
        (``env.run`` / :meth:`drain`) to make progress.  With
        ``replaceable=True`` (what :meth:`evacuate` / :meth:`rebalance`
        pass) the destination is treated as a scheduler choice and may be
        re-placed at admission time if it stops being a valid target.

        ``deadline`` is an *absolute* simulated time bound on retries
        (None: the scheduler's :class:`RetryPolicy` alone bounds them).
        Raises :class:`~repro.errors.AdmissionRejected` when overload
        shedding is active and too many breakers are open.
        """
        self._shed_check()
        job = MigrationJob(domain=domain, destination=destination,
                           scheme=scheme,
                           submitted_at=self.env.now,
                           replaceable=replaceable, deadline=deadline,
                           scheduler=self)
        self.jobs.append(job)
        self._inbound[destination.name] = (
            self._inbound.get(destination.name, 0) + 1)
        job.process = self.env.process(
            self._run(job),
            name=f"cluster:{domain.name}->{destination.name}")
        return job

    def _slots_for(self, source: "Host", destination: "Host"
                   ) -> list[Resource]:
        """In-flight slot resources for every duplex link on the route,
        in sorted name order (global acquisition order → no deadlock)."""
        if self.per_link_limit is None:
            return []
        duplexes = self.migrator.topology.duplex_links_between(
            source, destination)
        named = {duplex.forward.name: duplex for duplex in duplexes}
        slots = []
        for name in sorted(named):
            slot = self._link_slots.get(name)
            if slot is None:
                slot = self._link_slots[name] = Resource(
                    self.env, capacity=self.per_link_limit)
            slots.append(slot)
        return slots

    def _record_failure(self, job: MigrationJob, attempt: int,
                        destination: "Host", exc: Exception) -> None:
        """Count one failed attempt, append a structured
        :class:`JobFailure` and feed the health monitor (the destination
        is charged unless the *source* is the crashed party; then it only
        gets back the half-open probe the attempt held)."""
        job.attempts = attempt
        report = getattr(exc, "report", None)
        phase = (report.extra.get("failed_phase", "unknown")
                 if report is not None else "unknown")
        cause = exc.__cause__ if exc.__cause__ is not None else exc
        failure = JobFailure(
            error_type=type(cause).__name__, message=str(exc),
            phase=phase, attempt=attempt, at=self.env.now,
            destination=destination.name)
        job.failures.append(failure)
        self.env.metrics.counter("cluster.jobs.attempt_failures").inc()
        if self.health is not None:
            source = job.domain.host
            if source is None or not source.crashed:
                self.health.record_failure(destination.name)
            else:
                self.health.release_probe(destination.name)

    def _dead_letter(self, job: MigrationJob) -> None:
        self.dead_letter.append(job)
        self.env.metrics.counter("cluster.jobs.dead_letter").inc()
        self.env.tracer.instant(
            "cluster:dead-letter", category="cluster",
            domain=job.domain.name, attempts=job.attempts,
            failure=str(job.failure))

    def _fail_unstarted(self, job: MigrationJob, exc: MigrationError,
                        phase: str) -> None:
        """Fail and dead-letter a job that never reached the migrator
        (one attempt, no health charge)."""
        job.status = "failed"
        job.error = exc
        job.attempts = 1
        job.failures.append(JobFailure(
            error_type=type(exc).__name__, message=str(exc), phase=phase,
            attempt=1, at=self.env.now, destination=job.destination.name))
        job.ended_at = self.env.now
        self._inbound[job.destination.name] -= 1
        self._dead_letter(job)

    def _replace(self, job: MigrationJob, attempt: int) -> Optional["Host"]:
        """The one re-placement rule, at admission (``attempt`` 0) and
        between attempts.

        A replaceable job whose destination is down, in maintenance or
        behind an open breaker moves to the placement pass's pick;
        explicit submissions and cross-rack surrogates (whose transplant
        is keyed to the original target) keep theirs.  The host a
        replaceable job is sent to, kept or new, takes its half-open
        breaker's one probe.  Returns the new destination, or None when
        the job keeps its target; raises
        :class:`~repro.errors.NoValidHost` when no host passes the
        filters.
        """
        destination = job.destination
        if not job.replaceable or getattr(destination, "is_surrogate",
                                          False):
            return None
        health = self.health
        if health is not None:
            health.poll(self.migrator.topology.hosts.values())
        if destination.available and (health is None
                                      or health.admit(destination.name)):
            return None
        replacement = self.hostmanager.select(job.domain)
        if replacement is destination:
            return None
        if health is not None:
            health.admit(replacement.name)
        self.env.tracer.instant("cluster:replace", category="cluster",
                                domain=job.domain.name, old=destination.name,
                                new=replacement.name, attempt=attempt)
        self.env.metrics.counter("cluster.jobs.replaced").inc()
        self._inbound[destination.name] -= 1
        self._inbound[replacement.name] = (
            self._inbound.get(replacement.name, 0) + 1)
        if job.started_at is not None:
            # A started job's uplink charge follows it to the new target.
            self.hostmanager.note_link(destination, -1)
            self.hostmanager.note_link(replacement, +1)
        job.destination = replacement
        return replacement

    def _run(self, job: MigrationJob) -> Generator:
        env = self.env
        tracer = env.tracer
        with self._admission.request() as admission:
            yield admission
            source = job.domain.host
            if source is None:
                self._fail_unstarted(job, MigrationError(
                    f"{job.domain} is not running on any host"),
                    phase="admission")
                return
            try:
                # The destination may have crashed, entered maintenance
                # or tripped its breaker while this job queued (mid-churn).
                self._replace(job, attempt=0)
            except NoValidHost as exc:
                self._fail_unstarted(job, exc, phase="placement")
                return
            grants = []
            try:
                for slot in self._slots_for(source, job.destination):
                    request = slot.request()
                    grants.append(request)
                    yield request
                job.status = "running"
                job.started_at = env.now
                # Feed the link-headroom filter: both endpoints' uplinks
                # now carry one more in-flight migration.
                self.hostmanager.note_link(source, +1)
                self.hostmanager.note_link(job.destination, +1)
                span = tracer.begin(f"cluster:job:{job.domain.name}",
                                    category="cluster", scheme=job.scheme,
                                    src=source.name,
                                    dst=job.destination.name,
                                    queue_time=job.queue_time)
                try:
                    job.report = yield from self._retrier.migrate(
                        job.domain, job.destination, self.config,
                        scheme=job.scheme,
                        deadline=job.deadline, observer=job)
                    job.status = "done"
                    job.attempts = job.report.attempts
                    if self.health is not None:
                        self.health.record_success(job.destination.name)
                    tracer.end(span, status="done", attempts=job.attempts)
                except MigrationError as exc:
                    job.status = "failed"
                    job.error = exc
                    job.report = getattr(exc, "report", None)
                    tracer.end(span, status="failed", failure=str(exc),
                               failure_type=job.failure.error_type,
                               failure_phase=job.failure.phase,
                               attempts=job.attempts)
                    self._dead_letter(job)
            finally:
                job.ended_at = env.now
                self._inbound[job.destination.name] -= 1
                if job.started_at is not None:
                    self.hostmanager.note_link(source, -1)
                    self.hostmanager.note_link(job.destination, -1)
                for request in grants:
                    request.release()
        self.env.metrics.counter(
            f"cluster.jobs.{job.status}").inc()

    # -- bulk operations ---------------------------------------------------

    def place(self, domain: "Domain") -> "Host":
        """Choose a destination for one domain through the HostManager
        placement pass."""
        return self.hostmanager.select(domain)

    def evacuate(self, host: "Host",
                 scheme: str = "tpm") -> list[MigrationJob]:
        """Schedule every domain off ``host`` (maintenance drain).

        Destinations flow through the HostManager placement pass against
        planned load, so a burst of simultaneous placements spreads
        across the cluster.  Returns the submitted jobs; drive the env
        (or :meth:`drain`) to execute them.
        """
        jobs = []
        for domain in sorted(host.domains, key=lambda d: d.domain_id):
            destination = self.place(domain)
            # submit() bumps the shared inbound map, so the next
            # placement in this burst already sees the planned load.
            jobs.append(self.submit(domain, destination, scheme=scheme,
                                    replaceable=True))
        self.env.tracer.instant("cluster:evacuate", category="cluster",
                                host=host.name, jobs=len(jobs))
        return jobs

    def rebalance(self) -> list[MigrationJob]:
        """One pass of load spreading: move domains off hosts above the
        ceiling of the mean planned load onto placement-chosen targets.

        Loads come from the manager's host states, so cross-rack
        surrogate stand-ins are neither counted nor drained.
        """
        jobs: list[MigrationJob] = []
        states = self.hostmanager.states()
        if not states:
            return jobs
        # Running load: planned load as this pass's moves will leave it
        # (a source keeps its domains resident until the move commits).
        loads = {state.name: state.planned_load for state in states}
        ceiling = -(-sum(loads.values()) // len(states))  # ceil(mean)
        for state in states:
            host = state.host
            scheduled: set[int] = set()
            while loads[host.name] > ceiling:
                # Domains already submitted are still resident until their
                # migration commits — skip them, don't re-pick them.
                movable = [d for d in host.domains
                           if d.domain_id not in scheduled]
                if not movable:
                    break
                domain = min(movable, key=lambda d: d.domain_id)
                full = [name for name, load in loads.items()
                        if load >= ceiling]
                try:
                    destination = self.hostmanager.select(domain,
                                                          exclude=full)
                except NoValidHost:
                    break
                scheduled.add(domain.domain_id)
                loads[host.name] -= 1
                loads[destination.name] += 1
                jobs.append(self.submit(domain, destination,
                                        replaceable=True))
        self.env.tracer.instant("cluster:rebalance", category="cluster",
                                jobs=len(jobs))
        return jobs

    # -- completion --------------------------------------------------------

    def drain(self, jobs: Optional[list[MigrationJob]] = None):
        """Run the simulation until the given jobs (default: all) finish.

        Returns the jobs, with their reports/errors filled in.
        """
        jobs = self.jobs if jobs is None else jobs
        pending = [job.process for job in jobs
                   if job.process is not None and not job.process.processed]
        if pending:
            self.env.run(until=self.env.all_of(pending))
        return jobs

    def makespan(self, jobs: Optional[list[MigrationJob]] = None) -> float:
        """Wall-clock span from first submission to last completion."""
        jobs = self.jobs if jobs is None else jobs
        finished = [job for job in jobs if job.ended_at is not None]
        if not finished:
            return 0.0
        return (max(job.ended_at for job in finished)
                - min(job.submitted_at for job in finished))
