"""Migration metrics (paper §III-A) and the per-run report.

The five metrics the paper defines:

* **downtime** — VM paused on the source → resumed on the destination;
* **disruption time** — clients observe degraded responsiveness;
* **total migration time** — start of migration → both machines fully
  synchronized (end of post-copy for TPM);
* **amount of migrated data** — all bytes on the wire, protocol included;
* **performance overhead** — service throughput during vs without migration.

Disruption and overhead are computed post-hoc from the workload
throughput series (:mod:`repro.analysis.throughput`); the rest live on
the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..units import MiB, fmt_bytes, fmt_time


#: Proactive stop (§IV-A-1): an iteration that dirtied units faster than
#: this fraction of its transfer rate cannot converge by iterating.
PROACTIVE_STOP_FRACTION = 0.9


@dataclass
class IterationStats:
    """One disk pre-copy iteration (or one memory pre-copy round)."""

    index: int
    #: Blocks (or pages) transferred during the iteration.
    units_sent: int
    bytes_sent: int
    started_at: float
    ended_at: float
    #: Size of the dirty set accumulated *during* this iteration (the input
    #: of the next one).
    dirty_at_end: int

    @property
    def duration(self) -> float:
        return self.ended_at - self.started_at

    @property
    def transfer_rate(self) -> float:
        """Units (blocks or pages) per second achieved by this iteration."""
        return self.units_sent / self.duration if self.duration > 0 else float("inf")

    @property
    def dirty_rate(self) -> float:
        """Units dirtied per second during this iteration."""
        return self.dirty_at_end / self.duration if self.duration > 0 else 0.0

    @property
    def outruns_transfer(self) -> bool:
        """The proactive-stop test: this iteration dirtied units faster
        than :data:`PROACTIVE_STOP_FRACTION` of its transfer rate (never
        true of an instantaneous iteration)."""
        return self.dirty_rate > PROACTIVE_STOP_FRACTION * self.transfer_rate


@dataclass
class PostCopyStats:
    """Outcome of the push-and-pull synchronization phase."""

    started_at: float = 0.0
    ended_at: float = 0.0
    #: Blocks the source pushed proactively.
    pushed_blocks: int = 0
    #: Blocks transferred in response to destination pull requests.
    pulled_blocks: int = 0
    #: Received blocks dropped because a guest write had already superseded
    #: them (paper's receive-algorithm lines 2-3).
    dropped_blocks: int = 0
    #: Guest read requests that had to wait for a pull.
    stalled_reads: int = 0
    #: Total guest-visible time spent waiting for pulled blocks.
    stall_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.ended_at - self.started_at


@dataclass
class MigrationReport:
    """Everything measured about one migration run."""

    scheme: str = "tpm"
    workload: str = "unknown"
    incremental: bool = False

    # -- phase boundaries ----------------------------------------------------
    started_at: float = 0.0
    precopy_disk_started_at: float = 0.0
    precopy_disk_ended_at: float = 0.0
    precopy_mem_started_at: float = 0.0
    precopy_mem_ended_at: float = 0.0
    suspended_at: float = 0.0
    resumed_at: float = 0.0
    ended_at: float = 0.0

    # -- per-phase detail --------------------------------------------------
    disk_iterations: list[IterationStats] = field(default_factory=list)
    mem_rounds: list[IterationStats] = field(default_factory=list)
    postcopy: PostCopyStats = field(default_factory=PostCopyStats)

    # -- freeze-and-copy detail --------------------------------------------
    #: Dirty blocks marked in the bitmap shipped at freeze (to be fixed by
    #: post-copy).
    remaining_dirty_blocks: int = 0
    #: Wire size of the shipped block-bitmap.
    bitmap_nbytes: int = 0
    #: Dirty pages shipped during the freeze.
    final_dirty_pages: int = 0

    # -- wire accounting -----------------------------------------------------
    #: Per-category wire bytes (disk / memory / bitmap / cpu / pull / control).
    bytes_by_category: dict[str, int] = field(default_factory=dict)

    #: Set by the scheme's verify step (``MigrationScheme._verify``).
    consistency_verified: bool = False

    # -- retry accounting ---------------------------------------------------
    #: Attempts this migration took end to end (1 = no failure).  Set by
    #: :class:`~repro.core.manager.MigrationRetrier` on the final report.
    attempts: int = 1
    #: Reports of the failed attempts, in order (each stamped with
    #: ``extra["failed_phase"]``, wire bytes, phase timings).
    failed_attempts: list["MigrationReport"] = field(default_factory=list)
    #: Simulated time spent sleeping between attempts.
    backoff_time: float = 0.0

    #: Scheme-specific extras (e.g. the delta baseline's I/O block time,
    #: the on-demand baseline's residual-dependency stats).
    extra: dict = field(default_factory=dict)

    # -- derived metrics ---------------------------------------------------

    @property
    def total_migration_time(self) -> float:
        """Paper metric: start → full synchronization."""
        return self.ended_at - self.started_at

    @property
    def downtime(self) -> float:
        """Paper metric: suspend on source → resume on destination."""
        return self.resumed_at - self.suspended_at

    @property
    def migrated_bytes(self) -> int:
        """Paper metric: amount of migrated data (protocol included)."""
        return sum(self.bytes_by_category.values())

    @property
    def migrated_mb(self) -> float:
        return self.migrated_bytes / MiB

    @property
    def storage_migration_time(self) -> float:
        """Disk phases only: disk pre-copy + (freeze) + post-copy.

        Used for Table II-style accounting, where IM's reported times are
        far below what a full 512 MiB memory transfer would need (see
        EXPERIMENTS.md for the interpretation).
        """
        disk_pre = self.precopy_disk_ended_at - self.precopy_disk_started_at
        freeze = self.resumed_at - self.suspended_at
        return disk_pre + freeze + self.postcopy.duration

    @property
    def storage_bytes(self) -> int:
        """Wire bytes attributable to disk state (data + bitmap + pulls)."""
        return sum(self.bytes_by_category.get(k, 0)
                   for k in ("disk", "bitmap", "pull"))

    @property
    def retransferred_blocks(self) -> int:
        """Blocks sent by pre-copy iterations after the first (redundancy)."""
        return sum(it.units_sent for it in self.disk_iterations[1:])

    @property
    def precopy_duration(self) -> float:
        return self.precopy_mem_ended_at - self.precopy_disk_started_at

    @property
    def migrated_bytes_all_attempts(self) -> int:
        """Wire bytes across the failed attempts plus the final one."""
        return self.migrated_bytes + sum(r.migrated_bytes
                                         for r in self.failed_attempts)

    @property
    def retries(self) -> int:
        """Failed attempts before the one that (finally) succeeded."""
        return self.attempts - 1

    @property
    def attempt_durations(self) -> list[float]:
        """Wall-clock duration of every attempt, failed ones first."""
        return ([r.ended_at - r.started_at for r in self.failed_attempts]
                + [self.ended_at - self.started_at])

    def summary(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"{self.scheme.upper()} migration of {self.workload!r}"
            + (" (incremental)" if self.incremental else ""),
            f"  total migration time : {fmt_time(self.total_migration_time)}",
            f"  downtime             : {fmt_time(self.downtime)}",
            f"  migrated data        : {fmt_bytes(self.migrated_bytes)}",
            f"  disk iterations      : {len(self.disk_iterations)}"
            f" (retransferred {self.retransferred_blocks} blocks)",
            f"  remaining dirty      : {self.remaining_dirty_blocks} blocks"
            f" -> post-copy {fmt_time(self.postcopy.duration)}"
            f" ({self.postcopy.pushed_blocks} pushed,"
            f" {self.postcopy.pulled_blocks} pulled,"
            f" {self.postcopy.dropped_blocks} dropped)",
        ]
        if self.attempts > 1:
            lines.append(
                f"  attempts             : {self.attempts}"
                f" ({self.retries} failed,"
                f" backoff {fmt_time(self.backoff_time)})")
        return "\n".join(lines)
