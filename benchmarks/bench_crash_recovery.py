"""Crash recovery — durable block-bitmaps vs losing the tracking state.

`bench_fault_recovery` measures retries after a *link* failure, where the
source keeps its in-memory bitmap.  This benchmark kills the **source
host itself** mid-disk-pre-copy (losing every in-memory structure), lets
it restart, and compares:

* **persisted retry** — ``persist_bitmap=True``: the restarted host
  recovers the pending set from its stable-storage snapshot + journal and
  the retry resumes incrementally, and
* **volatile retry** — no persistence: the crash destroys the tracking
  bitmap, so the retry must re-send the whole device.

A second sweep compares the sync policies (``wal`` / ``batch`` /
``snapshot``): lazier policies write stable storage less often but
recover a fatter, guard-region-padded pending set — the write-
amplification vs recovery-precision trade the store exposes.
"""

from bench_fault_recovery import FaultBed, disk_bytes_all_attempts, \
    disk_precopy_window
from conftest import dump_trace, emit, run_once
from repro.analysis import format_table
from repro.core import MigrationRetrier, RetryPolicy
from repro.faults import FaultInjector, FaultPlan
from repro.persist import SYNC_POLICIES

SEND_TIMEOUT = 0.25
DOWN_FOR = 2.0
BACKOFF = 1.0
FRACTIONS = (0.25, 0.5, 0.75)


def run_with_crash(scale, fail_at, persist, policy="wal"):
    """One migration whose source dies at ``fail_at`` and restarts."""
    bed = FaultBed(scale)
    cfg = bed.config.replace(persist_bitmap=persist,
                             persist_sync_policy=policy)
    plan = FaultPlan(send_timeout=SEND_TIMEOUT).crash(
        "source", at=fail_at, down_for=DOWN_FOR)
    FaultInjector(bed.env, plan).inject(bed.migrator)
    retrier = MigrationRetrier(bed.migrator, RetryPolicy(
        max_attempts=3, initial_backoff=BACKOFF, incremental=True,
        wait_for_restart=True))
    proc = retrier.migrate_process(bed.domain, bed.destination, cfg)
    report = bed.env.run(until=proc)
    store = bed.source._bitmap_stores.get(
        (bed.domain.domain_id, "precopy"))
    dump_trace(bed.env, f"crash_retry_{'persist' if persist else 'volatile'}"
                        f"_{policy}_at{fail_at:.2f}")
    return report, store


def test_crash_recovery_sweep(benchmark, scale):
    """Persisted vs volatile retry after a full source crash."""

    def sweep():
        t0, t1, baseline = disk_precopy_window(scale)
        out = []
        for frac in FRACTIONS:
            fail_at = t0 + frac * (t1 - t0)
            persisted, store = run_with_crash(scale, fail_at, persist=True)
            volatile, _ = run_with_crash(scale, fail_at, persist=False)
            out.append((frac, persisted, volatile, store))
        return baseline, out

    baseline, results = run_once(benchmark, sweep)

    rows = []
    gaps = []
    for frac, persisted, volatile, store in results:
        p_disk = disk_bytes_all_attempts(persisted)
        v_disk = disk_bytes_all_attempts(volatile)
        gap = v_disk - p_disk
        gaps.append(gap)
        recovery = store.last_recovery
        rows.append([f"{frac:.0%}", p_disk / 2**20, v_disk / 2**20,
                     gap / 2**20, recovery.pending_blocks,
                     recovery.overmarked_blocks])

        # Acceptance criterion: the persisted bitmap survives the host
        # crash, the retry resumes from it, and it moves strictly fewer
        # disk bytes than the volatile restart-from-scratch.
        assert persisted.attempts == 2 and volatile.attempts == 2
        assert persisted.consistency_verified
        assert volatile.consistency_verified
        assert persisted.extra.get("recovered_from_persistence") is True
        assert not volatile.extra.get("recovered_from_persistence")
        assert (persisted.failed_attempts[0].extra
                .get("persisted_bitmap_recoverable") is True)
        assert p_disk < v_disk

    # The later the crash, the more confirmed work persistence saves.
    assert gaps[-1] > gaps[0]

    emit(benchmark, "Crash recovery",
         format_table(
             ["crash point", "persisted (MiB)", "volatile (MiB)",
              "persistence saves (MiB)", "recovered pending",
              "over-marked"], rows,
             title=(f"Disk bytes over all attempts, source host crash at "
                    f"a fraction of disk pre-copy (scale={scale})")),
         baseline_disk_mb=baseline.bytes_by_category["disk"] / 2**20,
         gap_mb=[g / 2**20 for g in gaps])


def test_sync_policy_tradeoff(benchmark, scale):
    """Write amplification vs recovery precision across sync policies."""

    def sweep():
        t0, t1, _baseline = disk_precopy_window(scale)
        fail_at = t0 + 0.5 * (t1 - t0)
        out = []
        for policy in SYNC_POLICIES:
            report, store = run_with_crash(scale, fail_at, persist=True,
                                           policy=policy)
            out.append((policy, report, store))
        return out

    results = run_once(benchmark, sweep)

    rows = []
    flushes = {}
    overmarks = {}
    for policy, report, store in results:
        assert report.consistency_verified
        assert report.extra.get("recovered_from_persistence") is True
        stats = store.collect_stats()
        recovery = store.last_recovery
        flushes[policy] = stats.journal_flushes
        overmarks[policy] = recovery.overmarked_blocks
        rows.append([policy, stats.journal_flushes, stats.area_writes,
                     recovery.pending_blocks, recovery.overmarked_blocks,
                     "yes" if recovery.exact else "no",
                     disk_bytes_all_attempts(report) / 2**20])

    # WAL flushes on every record; the lazy policies flush (far) less.
    # WAL alone guarantees exact recovery; the lazy policies may recover
    # a guard-padded pending set (how padded depends on where the crash
    # fell relative to the last flush/compaction, so only WAL's zero is
    # asserted -- the table reports the rest).
    assert flushes["wal"] > flushes["batch"] >= flushes["snapshot"]
    assert overmarks["wal"] == 0

    emit(benchmark, "Sync policies",
         format_table(
             ["policy", "journal flushes", "area writes",
              "recovered pending", "over-marked", "exact",
              "disk bytes (MiB)"], rows,
             title=(f"Durability write cost vs recovery precision "
                    f"(crash at 50% of disk pre-copy, scale={scale})")))
