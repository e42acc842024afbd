"""End-to-end trace integrity on real TPM migrations.

Locks down the two invariants documented in docs/ARCHITECTURE.md:

1. recording never advances the clock, so per-phase span durations equal
   the :class:`MigrationReport` phase durations *exactly* (float ``==``,
   not approx) and the ``chan.*`` counters equal the byte ledger;
2. the disabled path is free: a run without observability installed
   reports numbers identical to an instrumented one.
"""

import json

import pytest

from repro.obs import install, phase_durations, to_chrome_trace


def observed_bed(make_bed, **kwargs):
    bed = make_bed(**kwargs)
    install(bed.env)
    return bed


def counter_total(metrics, name):
    inst = metrics.get(name)
    return 0 if inst is None else inst.total


@pytest.fixture
def traced_run(make_bed):
    """One full TPM migration under a dirtying guest, fully observed."""
    bed = observed_bed(make_bed)
    bed.random_writer()
    report = bed.migrate()
    assert report.consistency_verified
    return bed, report


class TestExactReportAgreement:
    def test_phase_span_durations_match_report(self, traced_run):
        bed, report = traced_run
        durations = phase_durations(bed.env.tracer)
        # Exact float equality, not approx: span boundaries are read from
        # env.now at the same statements that stamp the report.
        assert durations["precopy-disk"] == (report.precopy_disk_ended_at
                                             - report.precopy_disk_started_at)
        assert durations["precopy-mem"] == (report.precopy_mem_ended_at
                                            - report.precopy_mem_started_at)
        assert durations["freeze"] == report.downtime
        assert durations["postcopy"] == report.postcopy.duration

    def test_migration_span_covers_report(self, traced_run):
        bed, report = traced_run
        (mig,) = bed.env.tracer.find(category="migration")
        assert mig.start == report.started_at
        assert mig.args["total_migration_time"] == report.total_migration_time
        assert mig.args["downtime"] == report.downtime

    def test_chan_counters_match_byte_ledger(self, traced_run):
        bed, report = traced_run
        metrics = bed.env.metrics
        for category, nbytes in report.bytes_by_category.items():
            assert counter_total(metrics, f"chan.{category}.bytes") == nbytes
        # And no category on the wire escaped the ledger.
        ledgered = {f"chan.{c}.bytes" for c in report.bytes_by_category}
        assert set(metrics.names("chan.")) == ledgered

    def test_postcopy_counters_match_stats(self, traced_run):
        bed, report = traced_run
        metrics = bed.env.metrics
        stats = report.postcopy
        assert counter_total(metrics,
                             "postcopy.pushed_blocks") == stats.pushed_blocks
        assert counter_total(metrics,
                             "postcopy.pulled_blocks") == stats.pulled_blocks
        assert counter_total(metrics,
                             "postcopy.dropped_blocks") == stats.dropped_blocks
        assert counter_total(metrics,
                             "postcopy.stalled_reads") == stats.stalled_reads
        hist = metrics.get("postcopy.stall_seconds")
        assert (hist.sum if hist is not None else 0.0) == stats.stall_time

    def test_freeze_instants_match_timestamps(self, traced_run):
        bed, report = traced_run
        instants = {i.name: i for i in bed.env.tracer.instants
                    if i.category == "freeze"}
        assert instants["suspend"].at == report.suspended_at
        assert instants["resume"].at == report.resumed_at
        assert instants["resume"].args["downtime"] == report.downtime
        assert instants["bitmap:shipped"].args["dirty_blocks"] \
            == report.remaining_dirty_blocks


class TestSpanTree:
    def test_all_spans_closed_and_rooted(self, traced_run):
        bed, _ = traced_run
        tracer = bed.env.tracer
        assert tracer.open_spans == []
        (mig,) = tracer.find(category="migration")
        for phase in tracer.find(category="phase"):
            assert phase.parent == mig.sid

    def test_iterations_nest_under_their_phase(self, traced_run):
        bed, report = traced_run
        tracer = bed.env.tracer
        (disk_phase,) = tracer.find(name="phase:precopy-disk")
        iterations = [s for s in tracer.spans if s.parent == disk_phase.sid
                      and s.category == "iteration"]
        assert len(iterations) == len(report.disk_iterations)
        for it in iterations:
            chunks = [s for s in tracer.spans if s.parent == it.sid]
            assert chunks and all(c.category == "transfer" for c in chunks)

    def test_span_times_are_sane(self, traced_run):
        bed, _ = traced_run
        for span in bed.env.tracer.spans:
            assert span.end is not None and span.end >= span.start


class TestChromeExportOfRealRun:
    def test_round_trips_and_is_complete(self, traced_run):
        bed, _ = traced_run
        tracer, metrics = bed.env.tracer, bed.env.metrics
        doc = to_chrome_trace(tracer, metrics)
        assert json.loads(json.dumps(doc)) == doc
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(complete) == len(tracer.spans)
        assert len([e for e in doc["traceEvents"] if e["ph"] == "i"]) \
            == len(tracer.instants)


class TestDisabledRunMatchesSeed:
    def test_disabled_run_matches_seed(self, make_bed):
        """Observability attached vs absent: every reported number equal."""

        def run(observe):
            bed = make_bed() if not observe else observed_bed(make_bed)
            bed.random_writer()
            return bed.migrate(), bed

        plain, plain_bed = run(observe=False)
        traced, traced_bed = run(observe=True)

        assert not plain_bed.env.tracer.enabled
        assert len(traced_bed.env.tracer.spans) > 0

        assert plain.total_migration_time == traced.total_migration_time
        assert plain.downtime == traced.downtime
        assert plain.bytes_by_category == traced.bytes_by_category
        assert plain.migrated_bytes == traced.migrated_bytes
        assert plain.suspended_at == traced.suspended_at
        assert plain.resumed_at == traced.resumed_at
        assert len(plain.disk_iterations) == len(traced.disk_iterations)
        assert len(plain.mem_rounds) == len(traced.mem_rounds)
        assert plain.postcopy.pushed_blocks == traced.postcopy.pushed_blocks
        assert plain.postcopy.pulled_blocks == traced.postcopy.pulled_blocks
        assert plain_bed.env.now == traced_bed.env.now


class TestRegistryDeterminism:
    def test_identical_runs_give_equal_snapshots(self, make_bed):
        """The registry holds simulated-time values only: two identical
        observed runs must produce equal snapshots, wall clock aside."""

        def snapshot():
            bed = observed_bed(make_bed)
            bed.random_writer()
            bed.migrate()
            return bed.env.metrics.snapshot()

        first = snapshot()
        assert first
        assert first == snapshot()
