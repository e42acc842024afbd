"""The scheme table, cross-scheme report parity, and shared-link runs.

These are the refactor's acceptance tests: every migration scheme —
paper mechanism and baselines alike — runs through the one
``Migrator.migrate`` code path, produces a report with the same schema,
lands in ``Migrator.history``, and concurrent migrations sharing a link
keep per-link byte accounting conserved.
"""

import os
import subprocess
import sys

import pytest

import repro
from repro.cluster import assert_conserved
from repro.core import SCHEMES
from repro.core.scheme import MigrationScheme
from repro.core.tpm import ThreePhaseMigration
from repro.errors import MigrationError, MigrationFailed
from repro.vm import Domain, GuestMemory

# The five schemes, spelled out so a grep of the test tree proves each
# one is exercised (tools/check_scheme_coverage.py).
ALL_SCHEMES = (
    "delta-queue",
    "freeze-and-copy",
    "on-demand",
    "shared-storage",
    "tpm",
)


class TestRegistry:
    """``SCHEMES`` is the one closed table of scheme names."""

    def test_registry_matches_expected_schemes(self):
        assert sorted(SCHEMES) == list(ALL_SCHEMES)

    def test_tpm_is_the_paper_mechanism(self):
        assert SCHEMES["tpm"] is ThreePhaseMigration
        assert ThreePhaseMigration.uses_im

    def test_unknown_scheme_raises(self, bed):
        for name in ("teleport", "ondemand"):
            with pytest.raises(MigrationError, match="unknown migration "
                               "scheme .*choose one of: tpm, "):
                next(bed.migrator.migrate(bed.domain, bed.destination,
                                          scheme=name))
        assert not bed.migrator.history and not bed.migrator.migrations

    def test_every_scheme_subclasses_base(self):
        for name, cls in SCHEMES.items():
            assert issubclass(cls, MigrationScheme)
            assert cls.name == name

    @pytest.mark.parametrize("module", ["repro.baselines",
                                        "repro.baselines.delta",
                                        "repro.core.scheme"])
    def test_table_loads_whichever_module_comes_first(self, module):
        # repro.core.manager imports the baseline modules and they import
        # repro.core.scheme: no entry point may trip over the cycle.
        code = (f"import {module}\n"
                "from repro.core import SCHEMES\n"
                "print(len(SCHEMES))")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        result = subprocess.run([sys.executable, "-c", code],
                                env={**os.environ, "PYTHONPATH": src},
                                capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "5"


class TestConnectDedup:
    """Regression: reconnecting a pair must not replace the live link."""

    def test_reconnect_returns_same_link(self, bed):
        duplex = bed.migrator.topology.duplex_between(bed.source,
                                                      bed.destination)
        again = bed.migrator.connect(bed.source, bed.destination,
                                     bandwidth=duplex.forward.bandwidth,
                                     latency=duplex.forward.latency)
        assert again is duplex

    def test_reconnect_conflict_raises(self, bed):
        duplex = bed.migrator.topology.duplex_between(bed.source,
                                                      bed.destination)
        with pytest.raises(MigrationError):
            bed.migrator.connect(bed.source, bed.destination,
                                 bandwidth=duplex.forward.bandwidth * 2,
                                 latency=duplex.forward.latency)
        # The original link is untouched.
        assert bed.migrator.topology.duplex_between(
            bed.source, bed.destination) is duplex


class TestCrashedHostReport:
    """Regression: the early-failure report must carry the *requested*
    scheme, not a hardcoded "tpm"."""

    @pytest.mark.parametrize("scheme", ["freeze-and-copy"])
    def test_report_stamps_selected_scheme(self, bed, scheme):
        bed.destination.crashed = True
        proc = bed.migrator.migrate_process(bed.domain, bed.destination,
                                            scheme=scheme)
        with pytest.raises(MigrationFailed):
            bed.env.run(until=proc)
        report = bed.migrator.history[-1]
        assert report.scheme == scheme
        assert report.extra["failed"] is True


class TestSchemeParity:
    """All five schemes run through one Migrator entry point and emit
    reports with the same schema."""

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_scheme_completes_with_uniform_report(self, make_bed, scheme):
        bed = make_bed(nblocks=512, npages=128)
        proc = bed.migrator.migrate_process(
            bed.domain, bed.destination, workload_name="idle",
            scheme=scheme)
        report = bed.env.run(until=proc)

        # Same schema for every scheme.
        assert report.scheme == scheme
        assert report.workload == "idle"
        assert report.ended_at > report.started_at
        assert report.total_migration_time > 0
        assert report.downtime >= 0
        assert isinstance(report.bytes_by_category, dict)
        assert not report.extra.get("failed")

        # One history, one migration object list, for every scheme.
        assert bed.migrator.history[-1] is report
        migration = bed.migrator.migrations[-1]
        assert migration.report is report
        assert type(migration) is SCHEMES[scheme]

        # The domain actually moved (shared storage migrates only the
        # execution host; either way the VM must end up running on the
        # destination).
        assert bed.domain.host is bed.destination
        assert bed.domain.running

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_scheme_moves_bytes_and_conserves_them(self, make_bed, scheme):
        bed = make_bed(nblocks=512, npages=128)
        proc = bed.migrator.migrate_process(bed.domain, bed.destination,
                                            scheme=scheme)
        bed.env.run(until=proc)
        assert_conserved(bed.migrator.migrations)
        if scheme != "shared-storage":  # shared storage ships no disk
            total = sum(
                bed.migrator.history[-1].bytes_by_category.values())
            assert total > 0


class TestConcurrentSharedLink:
    """Two domains migrating over one physical link at the same time."""

    def _second_domain(self, bed, nblocks=512, npages=128):
        vbd = bed.source.prepare_vbd(nblocks)
        vbd.write(0, nblocks)
        domain = Domain(bed.env, GuestMemory(npages, clock=bed.clock),
                        name="vm2")
        bed.source.attach_domain(domain, vbd)
        return domain

    def test_both_complete_and_bytes_conserved(self, make_bed):
        bed = make_bed(nblocks=512, npages=128)
        other = self._second_domain(bed)
        p1 = bed.migrator.migrate_process(bed.domain, bed.destination)
        p2 = bed.migrator.migrate_process(other, bed.destination)
        bed.env.run(until=bed.env.all_of([p1, p2]))

        assert bed.domain.host is bed.destination and bed.domain.running
        assert other.host is bed.destination and other.running
        assert not bed.source.domains

        # Reports are independent: one per domain, distinct objects,
        # both complete.
        reports = bed.migrator.history
        assert len(reports) == 2
        assert reports[0] is not reports[1]
        assert {r.workload for r in reports} == {"unknown"}
        for report in reports:
            assert not report.extra.get("failed")
            assert report.downtime > 0
            assert sum(report.bytes_by_category.values()) > 0

        # Conservation: the link's wire counter equals the sum of both
        # migrations' channel ledgers.
        assert len(bed.migrator.migrations) == 2
        assert_conserved(bed.migrator.migrations)
        fwd_link, _ = bed.migrator.link_between(bed.source, bed.destination)
        ledger_total = sum(
            chan.total_bytes
            for migration in bed.migrator.migrations
            for chan in migration.channels
            if chan.link is fwd_link)
        assert fwd_link.bytes_sent == ledger_total

    def test_contention_slows_both_versus_solo(self, make_bed):
        solo = make_bed(nblocks=512, npages=128)
        proc = solo.migrator.migrate_process(solo.domain, solo.destination)
        solo_report = solo.env.run(until=proc)

        bed = make_bed(nblocks=512, npages=128)
        other = self._second_domain(bed)
        p1 = bed.migrator.migrate_process(bed.domain, bed.destination)
        p2 = bed.migrator.migrate_process(other, bed.destination)
        bed.env.run(until=bed.env.all_of([p1, p2]))
        for report in bed.migrator.history:
            assert (report.total_migration_time
                    > solo_report.total_migration_time)

    def test_mixed_schemes_share_a_link(self, make_bed):
        bed = make_bed(nblocks=512, npages=128)
        other = self._second_domain(bed)
        p1 = bed.migrator.migrate_process(bed.domain, bed.destination,
                                          scheme="tpm")
        p2 = bed.migrator.migrate_process(other, bed.destination,
                                          scheme="freeze-and-copy")
        bed.env.run(until=bed.env.all_of([p1, p2]))
        assert bed.domain.host is bed.destination
        assert other.host is bed.destination
        assert {r.scheme for r in bed.migrator.history} == {
            "tpm", "freeze-and-copy"}
        assert_conserved(bed.migrator.migrations)
