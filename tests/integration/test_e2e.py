"""End-to-end integration tests: the paper's scenarios at reduced scale."""

import numpy as np
import pytest

from repro.analysis import (
    build_testbed,
    mean_rate,
    performance_overhead,
    read_series,
    run_locality_experiment,
    run_table1_experiment,
    run_table2_experiment,
)
from repro.analysis.experiments import run_baseline_experiment
from repro.core import MigrationConfig
from repro.units import MB

SCALE = 0.005  # ~50k blocks / ~195 MiB disk


class TestTableOneShape:
    """Qualitative shape of Table I at reduced scale."""

    @pytest.fixture(scope="class")
    def reports(self):
        out = {}
        for wl in ("specweb", "video", "bonnie"):
            out[wl], _ = run_table1_experiment(wl, scale=SCALE, warmup=5.0)
        return out

    def test_all_consistent(self, reports):
        assert all(r.consistency_verified for r in reports.values())

    def test_downtime_is_milliseconds_not_seconds(self, reports):
        for wl, r in reports.items():
            assert r.downtime < 0.2, wl

    def test_bonnie_takes_longest(self, reports):
        assert (reports["bonnie"].total_migration_time
                > reports["specweb"].total_migration_time)
        assert (reports["bonnie"].total_migration_time
                > reports["video"].total_migration_time)

    def test_bonnie_moves_most_data(self, reports):
        assert reports["bonnie"].migrated_bytes > max(
            reports["specweb"].migrated_bytes,
            reports["video"].migrated_bytes)

    def test_data_close_to_disk_size(self, reports):
        """Amount migrated is 'just a little larger than the VBD'."""
        for wl in ("specweb", "video"):
            r = reports[wl]
            disk_bytes = r.bytes_by_category["disk"]
            # within a few percent of one full disk copy for the calm loads
            from repro.analysis import FULL_DISK_BLOCKS
            vbd_bytes = int(FULL_DISK_BLOCKS * SCALE) * 4096
            assert disk_bytes < 1.15 * vbd_bytes, wl

    def test_video_has_fewest_iterations(self, reports):
        assert (len(reports["video"].disk_iterations)
                <= len(reports["bonnie"].disk_iterations))


class TestTableTwoShape:
    def test_im_dramatically_cheaper_for_all_workloads(self):
        for wl in ("specweb", "video", "bonnie"):
            primary, back, _ = run_table2_experiment(
                wl, scale=SCALE, warmup=5.0, dwell=5.0)
            assert back.migrated_bytes < 0.35 * primary.migrated_bytes, wl
            assert (back.storage_migration_time
                    < 0.35 * primary.storage_migration_time), wl

    def test_bonnie_im_costs_most_among_workloads(self):
        costs = {}
        for wl in ("specweb", "video", "bonnie"):
            _, back, _ = run_table2_experiment(wl, scale=SCALE, warmup=5.0,
                                               dwell=5.0)
            costs[wl] = back.bytes_by_category.get("disk", 0)
        assert costs["bonnie"] > costs["specweb"] > costs["video"]


class TestFigureFiveShape:
    def test_specweb_throughput_not_visibly_degraded(self):
        report, bed = run_table1_experiment("specweb", scale=SCALE,
                                            warmup=20.0)
        bed.run_for(20.0)
        baseline = mean_rate(bed.metrics, "specweb:throughput", 0.0, 20.0)
        during = mean_rate(bed.metrics, "specweb:throughput",
                           report.started_at, report.ended_at)
        assert during > 0.85 * baseline


class TestVideoFluency:
    def test_no_observable_stall_during_migration(self):
        report, bed = run_table1_experiment("video", scale=SCALE,
                                            warmup=10.0)
        bed.run_for(10.0)
        _times, latencies = read_series(bed.metrics, "video:read_latency")
        assert latencies.size and latencies.max() <= 2.0
        assert bed.workload.stalls == 0


class TestFigureSixShape:
    def test_bonnie_degraded_during_migration_recovers_after(self):
        report, bed = run_table1_experiment("bonnie", scale=SCALE,
                                            warmup=20.0)
        bed.run_for(30.0)
        series = "bonnie:write"
        result = performance_overhead(
            bed.metrics, series,
            migration_window=(report.precopy_disk_started_at,
                              report.precopy_disk_ended_at),
            baseline_window=(0.0, 20.0))
        assert result.overhead_fraction > 0.2  # visible impact

    def test_rate_limit_reduces_impact_but_lengthens_precopy(self):
        results = {}
        for label, limit in (("unlimited", None), ("limited", 25 * MB)):
            cfg = MigrationConfig(rate_limit=limit)
            report, bed = run_table1_experiment("bonnie", scale=SCALE,
                                                warmup=20.0, config=cfg)
            bed.run_for(10.0)
            overhead = performance_overhead(
                bed.metrics, "bonnie:write",
                migration_window=(report.precopy_disk_started_at,
                                  report.precopy_disk_ended_at),
                baseline_window=(0.0, 20.0))
            results[label] = (overhead.overhead_fraction,
                              report.precopy_disk_ended_at
                              - report.precopy_disk_started_at)
        assert results["limited"][0] < results["unlimited"][0]
        assert results["limited"][1] > results["unlimited"][1]


class TestLocalityShape:
    def test_ordering_matches_paper(self):
        """kernel build (11%) < specweb (25.2%) < bonnie (35.6%)."""
        fractions = {}
        for wl in ("kernelbuild", "specweb"):
            stats, _ = run_locality_experiment(wl, duration=60.0, scale=0.05,
                                               warmup=30.0)
            fractions[wl] = stats.op_rewrite_fraction
        assert fractions["kernelbuild"] < fractions["specweb"]
        assert fractions["kernelbuild"] == pytest.approx(0.11, abs=0.06)
        assert fractions["specweb"] == pytest.approx(0.252, abs=0.08)


class TestSchemeComparison:
    def test_tpm_beats_freeze_copy_downtime_and_ondemand_dependency(self):
        tpm, _, _ = run_baseline_experiment("tpm", "specweb", scale=SCALE,
                                            warmup=3.0, tail=1.0)
        fc, _, _ = run_baseline_experiment("freeze-and-copy", "specweb",
                                           scale=SCALE, warmup=3.0, tail=1.0)
        od, od_bed, od_mig = run_baseline_experiment(
            "on-demand", "specweb", scale=SCALE, warmup=3.0, tail=5.0)
        # TPM: downtime orders below freeze-and-copy.
        assert tpm.downtime < 0.05 * fc.downtime
        # TPM: finite dependency; on-demand: still dependent after the run.
        assert od_mig.dependency_alive
        od_mig.stop()
        od_bed.env.run(until=od_bed.env.now + 0.1)
