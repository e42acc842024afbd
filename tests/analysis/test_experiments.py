"""Unit tests for the canned experiment builders and runners."""

import pytest

from repro.analysis import (
    build_testbed,
    make_workload,
    read_series,
    run_figure_experiment,
    run_locality_experiment,
    run_table1_experiment,
    run_table2_experiment,
)
from repro.analysis import experiments
from repro.analysis.experiments import run_baseline_experiment
from repro.errors import MigrationError, ReproError
from repro.workloads import (
    BonniePlusPlus,
    IdleWorkload,
    KernelBuild,
    SpecWebBanking,
    VideoStreamServer,
)

SCALE = 0.003  # ~30k blocks, fast enough for unit tests


class TestBuilders:
    def test_workload_factory_types(self):
        cases = {
            "specweb": SpecWebBanking,
            "video": VideoStreamServer,
            "bonnie": BonniePlusPlus,
            "kernelbuild": KernelBuild,
            "idle": IdleWorkload,
        }
        for name, cls in cases.items():
            assert isinstance(make_workload(name, 100_000, 4_096, 0), cls)

    def test_unknown_workload_rejected(self):
        with pytest.raises(ReproError):
            make_workload("nope", 1000, 100, 0)

    def test_bad_scale_rejected(self):
        with pytest.raises(ReproError):
            build_testbed(scale=0)
        with pytest.raises(ReproError):
            build_testbed(scale=2)

    def test_testbed_is_runnable(self):
        bed = build_testbed("idle", scale=SCALE)
        bed.start_workload()
        bed.run_for(1.0)
        assert bed.env.now == 1.0

    def test_determinism(self):
        r1, _ = run_table1_experiment("specweb", scale=SCALE, warmup=2.0)
        r2, _ = run_table1_experiment("specweb", scale=SCALE, warmup=2.0)
        assert r1.total_migration_time == r2.total_migration_time
        assert r1.migrated_bytes == r2.migrated_bytes

    def test_seed_changes_outcome(self):
        r1, _ = run_table1_experiment("specweb", scale=SCALE, warmup=2.0,
                                      seed=0)
        r2, _ = run_table1_experiment("specweb", scale=SCALE, warmup=2.0,
                                      seed=1)
        assert r1.migrated_bytes != r2.migrated_bytes


class TestRunners:
    def test_table1_runner(self):
        report, bed = run_table1_experiment("video", scale=SCALE, warmup=2.0)
        assert report.consistency_verified
        assert bed.domain.host is bed.destination

    def test_table2_runner(self):
        primary, back, _ = run_table2_experiment("specweb", scale=SCALE,
                                                 warmup=2.0, dwell=3.0)
        assert not primary.incremental
        assert back.incremental
        assert back.migrated_bytes < primary.migrated_bytes

    def test_figure_runner_produces_series(self):
        report, bed = run_figure_experiment("specweb", scale=SCALE,
                                            migration_start=2.0, tail=3.0)
        times, values = read_series(bed.metrics, "specweb:throughput")
        assert times.size > 0
        assert times[-1] > report.ended_at  # workload ran past migration

    def test_locality_runner(self):
        stats, _ = run_locality_experiment("kernelbuild", duration=20.0,
                                           scale=0.02, warmup=5.0)
        assert stats.write_ops > 0
        assert 0.0 <= stats.op_rewrite_fraction <= 1.0

    def test_baseline_runner_unknown_scheme(self, monkeypatch):
        # Rejected before any testbed is built; "delta" was an alias.
        def no_testbed(*args, **kwargs):
            raise AssertionError("testbed built for an unknown scheme")

        monkeypatch.setattr(experiments, "build_testbed", no_testbed)
        for name in ("teleport", "delta"):
            with pytest.raises(MigrationError, match=repr(name)):
                run_baseline_experiment(name, scale=SCALE)

    def test_baseline_runner_tpm_path(self):
        report, _, mig = run_baseline_experiment("tpm", "idle", scale=SCALE,
                                                 warmup=1.0, tail=1.0)
        assert report.scheme == "tpm"
        assert mig.report is report
