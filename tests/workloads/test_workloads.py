"""Unit tests for the concrete guest workloads."""

import numpy as np
import pytest

from repro.analysis.throughput import mean_rate, read_series
from repro.errors import ReproError
from repro.obs import MetricsRegistry
from repro.workloads import (
    BonniePlusPlus,
    IdleWorkload,
    KernelBuild,
    MemoryDirtier,
    SpecWebBanking,
    VideoStreamServer,
)
from repro.workloads import diabolical, streaming


@pytest.fixture
def metrics(bed):
    """A live registry on the bed's environment, where series land."""
    bed.env.metrics = MetricsRegistry(bed.env)
    return bed.env.metrics


def attach(bed, workload):
    workload.bind(bed.domain)
    workload.start(bed.env)
    return workload


class TestFramework:
    def test_unbound_start_rejected(self, bed):
        wl = IdleWorkload()
        with pytest.raises(ReproError):
            wl.start(bed.env)

    def test_stop_interrupts_cleanly(self, bed):
        wl = attach(bed, IdleWorkload(tick=0.1))
        bed.env.run(until=1.0)
        wl.stop()
        bed.env.run()
        assert not wl.process.is_alive

    def test_account_updates_counters_and_timeline(self, bed, metrics):
        wl = IdleWorkload()
        wl.bind(bed.domain)
        wl.account(1000)
        assert wl.ops == 1
        assert wl.bytes_processed == 1000
        assert metrics.counter("idle:throughput").total == 1000

    def test_mean_throughput(self, bed, metrics):
        """What a workload accounts is read back as a rate by
        :func:`mean_rate` over its ``<name>:throughput`` series."""
        wl = IdleWorkload()
        wl.bind(bed.domain)
        wl.account(100)
        bed.env.run(until=1.5)
        wl.account(300)
        series = f"{wl.name}:throughput"
        assert mean_rate(metrics, series, 0, 2) == pytest.approx(200.0)
        assert mean_rate(metrics, series, 2, 2) == 0.0

    def test_series_follow_a_replaced_registry(self, bed, metrics):
        """Instruments are cached per registry: installing a new one
        sends later samples there, not to the old one."""
        wl = IdleWorkload()
        wl.bind(bed.domain)
        wl.account(100)
        fresh = bed.env.metrics = MetricsRegistry(bed.env)
        wl.account(300)
        assert metrics.counter("idle:throughput").total == 100
        assert fresh.counter("idle:throughput").total == 300

    def test_latency_series_is_a_histogram(self, bed, metrics):
        wl = IdleWorkload()
        wl.bind(bed.domain)
        wl.record("latency", 0.25)
        wl.record("latency", 0.5)
        hist = metrics.get("idle:latency")
        assert hist.kind == "histogram"
        assert list(hist.values) == [0.25, 0.5]
        assert wl.ops == 0  # a latency sample is not progress


class TestSpecWeb:
    def make(self, bed, **kw):
        defaults = dict(seed=3,
                        data_region=(0, 1000),
                        log_region=(1000, 200),
                        memory_dirtier=MemoryDirtier(
                            bed.domain.memory.npages, 64, 200.0))
        defaults.update(kw)
        return attach(bed, SpecWebBanking(**defaults))

    def test_produces_throughput_and_writes(self, bed):
        wl = self.make(bed)
        bed.env.run(until=5.0)
        assert wl.bytes_processed > 0
        driver = bed.source.driver_of(bed.domain.domain_id)
        assert driver.writes > 0
        assert driver.reads > 0

    def test_writes_confined_to_regions(self, bed):
        seen = []
        driver = bed.source.driver_of(bed.domain.domain_id)
        driver.write_observers.append(lambda r: seen.append(r.block))
        self.make(bed)
        bed.env.run(until=5.0)
        assert seen
        assert all(1000 <= b < 1200 for b in seen)

    def test_survives_suspend_resume(self, bed):
        wl = self.make(bed)
        bed.env.run(until=2.0)
        bed.domain.suspend()
        bed.env.run(until=3.0)
        ops_frozen = wl.ops
        bed.env.run(until=3.5)
        assert wl.ops == ops_frozen  # nothing while suspended
        bed.domain.resume()
        bed.env.run(until=5.0)
        assert wl.ops > ops_frozen


class TestVideo:
    def make(self, bed, **kw):
        defaults = dict(seed=3, video_region=(0, 512),
                        log_region=(1500, 32))
        defaults.update(kw)
        return attach(bed, VideoStreamServer(**defaults))

    def test_streams_at_configured_rate(self, bed):
        wl = self.make(bed)
        bed.env.run(until=20.0)
        achieved = wl.bytes_processed / 20.0
        assert achieved == pytest.approx(streaming.STREAM_RATE, rel=0.15)

    def test_records_read_latency(self, bed, metrics):
        wl = self.make(bed)
        bed.env.run(until=10.0)
        times, values = read_series(metrics, "video:read_latency")
        assert times.size > 0
        assert (values >= 0).all()

    def test_no_stalls_on_idle_disk(self, bed):
        wl = self.make(bed)
        bed.env.run(until=20.0)
        assert wl.stalls == 0

    def test_log_writes_happen(self, bed):
        self.make(bed)
        bed.env.run(until=10.0)
        assert bed.source.driver_of(bed.domain.domain_id).writes > 0


class TestBonnie:
    def make(self, bed, **kw):
        defaults = dict(seed=3, file_region=(0, 512), seeks_per_pass=50)
        defaults.update(kw)
        return attach(bed, BonniePlusPlus(**defaults))

    def test_cycles_through_phases(self, bed, metrics):
        wl = self.make(bed)
        bed.env.run(until=30.0)
        for series in ("putc", "write", "rewrite", "getc", "seeks"):
            assert metrics.counter(f"bonnie:{series}").total > 0, series
        assert wl.passes >= 1

    def test_saturates_disk(self, bed):
        self.make(bed)
        bed.env.run(until=10.0)
        disk = bed.source.disk
        busy = (disk.ops * disk.seek_time
                + disk.bytes_read / disk.read_bandwidth
                + disk.bytes_written / disk.write_bandwidth)
        assert busy / 10.0 > 0.5

    def test_putc_respects_cpu_cap(self, bed, metrics, monkeypatch):
        from repro.units import MiB

        monkeypatch.setattr(diabolical, "PUTC_RATE", 5 * MiB)
        wl = self.make(bed, file_region=(0, 1280))  # 5 MiB file
        bed.env.run(until=1.0)
        putc_bytes = metrics.counter("bonnie:putc").total
        assert putc_bytes <= 5 * MiB * 1.2


class TestKernelBuild:
    def test_reads_and_writes(self, bed):
        wl = attach(bed, KernelBuild(seed=3, source_region=(0, 500),
                                     output_region=(500, 300)))
        bed.env.run(until=5.0)
        driver = bed.source.driver_of(bed.domain.domain_id)
        assert driver.writes > 0 and driver.reads > 0
        assert wl.bytes_processed > 0
