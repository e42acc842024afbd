"""Unit tests for I/O trace capture and replay."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.workloads import IOTrace, KernelBuild, TraceRecorder, TraceReplay
from repro.workloads.traces import KIND_READ, KIND_WRITE


def make_trace():
    return IOTrace.from_lists([
        (0.0, KIND_WRITE, 10, 2),
        (0.5, KIND_READ, 10, 2),
        (1.0, KIND_WRITE, 10, 1),   # rewrite
        (1.5, KIND_WRITE, 50, 4),
    ])


class TestIOTrace:
    def test_columns_and_len(self):
        trace = make_trace()
        assert len(trace) == 4
        assert trace.duration == pytest.approx(1.5)

    def test_byte_accounting(self):
        trace = make_trace()
        assert trace.write_bytes == (2 + 1 + 4) * 4096
        assert trace.read_bytes == 2 * 4096

    def test_rewrite_fraction(self):
        assert make_trace().rewrite_fraction() == pytest.approx(1 / 3)

    def test_empty_trace(self):
        trace = IOTrace.from_lists([])
        assert len(trace) == 0
        assert trace.duration == 0.0
        assert trace.rewrite_fraction() == 0.0

    def test_shifted(self):
        shifted = make_trace().shifted(10.0)
        assert shifted.times[0] == pytest.approx(10.0)
        assert shifted.duration == pytest.approx(1.5)

    def test_non_monotonic_rejected(self):
        with pytest.raises(ReproError):
            IOTrace.from_lists([(1.0, KIND_READ, 0, 1),
                                (0.5, KIND_READ, 0, 1)])

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(ReproError):
            IOTrace(np.zeros(2), np.zeros(3, np.uint8),
                    np.zeros(2, np.int64), np.zeros(2, np.int32))

    def test_save_load_roundtrip(self, tmp_path):
        trace = make_trace()
        path = tmp_path / "trace.npz"
        trace.save(path)
        loaded = IOTrace.load(path)
        assert np.array_equal(loaded.times, trace.times)
        assert np.array_equal(loaded.blocks, trace.blocks)
        assert loaded.rewrite_fraction() == trace.rewrite_fraction()


class TestRecorder:
    def test_captures_live_workload(self, bed):
        driver = bed.source.driver_of(bed.domain.domain_id)
        recorder = TraceRecorder(bed.env, driver)
        wl = KernelBuild(seed=3, source_region=(0, 500),
                         output_region=(500, 300))
        wl.bind(bed.domain)
        wl.start(bed.env)
        bed.env.run(until=3.0)
        wl.stop()
        bed.env.run(until=3.1)
        trace = recorder.trace()
        assert len(trace) == driver.reads + driver.writes
        assert trace.write_bytes == driver.bytes_written
        assert trace.read_bytes == driver.bytes_read

    def test_clear(self, bed):
        driver = bed.source.driver_of(bed.domain.domain_id)
        recorder = TraceRecorder(bed.env, driver)

        def guest(env):
            yield from bed.domain.write(1)

        bed.env.run(until=bed.env.process(guest(bed.env)))
        assert len(recorder) == 1
        recorder.clear()
        assert len(recorder.trace()) == 0


class TestReplay:
    def test_replay_reproduces_footprint(self, make_bed):
        # Record a run on one testbed...
        origin = make_bed()
        driver = origin.source.driver_of(origin.domain.domain_id)
        recorder = TraceRecorder(origin.env, driver)
        wl = KernelBuild(seed=3, source_region=(0, 500),
                         output_region=(500, 300))
        wl.bind(origin.domain)
        wl.start(origin.env)
        origin.env.run(until=3.0)
        wl.stop()
        origin.env.run(until=3.1)
        trace = recorder.trace()

        # ...replay it on a fresh one: same requests hit the driver.
        target = make_bed()
        replay = TraceReplay(trace)
        replay.bind(target.domain)
        replay.start(target.env)
        target.env.run(until=10.0)
        tdriver = target.source.driver_of(target.domain.domain_id)
        assert replay.passes == 1
        assert tdriver.writes + tdriver.reads == len(trace)
        assert tdriver.bytes_written == trace.write_bytes

    def test_time_scale_speeds_up(self, make_bed):
        trace = make_trace()
        done = {}
        for scale_label, ts in (("slow", 1.0), ("fast", 3.0)):
            bed = make_bed()
            replay = TraceReplay(trace, time_scale=ts)
            replay.bind(bed.domain)
            proc = replay.start(bed.env)
            bed.env.run(until=proc)
            done[scale_label] = bed.env.now
        assert done["fast"] < done["slow"]

    def test_loop_mode(self, make_bed):
        bed = make_bed()
        replay = TraceReplay(make_trace(), loop=True, time_scale=10.0)
        replay.bind(bed.domain)
        replay.start(bed.env)
        bed.env.run(until=2.0)
        assert replay.passes >= 2
        replay.stop()
        bed.env.run(until=2.1)

    def test_replay_survives_migration(self, make_bed):
        """A replayed trace keeps running across a live migration."""
        bed = make_bed()
        replay = TraceReplay(make_trace(), loop=True, time_scale=5.0)
        replay.bind(bed.domain)
        replay.start(bed.env)
        bed.env.run(until=0.5)
        report = bed.migrate()
        assert report.consistency_verified
        replay.stop()
        bed.env.run(until=bed.env.now + 0.1)

    def test_invalid_time_scale(self):
        with pytest.raises(ReproError):
            TraceReplay(make_trace(), time_scale=0)
