"""Tests for the auto-converge write-throttle controller."""

import pytest

from repro.core import AutoConvergeController
from repro.core.converge import MAX_ITERATIONS
from repro.core.metrics import IterationStats
from repro.sim import Environment
from repro.units import MB
from repro.vm import Domain, GuestMemory


def record(units_sent=100, dirty_at_end=0, duration=1.0):
    """An IterationStats with a chosen dirty/transfer rate ratio."""
    return IterationStats(index=1, units_sent=units_sent,
                          bytes_sent=units_sent * 4096, started_at=0.0,
                          ended_at=duration, dirty_at_end=dirty_at_end)


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def domain(env):
    return Domain(env, GuestMemory(16))


def make_controller(env, domain):
    return AutoConvergeController(env, domain)


class TestAutoConvergeController:
    def test_no_escalation_while_converging(self, env, domain):
        ctrl = make_controller(env, domain)
        # Dirty rate well under the stop fraction of the transfer rate.
        assert ctrl.observe(record(units_sent=100, dirty_at_end=10)) is False
        assert ctrl.factor == 1.0
        assert domain.write_throttle == 1.0
        assert ctrl.steps == []

    def test_zero_duration_iteration_is_ignored(self, env, domain):
        ctrl = make_controller(env, domain)
        assert ctrl.observe(record(dirty_at_end=500, duration=0.0)) is False
        assert ctrl.factor == 1.0

    def test_escalation_sequence_start_step_cap(self, env, domain):
        ctrl = make_controller(env, domain)
        diabolical = record(units_sent=100, dirty_at_end=200)
        factors = []
        while ctrl.observe(diabolical):
            factors.append(ctrl.factor)
            assert domain.write_throttle == ctrl.factor
        # Starts at 2, adds 2 per step, caps at 16.
        assert factors == [2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0]
        assert ctrl.maxed
        # Once capped, further diabolical iterations do not escalate.
        assert ctrl.observe(diabolical) is False
        assert len(ctrl.steps) == 8

    def test_release_resets_throttle(self, env, domain):
        ctrl = make_controller(env, domain)
        ctrl.observe(record(units_sent=100, dirty_at_end=200))
        assert domain.write_throttle > 1.0
        ctrl.release()
        assert domain.write_throttle == 1.0
        # Idempotent, and the step log survives for the report.
        ctrl.release()
        assert len(ctrl.steps) == 1

    def test_summary_shape(self, env, domain):
        ctrl = make_controller(env, domain)
        ctrl.observe(record(units_sent=100, dirty_at_end=200))
        doc = ctrl.summary()
        assert doc["steps"] == 1
        assert doc["final_factor"] == ctrl.factor
        assert doc["log"] == [[0.0, ctrl.factor]]


class TestThrottledDomain:
    def test_write_stretched_by_factor(self, make_bed):
        """A throttled write takes ~factor x the unthrottled duration."""
        bed = make_bed()

        def timed_write(env):
            started = env.now
            yield from bed.domain.write(0, 8)
            return env.now - started

        plain = bed.env.run(until=bed.env.process(timed_write(bed.env)))
        bed.domain.write_throttle = 4.0
        slow = bed.env.run(until=bed.env.process(timed_write(bed.env)))
        assert slow == pytest.approx(4.0 * plain)
        # Reads are never throttled.
        def timed_read(env):
            started = env.now
            yield from bed.domain.read(0, 8)
            return env.now - started

        bed.domain.write_throttle = 1.0
        fast_read = bed.env.run(until=bed.env.process(timed_read(bed.env)))
        bed.domain.write_throttle = 4.0
        slow_read = bed.env.run(until=bed.env.process(timed_read(bed.env)))
        assert slow_read == pytest.approx(fast_read)


def diabolical_bed(make_bed):
    """A writer that re-dirties 90% of the disk faster than a 10 MB/s link
    can drain it: pre-copy can never converge without intervention."""
    bed = make_bed(link_bw=10 * MB)
    bed.random_writer(region=(0, 1800), interval=0.0, nblocks=4)
    return bed


class TestAutoConvergeMigration:
    def test_diabolical_workload_does_not_converge_without_knob(
            self, make_bed):
        bed = diabolical_bed(make_bed)
        report = bed.migrate()
        last = report.disk_iterations[-1]
        # Proactive stop fired with nearly the whole region still dirty.
        assert last.dirty_at_end > bed.config.disk_dirty_threshold_blocks
        assert "auto_converge_steps" not in report.extra

    def test_diabolical_workload_converges_with_auto_converge(
            self, make_bed):
        bed = diabolical_bed(make_bed)
        cfg = bed.config.replace(auto_converge=True)
        report = bed.migrate(cfg)
        assert report.consistency_verified
        last = report.disk_iterations[-1]
        # Converged: the final pre-copy round got under the threshold.
        assert last.dirty_at_end <= cfg.disk_dirty_threshold_blocks
        # ...in bounded rounds, with the escalation recorded.
        assert MAX_ITERATIONS == 30
        assert len(report.disk_iterations) <= MAX_ITERATIONS
        assert report.extra["auto_converge_steps"] >= 1
        assert report.extra["auto_converge_final_factor"] > 1.0
        log = report.extra["auto_converge_log"]
        assert len(log) == report.extra["auto_converge_steps"]
        # Throttle released at freeze: the guest resumes unthrottled.
        assert bed.domain.write_throttle == 1.0
