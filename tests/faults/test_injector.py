"""Link-level behaviour of the fault injector: blackouts, degradation
windows, send timeouts, crashes, and the zero-cost detach path."""

import pytest

from repro.errors import FaultError, NetworkError
from repro.faults import FaultInjector, FaultPlan
from repro.net import DuplexLink, Link
from repro.sim import Environment
from repro.units import MB


@pytest.fixture
def env():
    return Environment()


def transmit(env, link, nbytes):
    """Run one transmit to completion; returns (elapsed, error-or-None)."""
    outcome = {"error": None}

    def proc(env):
        try:
            yield from link.transmit(nbytes)
        except NetworkError as exc:
            outcome["error"] = exc

    started = env.now
    p = env.process(proc(env))
    env.run(until=p)
    return env.now - started, outcome["error"]


class TestBlackout:
    def test_short_blackout_delays_but_delivers(self, env):
        link = Link(env, bandwidth=1 * MB, latency=0.0)
        state = FaultInjector(env, FaultPlan(send_timeout=1.0))\
            ._state_for(link)
        state.add_blackout(0.0, 0.1)
        elapsed, error = transmit(env, link, 1 * MB)
        assert error is None
        assert elapsed == pytest.approx(0.1 + 1.0)  # stall + serialization

    def test_long_blackout_times_out(self, env):
        link = Link(env, bandwidth=1 * MB, latency=0.0)
        state = FaultInjector(env, FaultPlan(send_timeout=0.25))\
            ._state_for(link)
        state.add_blackout(0.0, 10.0)
        elapsed, error = transmit(env, link, 1 * MB)
        assert error is not None
        assert "timed out" in str(error)
        # Failure detection costs exactly the timeout, never less.
        assert elapsed == pytest.approx(0.25)
        assert state.timed_out_sends == 1

    def test_chained_blackouts_share_timeout_budget(self, env):
        link = Link(env, bandwidth=1 * MB, latency=0.0)
        state = FaultInjector(env, FaultPlan(send_timeout=0.25))\
            ._state_for(link)
        # Two adjacent windows, each under the timeout, together over it.
        state.add_blackout(0.0, 0.15)
        state.add_blackout(0.15, 0.30)
        elapsed, error = transmit(env, link, 1 * MB)
        assert error is not None
        assert elapsed == pytest.approx(0.25)

    def test_transmit_after_window_is_clean(self, env):
        link = Link(env, bandwidth=1 * MB, latency=0.0)
        state = FaultInjector(env, FaultPlan(send_timeout=0.25))\
            ._state_for(link)
        state.add_blackout(0.0, 0.1)
        env.run(until=0.5)
        elapsed, error = transmit(env, link, 1 * MB)
        assert error is None
        assert elapsed == pytest.approx(1.0)


class TestDegradation:
    def test_bandwidth_factor_stretches_serialization(self, env):
        link = Link(env, bandwidth=1 * MB, latency=0.0)
        state = FaultInjector(env, FaultPlan())._state_for(link)
        state.add_degradation(0.0, 100.0, 0.5, 0.0)
        elapsed, error = transmit(env, link, 1 * MB)
        assert error is None
        assert elapsed == pytest.approx(2.0)  # half rate, double time

    def test_overlapping_factors_multiply(self, env):
        link = Link(env, bandwidth=1 * MB, latency=0.0)
        state = FaultInjector(env, FaultPlan())._state_for(link)
        state.add_degradation(0.0, 100.0, 0.5, 0.0)
        state.add_degradation(0.0, 100.0, 0.5, 0.0)
        assert state.bandwidth_factor(0.0) == pytest.approx(0.25)

    def test_extra_latency_raises_effective_latency(self, env):
        link = Link(env, bandwidth=1 * MB, latency=1e-3)
        state = FaultInjector(env, FaultPlan())._state_for(link)
        state.add_degradation(0.0, 100.0, 1.0, 5e-3)
        assert link.effective_latency == pytest.approx(6e-3)
        env.run(until=200.0)
        assert link.effective_latency == pytest.approx(1e-3)


class TestAttachDetach:
    def test_attach_installs_time_triggered_windows(self, env):
        duplex = DuplexLink(env, 1 * MB, 0.0)
        plan = FaultPlan(send_timeout=0.25).blackout(duration=10.0, at=0.0)
        FaultInjector(env, plan).attach(duplex)
        _elapsed, error = transmit(env, duplex.forward, 1 * MB)
        assert error is not None

    def test_direction_filter(self, env):
        duplex = DuplexLink(env, 1 * MB, 0.0)
        plan = (FaultPlan(send_timeout=0.25)
                .blackout(duration=10.0, at=0.0, direction="forward"))
        FaultInjector(env, plan).attach(duplex)
        _e, fwd_error = transmit(env, duplex.forward, 1 * MB)
        _e, rev_error = transmit(env, duplex.backward, 1 * MB)
        assert fwd_error is not None
        assert rev_error is None

    def test_degrade_and_flap_honour_direction(self, env):
        duplex = DuplexLink(env, 1 * MB, 0.0)
        plan = (FaultPlan()
                .degrade(duration=10.0, at=0.0, direction="backward")
                .flap(down_time=10.0, at=0.0, direction="backward"))
        FaultInjector(env, plan).attach(duplex)
        env.run(until=1.0)
        forward, backward = duplex.forward.faults, duplex.backward.faults
        assert forward is None or (forward.bandwidth_factor(1.0) == 1.0
                                   and forward.blackout_until(1.0) is None)
        assert backward.bandwidth_factor(1.0) == 0.5
        assert backward.blackout_until(1.0) is not None

    def test_second_attach_gets_time_triggered_windows_too(self, env):
        plan = FaultPlan(send_timeout=0.25).blackout(duration=10.0, at=0.0)
        injector = FaultInjector(env, plan)
        injector.attach(DuplexLink(env, 1 * MB, 0.0))
        late = DuplexLink(env, 1 * MB, 0.0)
        injector.attach(late)
        _e, error = transmit(env, late.forward, 1 * MB)
        assert error is not None


class TestPhaseTriggers:
    def test_phase_blackout_fires_once(self, env):
        duplex = DuplexLink(env, 1 * MB, 0.0)
        plan = (FaultPlan(send_timeout=0.25)
                .blackout(duration=0.5, phase="precopy-disk"))
        injector = FaultInjector(env, plan).attach(duplex)
        injector.on_phase("freeze")  # wrong phase: nothing installed
        assert not injector.log
        injector.on_phase("precopy-disk")
        assert len(injector.log) == 1
        injector.on_phase("precopy-disk")  # one-shot
        assert len(injector.log) == 1

    def test_phase_offset_delays_window(self, env):
        duplex = DuplexLink(env, 1 * MB, 0.0)
        plan = (FaultPlan(send_timeout=0.25)
                .blackout(duration=0.5, phase="precopy-disk", offset=1.0))
        injector = FaultInjector(env, plan).attach(duplex)
        injector.on_phase("precopy-disk")
        state = duplex.forward.faults
        assert state.blackout_until(0.5) is None       # before the window
        assert state.blackout_until(1.2) == pytest.approx(1.5)

    def test_phase_offset_delays_degrade_and_flap(self, env):
        duplex = DuplexLink(env, 1 * MB, 0.0)
        plan = (FaultPlan()
                .degrade(duration=0.5, phase="precopy-disk", offset=1.0)
                .flap(down_time=0.5, phase="precopy-disk", offset=2.0))
        injector = FaultInjector(env, plan).attach(duplex)
        injector.on_phase("precopy-disk")
        env.run(until=3.0)
        state = duplex.forward.faults
        assert state.bandwidth_factor(0.5) == 1.0      # before the window
        assert state.bandwidth_factor(1.2) == 0.5
        assert state.blackout_until(1.2) is None
        assert state.blackout_until(2.2) == pytest.approx(2.5)


class TestCrash:
    def test_crash_marks_host_and_darkens_links(self, env, bed=None):
        from repro.core import Migrator
        from repro.storage import GenerationClock
        from repro.vm import Host

        clock = GenerationClock()
        a = Host(env, "a", clock=clock)
        b = Host(env, "b", clock=clock)
        migrator = Migrator(env)
        duplex = migrator.connect(a, b, bandwidth=1 * MB, latency=0.0)
        plan = FaultPlan(send_timeout=0.25).crash("b", at=1.0)
        FaultInjector(env, plan).inject(migrator)
        env.run(until=2.0)
        assert b.crashed
        _e, error = transmit(env, duplex.forward, 1 * MB)
        assert error is not None  # permanently dark

    def test_restart_ends_only_its_own_crash_blackouts(self, env):
        from repro.core import Migrator
        from repro.cluster.testbed import cluster_host
        from repro.storage import GenerationClock

        clock = GenerationClock()
        source = cluster_host(env, "source", clock)
        destination = cluster_host(env, "destination", clock)
        migrator = Migrator(env)
        duplex = migrator.connect(source, destination)
        plan = (FaultPlan()
                .crash("source", at=1.0, down_for=5.0)
                .crash("destination", at=2.0))
        FaultInjector(env, plan).inject(migrator)
        env.run(until=7.0)
        assert not source.crashed and destination.crashed
        # The source is back, but the destination never restarted: the
        # link between them stays dark.
        elapsed, error = transmit(env, duplex.forward, 1 * MB)
        assert error is not None
        assert elapsed == pytest.approx(plan.send_timeout)

    def test_restart_reopens_links_to_live_peers(self, env):
        from repro.core import Migrator
        from repro.cluster.testbed import cluster_host
        from repro.storage import GenerationClock

        clock = GenerationClock()
        source = cluster_host(env, "source", clock)
        destination = cluster_host(env, "destination", clock)
        migrator = Migrator(env)
        duplex = migrator.connect(source, destination)
        plan = FaultPlan().crash("source", at=1.0, down_for=5.0)
        FaultInjector(env, plan).inject(migrator)
        env.run(until=7.0)
        _elapsed, error = transmit(env, duplex.forward, 1 * MB)
        assert error is None

    def test_second_injector_is_rejected_and_keeps_the_first(self, env):
        # A second injector on one migrator used to replace the first's
        # fault state on every link it gave a window: the blackout was
        # lost once the crash hooked the link, and a 1 MB send at t=3
        # completed at 3.008 s.
        from repro.core import Migrator
        from repro.cluster.testbed import cluster_host
        from repro.storage import GenerationClock

        clock = GenerationClock()
        source = cluster_host(env, "source", clock)
        destination = cluster_host(env, "destination", clock)
        migrator = Migrator(env)
        duplex = migrator.connect(source, destination)
        first = FaultInjector(
            env, FaultPlan().blackout(duration=10.0, at=0.0)).inject(migrator)
        second = FaultInjector(
            env, FaultPlan().crash("source", at=1.0, down_for=1.0))
        with pytest.raises(FaultError, match="already injected"):
            second.inject(migrator)
        assert migrator.fault_injector is first
        env.run(until=3.0)
        elapsed, error = transmit(env, duplex.forward, 1 * MB)
        assert error is not None
        assert elapsed == pytest.approx(first.plan.send_timeout)

    def test_inject_rejects_unknown_crash_host(self, env):
        from repro.core import Migrator
        from repro.storage import GenerationClock
        from repro.vm import Host

        clock = GenerationClock()
        migrator = Migrator(env)
        migrator.connect(Host(env, "a", clock=clock),
                         Host(env, "b", clock=clock))
        plan = FaultPlan().crash("mars", at=1.0)
        with pytest.raises(FaultError, match="unknown host"):
            FaultInjector(env, plan).inject(migrator)
