"""Semantic pins for the guest I/O path (Domain.write/read ->
BackendDriver.submit).

A guest request runs in one generator frame, built when ``domain.write()``
(or ``read()``/``io()``) is called.  These tests pin what must still happen when the request
first *runs*: the suspend gate, the choice of host, the auto-converge
stretch and the detach check.
"""

import pytest

from repro.errors import MigrationError
from repro.storage import PhysicalDisk
from repro.units import MiB
from repro.vm import Domain, GuestMemory, Host

# 10 MiB/s and no seek: a 256-block (1 MiB) write takes exactly 0.1 s.
BW = 10 * MiB


@pytest.fixture
def host(env):
    return Host(env, "h0", PhysicalDisk(env, BW, BW, seek_time=0))


@pytest.fixture
def domain(env, host):
    dom = Domain(env, GuestMemory(16), name="vm")
    host.attach_domain(dom, host.prepare_vbd(1000))
    return dom


def finish_time(env, proc):
    env.run(until=proc)
    return env.now


class TestSuspendGate:
    def test_suspended_before_first_step_blocks_until_resume(self, env,
                                                             host, domain):
        proc = env.process(domain.write(0, 256))
        # The request object exists, but the domain is suspended before
        # the process takes its first step.
        domain.suspend()

        def migrator(env):
            yield env.timeout(5.0)
            domain.resume()

        env.process(migrator(env))
        assert finish_time(env, proc) == pytest.approx(5.1)
        assert host.driver_of(domain.domain_id).writes == 1

    def test_suspended_request_is_not_in_flight(self, env, host, domain):
        """A request parked at the gate must not hold up quiesce()."""
        env.process(domain.write(0, 256))
        domain.suspend()
        seen = {}

        def migrator(env):
            yield env.timeout(1.0)
            yield from host.driver_of(domain.domain_id).quiesce()
            seen["at"] = env.now
            domain.resume()

        env.process(migrator(env))
        env.run()
        assert seen["at"] == 1.0

    def test_request_follows_domain_to_its_new_host(self, env, host,
                                                    domain):
        other = Host(env, "h1", PhysicalDisk(env, BW, BW, seek_time=0),
                     clock=host.clock)
        proc = env.process(domain.write(7, 2))
        domain.suspend()
        _, old_vbd = host.detach_domain(domain.domain_id)
        new_vbd = other.prepare_vbd(1000)
        other.attach_domain(domain, new_vbd)
        domain.resume()
        env.run(until=proc)
        assert new_vbd.read(7)[0] > 0
        assert old_vbd.read(7)[0] == 0
        assert other.driver_of(domain.domain_id).writes == 1


class TestThrottle:
    @pytest.mark.parametrize("factor", [1.0, 2.0, 3.5])
    def test_throttled_write_takes_factor_times_duration(self, env, domain,
                                                         factor):
        domain.write_throttle = factor
        proc = env.process(domain.write(0, 256))
        assert finish_time(env, proc) == pytest.approx(0.1 * factor)

    def test_throttle_never_stretches_reads(self, env, domain):
        domain.write_throttle = 4.0
        proc = env.process(domain.read(0, 256))
        assert finish_time(env, proc) == pytest.approx(0.1)

    def test_throttle_applies_when_request_first_runs(self, env, domain):
        proc = env.process(domain.write(0, 256))
        domain.write_throttle = 2.0  # set after io(), before the first step
        assert finish_time(env, proc) == pytest.approx(0.2)


class TestDetached:
    def test_detached_domain_raises(self, env):
        dom = Domain(env, GuestMemory(4))

        def guest(env):
            yield from dom.write(0)

        with pytest.raises(MigrationError):
            env.run(until=env.process(guest(env)))

    def test_detached_before_first_step_raises(self, env, host, domain):
        proc = env.process(domain.write(0))
        host.detach_domain(domain.domain_id)
        with pytest.raises(MigrationError):
            env.run(until=proc)
