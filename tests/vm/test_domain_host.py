"""Unit tests for Domain lifecycle and Host placement."""

import numpy as np
import pytest

from repro.errors import MigrationError
from repro.sim import Environment
from repro.storage import PhysicalDisk
from repro.units import MiB
from repro.vm import CPUState, Domain, DomainState, GuestMemory, Host


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def host(env):
    return Host(env, "h0", PhysicalDisk(env, 100 * MiB, 100 * MiB, seek_time=0))


@pytest.fixture
def domain(env, host):
    dom = Domain(env, GuestMemory(64), name="vm")
    vbd = host.prepare_vbd(100)
    host.attach_domain(dom, vbd)
    return dom


class TestPlacement:
    def test_attach_binds_everything(self, host, domain):
        assert domain.host is host
        assert host.domain(domain.domain_id) is domain
        assert domain.vbd is host.vbd_of(domain.domain_id)
        assert host.driver_of(domain.domain_id).vbd is domain.vbd

    def test_double_attach_rejected(self, env, host, domain):
        other = Host(env, "h1")
        with pytest.raises(MigrationError):
            other.attach_domain(domain, other.prepare_vbd(100))

    def test_detach_then_reattach(self, env, host, domain):
        dom_id = domain.domain_id
        dom, vbd = host.detach_domain(dom_id)
        assert dom.host is None
        other = Host(env, "h1", clock=host.clock)
        other.attach_domain(dom, other.prepare_vbd(100))
        assert dom.host is other
        with pytest.raises(MigrationError):
            host.domain(dom_id)

    def test_unknown_domain_lookups(self, host):
        with pytest.raises(MigrationError):
            host.domain(999)
        with pytest.raises(MigrationError):
            host.vbd_of(999)
        with pytest.raises(MigrationError):
            host.driver_of(999)

    def test_detached_domain_io_fails(self, env):
        dom = Domain(env, GuestMemory(4))
        with pytest.raises(MigrationError):
            _ = dom.vbd

    def test_domains_listing(self, host, domain):
        assert host.domains == [domain]


class TestLifecycle:
    def test_undeclared_attribute_rejected(self, domain):
        with pytest.raises(AttributeError):
            domain.runing = False  # typo of running

    def test_suspend_resume_cycle(self, env, domain):
        assert domain.running
        domain.suspend()
        assert domain.state is DomainState.SUSPENDED
        assert domain.suspended_at == 0.0
        domain.resume()
        assert domain.running
        assert domain.resumed_at == 0.0

    def test_double_suspend_rejected(self, domain):
        domain.suspend()
        with pytest.raises(MigrationError):
            domain.suspend()

    def test_resume_running_rejected(self, domain):
        with pytest.raises(MigrationError):
            domain.resume()

    def test_io_blocks_while_suspended(self, env, domain):
        done = []

        def guest(env):
            yield from domain.write(0)
            done.append(env.now)

        def migrator(env):
            domain.suspend()
            yield env.timeout(5)
            domain.resume()

        env.process(migrator(env))
        env.process(guest(env))
        env.run()
        assert done[0] >= 5.0

    def test_memory_touch_while_suspended_rejected(self, domain):
        domain.suspend()
        with pytest.raises(MigrationError):
            domain.touch_memory(np.array([0]))


class TestGuestIO:
    def test_write_lands_on_current_host_vbd(self, env, host, domain):
        def guest(env):
            yield from domain.write(7, 2)

        env.run(until=env.process(guest(env)))
        assert host.vbd_of(domain.domain_id).read(7)[0] > 0

    def test_io_after_migration_goes_to_new_host(self, env, host, domain):
        dst = Host(env, "dst", PhysicalDisk(env, 100 * MiB, 100 * MiB, 0),
                   clock=host.clock)
        dst_vbd = dst.prepare_vbd(100)

        def guest(env):
            yield from domain.write(0)
            # "migrate"
            host.detach_domain(domain.domain_id)
            dst.attach_domain(domain, dst_vbd)
            yield from domain.write(1)

        env.run(until=env.process(guest(env)))
        assert dst_vbd.read(1)[0] > 0
        assert dst_vbd.read(0)[0] == 0  # first write stayed on the source


class TestCPUState:
    def test_capture_bumps_version(self):
        cpu = CPUState()
        snap1 = cpu.capture()
        snap2 = cpu.capture()
        assert snap2.version == snap1.version + 1

    def test_restore_adopts_snapshot(self):
        src, dst = CPUState(), CPUState()
        src.context["pc"] = 0x1234
        snap = src.capture()
        dst.restore(snap)
        assert dst.context["pc"] == 0x1234
        assert dst.version == snap.version


class TestTestbed:
    def test_build_testbed_shares_clock(self):
        from repro.analysis import build_testbed

        bed = build_testbed("idle", scale=0.001)
        src, dst = bed.source, bed.destination
        assert src.clock is dst.clock is bed.domain.memory.clock
        assert src.name == "source" and dst.name == "destination"
