"""The guest I/O path through blkback: in-flight accounting, the hooks it
must honour, and disk accounting shared with migration reads.

A guest request runs the disk's queue-and-service steps inside
``BackendDriver.submit`` instead of a nested ``PhysicalDisk.io`` frame;
these tests pin that both routes still charge the same disk the same way.
"""

import pytest

from repro.bitmap import FlatBitmap
from repro.core.precopy import DiskPreCopier
from repro.core.transfer import BlockStreamer
from repro.storage import PhysicalDisk
from repro.units import MiB
from repro.vm import Domain, GuestMemory, Host

BW = 10 * MiB  # a 256-block (1 MiB) request takes 0.1 s with no seek


@pytest.fixture
def host(env):
    return Host(env, "h0", PhysicalDisk(env, BW, BW, seek_time=0))


@pytest.fixture
def domain(env, host):
    dom = Domain(env, GuestMemory(16), name="vm")
    host.attach_domain(dom, host.prepare_vbd(1000))
    return dom


class TestInflight:
    def test_quiesce_waits_for_inflight_guest_write(self, env, host, domain):
        driver = host.driver_of(domain.domain_id)
        bitmap = FlatBitmap(1000)
        driver.start_tracking("precopy", bitmap)
        seen = {}

        def migrator(env):
            yield env.timeout(0.01)  # the guest write is mid-service
            domain.suspend()
            yield from driver.quiesce()
            seen["at"] = env.now
            seen["applied"] = int(driver.vbd.read(7)[0]) > 0
            seen["tracked"] = bitmap.test(7)

        env.process(domain.write(7, 256))
        env.process(migrator(env))
        env.run()
        assert seen == {"at": pytest.approx(0.1), "applied": True,
                        "tracked": True}
        assert driver.inflight == 0

    def test_tracking_overhead_charged_per_tracked_write(self, env, host):
        dom = Domain(env, GuestMemory(16), name="vm")
        driver = host.attach_domain(dom, host.prepare_vbd(1000),
                                    tracking_op_overhead=0.05)
        driver.start_tracking("precopy", FlatBitmap(1000))
        proc = env.process(dom.write(0, 256))
        env.run(until=proc)
        assert env.now == pytest.approx(0.15)

    def test_interceptor_handles_guest_request(self, env, host, domain):
        driver = host.driver_of(domain.domain_id)
        seen = []

        def interceptor(request):
            seen.append(request.block)
            yield env.timeout(0.3)
            return True

        driver.interceptor = interceptor
        env.run(until=env.process(domain.write(3, 256)))
        assert seen == [3]
        assert env.now == pytest.approx(0.3)
        assert driver.writes == 0 and host.disk.ops == 0

    def test_crashed_driver_drops_inflight_write(self, env, host, domain):
        driver = host.driver_of(domain.domain_id)

        def crasher(env):
            yield env.timeout(0.05)
            host.crash()

        env.process(domain.write(7, 256))
        env.process(crasher(env))
        env.run()
        assert driver.writes == 0
        assert int(driver.vbd.read(7)[0]) == 0
        # The spindle still did the work the request had started.
        assert host.disk.ops == 1


class TestDiskAccounting:
    def test_counters_equal_sums_over_served_requests(self, bed):
        """Guest writes and pre-copy reads share one spindle; its lifetime
        counters must equal the sums over both kinds of operation."""
        env = bed.env
        disk = bed.source.disk
        served = []  # (nbytes, is_write) of every completed operation

        # Migration reads go through PhysicalDisk.io ...
        plain_io = disk.io

        def recording_io(nbytes, is_write, priority=0):
            yield from plain_io(nbytes, is_write, priority)
            served.append((nbytes, is_write))

        disk.io = recording_io
        # ... guest requests through the driver, observed as applied.
        driver = bed.source.driver_of(bed.domain.domain_id)
        driver.request_observers.append(
            lambda request: served.append((request.nbytes,
                                           request.is_write())))

        def writer(env):
            for i in range(60):
                yield from bed.domain.write((i * 37) % 400, 1 + i % 3)
                yield env.timeout(0.002)

        fwd, _ = bed.channels("precopy")
        streamer = BlockStreamer(env, disk, bed.vbd, bed.destination.disk,
                                 bed.destination.prepare_vbd(bed.vbd.nblocks),
                                 fwd, bed.config)
        precopier = DiskPreCopier(env, driver, streamer, bed.config)

        def migration(env):
            return (yield from precopier.run())

        guest = env.process(writer(env))
        iterations = env.run(until=env.process(migration(env)))
        env.run(until=guest)

        reads = [n for n, is_write in served if not is_write]
        writes = [n for n, is_write in served if is_write]
        assert len(iterations) >= 2 and reads and len(writes) == 60
        assert disk.ops == len(served)
        assert disk.bytes_read == sum(reads)
        assert disk.bytes_written == sum(writes)
        assert disk.busy_time == pytest.approx(
            sum(disk.service_time(n, w) for n, w in served), rel=1e-12)
