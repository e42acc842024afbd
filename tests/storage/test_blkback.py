"""Unit tests for the BackendDriver (blkback)."""

import pytest

from repro.bitmap import FlatBitmap
from repro.errors import StorageError
from repro.sim import Environment
from repro.storage import (
    BackendDriver,
    IOKind,
    IORequest,
    PhysicalDisk,
    VirtualBlockDevice,
    write,
)
from repro.units import MiB
from repro.vm import Domain, GuestMemory, Host


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def driver(env):
    disk = PhysicalDisk(env, read_bandwidth=100 * MiB,
                        write_bandwidth=100 * MiB, seek_time=0)
    vbd = VirtualBlockDevice(100)
    return BackendDriver(env, disk, vbd)


def run_request(env, driver, request):
    def proc(env):
        yield from driver.submit(request)

    env.run(until=env.process(proc(env)))


class TestDirectPath:
    def test_write_updates_vbd(self, env, driver):
        run_request(env, driver, write(5, 2))
        assert driver.vbd.read(5)[0] > 0
        assert driver.vbd.read(6)[0] > 0
        assert driver.writes == 1
        assert driver.bytes_written == 2 * 4096

    def test_read_counts(self, env, driver):
        run_request(env, driver, IORequest(IOKind.READ, 0, 4))
        assert driver.reads == 1
        assert driver.bytes_read == 4 * 4096

    def test_io_takes_disk_time(self, env, driver):
        run_request(env, driver, write(0, 100))  # 400 KiB at 100 MiB/s
        assert env.now == pytest.approx(100 * 4096 / (100 * MiB))

    def test_issue_time_recorded(self, env, driver):
        req = write(0)
        run_request(env, driver, req)
        assert req.issue_time == 0.0

    def test_each_request_pays_its_own_seek(self, env):
        disk = PhysicalDisk(env, read_bandwidth=100 * MiB,
                            write_bandwidth=100 * MiB, seek_time=0.01)
        seeky = BackendDriver(env, disk, VirtualBlockDevice(100))
        for i in range(5):
            run_request(env, seeky, write(i * 4, 1))
        assert env.now == pytest.approx(5 * (0.01 + 4096 / (100 * MiB)))


class TestTracking:
    def test_writes_mark_bitmap(self, env, driver):
        bm = FlatBitmap(100)
        driver.start_tracking("precopy", bm)
        run_request(env, driver, write(10, 3))
        assert bm.dirty_indices().tolist() == [10, 11, 12]

    def test_reads_do_not_mark(self, env, driver):
        bm = FlatBitmap(100)
        driver.start_tracking("precopy", bm)
        run_request(env, driver, IORequest(IOKind.READ, 10, 3))
        assert bm.count() == 0

    def test_multiple_bitmaps_all_marked(self, env, driver):
        a, b = FlatBitmap(100), FlatBitmap(100)
        driver.start_tracking("precopy", a)
        driver.start_tracking("im", b)
        run_request(env, driver, write(7))
        assert a.test(7) and b.test(7)

    def test_swap_tracking_returns_old(self, env, driver):
        first = FlatBitmap(100)
        driver.start_tracking("precopy", first)
        run_request(env, driver, write(1))
        fresh = FlatBitmap(100)
        old = driver.swap_tracking("precopy", fresh)
        assert old is first
        assert old.test(1)
        run_request(env, driver, write(2))
        assert fresh.test(2) and not fresh.test(1)

    def test_stop_tracking(self, env, driver):
        bm = FlatBitmap(100)
        driver.start_tracking("x", bm)
        assert driver.stop_tracking("x") is bm
        assert not driver.is_tracking
        with pytest.raises(StorageError):
            driver.stop_tracking("x")

    def test_duplicate_name_rejected(self, driver):
        driver.start_tracking("x", FlatBitmap(100))
        with pytest.raises(StorageError):
            driver.start_tracking("x", FlatBitmap(100))

    def test_size_mismatch_rejected(self, driver):
        with pytest.raises(StorageError):
            driver.start_tracking("x", FlatBitmap(99))

    def test_tracking_overhead_charged(self, env):
        disk = PhysicalDisk(env, read_bandwidth=100 * MiB,
                            write_bandwidth=100 * MiB, seek_time=0)
        vbd = VirtualBlockDevice(100)
        driver = BackendDriver(env, disk, vbd, tracking_op_overhead=0.5)
        driver.start_tracking("x", FlatBitmap(100))
        run_request(env, driver, write(0))
        assert env.now > 0.5

    def test_no_overhead_without_tracking(self, env):
        disk = PhysicalDisk(env, read_bandwidth=100 * MiB,
                            write_bandwidth=100 * MiB, seek_time=0)
        driver = BackendDriver(env, disk, VirtualBlockDevice(100),
                               tracking_op_overhead=0.5)
        run_request(env, driver, write(0))
        assert env.now < 0.5


class TestInterceptor:
    def test_interceptor_can_swallow_request(self, env, driver):
        seen = []

        def interceptor(request):
            seen.append(request.block)
            yield env.timeout(0.1)
            return True  # fully handled

        driver.interceptor = interceptor
        run_request(env, driver, write(3))
        assert seen == [3]
        assert driver.vbd.read(3)[0] == 0  # write never applied

    def test_interceptor_fallthrough(self, env, driver):
        def interceptor(request):
            yield env.timeout(0)
            return False

        driver.interceptor = interceptor
        run_request(env, driver, write(3))
        assert driver.vbd.read(3)[0] > 0


class TestObservers:
    def test_write_observer_called(self, env, driver):
        log = []
        driver.write_observers.append(lambda r: log.append((r.block, r.nblocks)))
        run_request(env, driver, write(4, 2))
        run_request(env, driver, IORequest(IOKind.READ, 4, 2))
        assert log == [(4, 2)]

    def test_observers_added_after_traffic_see_later_requests(self, env):
        # The lists are made on first access: a driver that has already
        # served requests unobserved must still notify late observers.
        host = Host(env, "h0")
        dom = Domain(env, GuestMemory(4))
        driver = host.attach_domain(dom, host.prepare_vbd(100))
        env.run(until=env.process(dom.write(0, 2)))
        requests, writes = [], []
        driver.request_observers.append(lambda r: requests.append(r.block))
        driver.write_observers.append(lambda r: writes.append(r.block))
        env.run(until=env.process(dom.write(7, 2)))
        env.run(until=env.process(dom.read(9)))
        assert requests == [7, 9] and writes == [7]
        assert driver.writes == 2 and driver.reads == 1

    def test_removed_observer_is_not_called(self, env, driver):
        log = []
        observer = log.append
        driver.write_observers.append(observer)
        driver.write_observers.remove(observer)
        run_request(env, driver, write(4, 2))
        assert log == [] and driver.writes == 1


class TestSlots:
    def test_undeclared_attribute_rejected(self, driver):
        with pytest.raises(AttributeError):
            driver.write_observer = []  # typo of write_observers


class TestRequestTypes:
    def test_request_validation(self):
        with pytest.raises(StorageError):
            write(-1)
        with pytest.raises(StorageError):
            write(0, 0)

    def test_request_helpers(self):
        r = IORequest(IOKind.READ, 3, 2, 7)
        assert r.kind is IOKind.READ
        assert not r.is_write()
        assert r.nbytes == 8192
        assert r.last_block == 4
        assert r.domain_id == 7

    def test_request_ids_unique(self):
        assert write(0).request_id != write(0).request_id
