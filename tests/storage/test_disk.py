"""Unit tests for the PhysicalDisk bandwidth model."""

import pytest

from repro.errors import StorageError
from repro.sim import Environment
from repro.storage import PhysicalDisk
from repro.units import MiB


@pytest.fixture
def env():
    return Environment()


class TestServiceTime:
    def test_read_time(self, env):
        disk = PhysicalDisk(env, read_bandwidth=100 * MiB,
                            write_bandwidth=50 * MiB, seek_time=0.001)

        def proc(env):
            yield from disk.read(100 * MiB)
            read_done = env.now
            yield from disk.write(50 * MiB)
            return read_done, env.now - read_done

        read_s, write_s = env.run(until=env.process(proc(env)))
        assert read_s == pytest.approx(1.001)
        assert write_s == pytest.approx(1.001)

    def test_invalid_parameters(self, env):
        with pytest.raises(StorageError):
            PhysicalDisk(env, read_bandwidth=0)
        with pytest.raises(StorageError):
            PhysicalDisk(env, seek_time=-1)


class TestIO:
    def test_single_read(self, env):
        disk = PhysicalDisk(env, read_bandwidth=10 * MiB,
                            write_bandwidth=10 * MiB, seek_time=0)

        def proc(env):
            yield from disk.read(10 * MiB)
            return env.now

        assert env.run(until=env.process(proc(env))) == pytest.approx(1.0)
        assert disk.bytes_read == 10 * MiB
        assert disk.ops == 1

    def test_contention_serializes(self, env):
        disk = PhysicalDisk(env, read_bandwidth=10 * MiB,
                            write_bandwidth=10 * MiB, seek_time=0)
        done = []

        def user(env, name):
            yield from disk.read(10 * MiB)
            done.append((env.now, name))

        env.process(user(env, "a"))
        env.process(user(env, "b"))
        env.run()
        assert done[0][0] == pytest.approx(1.0)
        assert done[1][0] == pytest.approx(2.0)

    def test_guest_op_served_between_bulk_chunks(self, env):
        """Requests are served in arrival order at one priority, so a guest
        op that arrives while a bulk chunk is in service runs before the
        next chunk: chunking is what interleaves migration with the guest."""
        disk = PhysicalDisk(env, read_bandwidth=10 * MiB,
                            write_bandwidth=10 * MiB, seek_time=0)
        order = []

        def bulk(env):
            # Two back-to-back bulk ops; the guest op arrives between them.
            yield from disk.read(10 * MiB)
            order.append("bulk1")
            yield from disk.read(10 * MiB)
            order.append("bulk2")

        def guest(env):
            yield env.timeout(0.5)
            yield from disk.read(1 * MiB)
            order.append("guest")

        env.process(bulk(env))
        env.process(guest(env))
        env.run()
        assert order == ["bulk1", "guest", "bulk2"]

    def test_negative_size_rejected(self, env):
        disk = PhysicalDisk(env)

        def proc(env):
            yield from disk.read(-1)

        with pytest.raises(StorageError):
            env.run(until=env.process(proc(env)))

    def test_write_counters(self, env):
        disk = PhysicalDisk(env, seek_time=0)

        def proc(env):
            yield from disk.write(1024)

        env.run(until=env.process(proc(env)))
        assert disk.bytes_written == 1024
        assert disk.bytes_read == 0
