"""Unit tests for VirtualBlockDevice and GenerationClock."""

import numpy as np
import pytest

from repro.errors import ConsistencyError, StorageError
from repro.sim import Environment
from repro.storage import GenerationClock, VirtualBlockDevice
from repro.vm import Domain, GuestMemory, Host


class TestGenerationClock:
    def test_monotonic(self):
        clock = GenerationClock()
        a = clock.tick()
        b = clock.tick(5)
        c = clock.tick()
        assert a < b < c
        assert c == b + 5

    def test_shared_clock_keeps_stamps_unique(self):
        clock = GenerationClock()
        d1 = VirtualBlockDevice(10, clock=clock)
        d2 = VirtualBlockDevice(10, clock=clock)
        d1.write(0)
        d2.write(0)
        assert d1.read(0)[0] != d2.read(0)[0]


class TestGeometry:
    def test_nbytes(self):
        assert VirtualBlockDevice(10, block_size=4096).nbytes == 40960

    def test_invalid_geometry(self):
        with pytest.raises(StorageError):
            VirtualBlockDevice(0)
        with pytest.raises(StorageError):
            VirtualBlockDevice(10, block_size=0)

    def test_extent_checks(self):
        disk = VirtualBlockDevice(10)
        with pytest.raises(StorageError):
            disk.write(9, 2)
        with pytest.raises(StorageError):
            disk.read(-1)
        with pytest.raises(StorageError):
            disk.write(0, 0)


class TestShortWritePath:
    """Stamps-only writes of up to 8 blocks take a short path; it must
    behave exactly as the checked ``arange`` path does."""

    @pytest.mark.parametrize("block, nblocks", [(-1, 1), (0, 0), (0, -2),
                                                (9, 2), (10, 1), (3, 8)])
    def test_bad_extent_raises_the_checked_message(self, block, nblocks):
        disk = VirtualBlockDevice(10)
        with pytest.raises(StorageError) as checked:
            disk._check_extent(block, nblocks)
        with pytest.raises(StorageError) as short:
            disk.write(block, nblocks)
        assert str(short.value) == str(checked.value)
        assert disk.clock.current == 1  # no stamp issued
        assert not disk.read(0, 10).any()

    @pytest.mark.parametrize("nblocks", range(1, 10))
    def test_same_stamps_and_clock_as_the_arange_path(self, nblocks):
        # A byte-backed device always takes the arange path.
        short = VirtualBlockDevice(20, clock=GenerationClock(41))
        full = VirtualBlockDevice(20, clock=GenerationClock(41), data=True)
        for disk in (short, full):
            assert disk.write(3, nblocks) == 41
            assert disk.write(5, nblocks) == 41 + nblocks
        assert short.snapshot().tolist() == full.snapshot().tolist()
        assert short.clock.current == full.clock.current == 41 + 2 * nblocks


class TestWriteRead:
    def test_fresh_disk_is_all_zero_generation(self):
        disk = VirtualBlockDevice(5)
        assert disk.read(0, 5).tolist() == [0, 0, 0, 0, 0]

    def test_write_bumps_generation(self):
        disk = VirtualBlockDevice(5)
        disk.write(2)
        gens = disk.read(0, 5)
        assert gens[2] > 0
        assert gens[[0, 1, 3, 4]].tolist() == [0, 0, 0, 0]

    def test_rewrites_get_new_generations(self):
        disk = VirtualBlockDevice(5)
        first = disk.write(1)
        second = disk.write(1)
        assert second > first

    def test_multiblock_write_unique_stamps(self):
        disk = VirtualBlockDevice(10)
        disk.write(0, 10)
        gens = disk.read(0, 10)
        assert len(set(gens.tolist())) == 10


class TestTransfer:
    def test_export_import_roundtrip(self):
        clock = GenerationClock()
        src = VirtualBlockDevice(20, clock=clock)
        dst = VirtualBlockDevice(20, clock=clock)
        src.write(3, 5)
        idx = np.arange(20)
        stamps, data = src.export_blocks(idx)
        assert data is None
        dst.import_blocks(idx, stamps)
        assert dst.identical_to(src)

    def test_partial_import_leaves_diff(self):
        clock = GenerationClock()
        src = VirtualBlockDevice(10, clock=clock)
        dst = VirtualBlockDevice(10, clock=clock)
        src.write(0, 10)
        idx = np.arange(5)
        stamps, _ = src.export_blocks(idx)
        dst.import_blocks(idx, stamps)
        assert dst.lagging_blocks(src).tolist() == [5, 6, 7, 8, 9]

    def test_import_shape_mismatch(self):
        disk = VirtualBlockDevice(10)
        with pytest.raises(StorageError):
            disk.import_blocks(np.arange(3), np.zeros(4, dtype=np.uint64))

    def test_import_out_of_range(self):
        disk = VirtualBlockDevice(10)
        with pytest.raises(StorageError):
            disk.import_blocks(np.array([10]), np.array([1], dtype=np.uint64))


class TestByteMode:
    def test_data_roundtrip(self):
        clock = GenerationClock()
        src = VirtualBlockDevice(8, block_size=64, clock=clock, data=True)
        dst = VirtualBlockDevice(8, block_size=64, clock=clock, data=True)
        src.write(1, 3)
        idx = np.arange(8)
        stamps, data = src.export_blocks(idx)
        assert data is not None
        dst.import_blocks(idx, stamps, data)
        assert dst.identical_to(src)
        assert np.array_equal(dst.read_data(1, 3), src.read_data(1, 3))

    def test_explicit_payload(self):
        disk = VirtualBlockDevice(4, block_size=16, data=True)
        payload = np.full((2, 16), 0xAB, dtype=np.uint8)
        disk.write(1, 2, payload=payload)
        assert np.array_equal(disk.read_data(1, 2), payload)

    def test_payload_shape_rejected(self):
        disk = VirtualBlockDevice(4, block_size=16, data=True)
        with pytest.raises(StorageError):
            disk.write(0, 1, payload=np.zeros((1, 8), dtype=np.uint8))

    def test_read_data_without_backing(self):
        disk = VirtualBlockDevice(4)
        with pytest.raises(StorageError):
            disk.read_data(0)

    def test_import_without_data_rejected_in_byte_mode(self):
        disk = VirtualBlockDevice(4, block_size=16, data=True)
        with pytest.raises(StorageError):
            disk.import_blocks(np.array([0]), np.array([5], dtype=np.uint64))


class TestAttachFloor:
    """While a host has the device attached, no import may overwrite a
    write the running guest made there."""

    def attached(self):
        """A source copy and a destination holding the same blocks, the
        destination attached to a running domain."""
        env = Environment()
        host = Host(env, "dst")
        src = VirtualBlockDevice(10, clock=host.clock)
        src.write(0, 10)
        dst = host.prepare_vbd(10)
        idx = np.arange(10)
        dst.import_blocks(idx, src.export_blocks(idx)[0])
        domain = Domain(env, GuestMemory(4, clock=host.clock))
        host.attach_domain(domain, dst)
        return host, domain, src, dst

    def test_rejects_import_over_write_made_after_attach(self):
        _, _, src, dst = self.attached()
        dst.write(3)
        dst.write(7)
        before = dst.snapshot()
        idx = np.array([2, 3, 7])
        with pytest.raises(ConsistencyError,
                           match=r"2 blocks the guest wrote.*\[3, 7\]"):
            dst.import_blocks(idx, src.export_blocks(idx)[0])
        assert np.array_equal(dst.snapshot(), before)  # nothing installed

    def test_accepts_import_over_stamps_from_before_attach(self):
        """The delta-queue replay: older deltas land over a newer bulk
        copy, which is fine while the guest has not written there."""
        _, _, src, dst = self.attached()
        first = src.export_blocks(np.array([4]))[0]
        dst.import_blocks(np.array([4]), first - 1)  # lowers the stamp
        dst.import_blocks(np.array([4]), first)
        assert dst.identical_to(src)

    def test_detached_accepts_any_import(self):
        host, domain, src, dst = self.attached()
        dst.write(3)
        host.detach_domain(domain.domain_id)
        assert dst.attach_floor is None
        dst.import_blocks(np.array([3]), src.export_blocks(np.array([3]))[0])
        assert dst.identical_to(src)


class TestConsistency:
    def test_lagging_blocks_empty_when_identical(self):
        clock = GenerationClock()
        a = VirtualBlockDevice(5, clock=clock)
        b = VirtualBlockDevice(5, clock=clock)
        assert a.lagging_blocks(b).size == 0
        a.write(1)  # newer than b: ahead, not lagging
        assert a.lagging_blocks(b).size == 0

    def test_lagging_blocks_names_older_blocks(self):
        clock = GenerationClock()
        a = VirtualBlockDevice(5, block_size=8, clock=clock, data=True)
        b = VirtualBlockDevice(5, block_size=8, clock=clock, data=True)
        b.write(2)
        idx = np.arange(5)
        stamps, data = b.export_blocks(idx)
        data[4] ^= 0xFF  # same stamp, different bytes
        a.import_blocks(idx, stamps, data)
        b.write(0)
        assert a.lagging_blocks(b).tolist() == [0, 4]

    def test_geometry_mismatch(self):
        with pytest.raises(StorageError):
            VirtualBlockDevice(5).lagging_blocks(VirtualBlockDevice(6))

    def test_snapshot_is_copy(self):
        disk = VirtualBlockDevice(5)
        snap = disk.snapshot()
        disk.write(0)
        assert snap[0] == 0
