"""Unit tests for unit constants and formatting helpers."""

import pytest

from repro.units import (
    BLOCK_SIZE,
    GiB,
    Gbps,
    KiB,
    MB,
    Mbps,
    MiB,
    SECTOR_SIZE,
    fmt_bytes,
    fmt_time,
)


class TestConstants:
    def test_binary_units(self):
        assert KiB == 1024
        assert MiB == 1024 ** 2
        assert GiB == 1024 ** 3

    def test_network_rates_are_bytes_per_second(self):
        assert Mbps == 125_000
        assert Gbps == 125_000_000

    def test_paper_geometry(self):
        assert SECTOR_SIZE == 512
        assert BLOCK_SIZE == 4096
        assert BLOCK_SIZE // SECTOR_SIZE == 8


class TestFormatting:
    @pytest.mark.parametrize("value,expected", [
        (512, "512 B"),
        (2 * KiB, "2.0 KiB"),
        (3 * MiB, "3.0 MiB"),
        (5 * GiB, "5.0 GiB"),
        (0, "0 B"),
    ])
    def test_fmt_bytes(self, value, expected):
        assert fmt_bytes(value) == expected

    @pytest.mark.parametrize("value,expected", [
        (2.0, "2.0 s"),
        (0.0625, "62.5 ms"),
        (25e-6, "25.0 µs"),
    ])
    def test_fmt_time(self, value, expected):
        assert fmt_time(value) == expected


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        from repro import errors

        leaf_errors = [
            errors.SimulationError, errors.StaleSchedulingError,
            errors.BitmapError, errors.StorageError,
            errors.ConsistencyError, errors.NetworkError,
            errors.MigrationError,
        ]
        for exc in leaf_errors:
            assert issubclass(exc, errors.ReproError)

    def test_specialisations(self):
        from repro import errors

        assert issubclass(errors.ConsistencyError, errors.StorageError)
        assert issubclass(errors.StaleSchedulingError, errors.SimulationError)
