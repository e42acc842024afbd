"""Unit tests for MigrationConfig validation."""

import pytest

from repro.core import MigrationConfig
from repro.errors import MigrationError


class TestValidation:
    def test_defaults_are_valid(self):
        cfg = MigrationConfig()
        assert cfg.bitmap_layout == "flat"
        assert cfg.include_memory
        assert cfg.rate_limit is None

    def test_unknown_bitmap_layout(self):
        with pytest.raises(MigrationError):
            MigrationConfig(bitmap_layout="tree")

    def test_chunk_blocks_positive(self):
        with pytest.raises(MigrationError):
            MigrationConfig(chunk_blocks=0)

    def test_iterations_positive(self):
        with pytest.raises(MigrationError):
            MigrationConfig(max_disk_iterations=0)

    def test_rate_limit_positive_when_set(self):
        with pytest.raises(MigrationError):
            MigrationConfig(rate_limit=0)
        MigrationConfig(rate_limit=1000)  # fine

    def test_push_chunk_positive(self):
        with pytest.raises(MigrationError):
            MigrationConfig(push_chunk_blocks=0)

    def test_adaptive_stack_defaults_off(self):
        cfg = MigrationConfig()
        assert cfg.delta_cache_mb == 0.0
        assert cfg.multifd_channels == 1
        assert cfg.auto_converge is False

    def test_delta_knobs_validated(self):
        with pytest.raises(MigrationError):
            MigrationConfig(delta_cache_mb=-1.0)
        assert MigrationConfig(delta_cache_mb=64.0)

    def test_multifd_channels_at_least_one(self):
        with pytest.raises(MigrationError):
            MigrationConfig(multifd_channels=0)
        with pytest.raises(MigrationError):
            MigrationConfig(multifd_channels=-2)
        assert MigrationConfig(multifd_channels=8).multifd_channels == 8


    @pytest.mark.parametrize("field, value", [
        ("mem_chunk_pages", -5),         # used to ship no memory at all
        ("mem_chunk_pages", 0),          # used to divide by zero mid-run
        ("compression_ratio", float("nan")),
        ("leaf_bits", 0),                # used to fail mid-run
        ("disk_dirty_threshold_blocks", -1),
        ("mem_dirty_threshold_pages", -1),
        ("suspend_overhead", -0.1),
        ("resume_overhead", -0.1),
        ("rate_limit", float("nan")),
        ("delta_cache_mb", float("nan")),
    ])
    def test_values_that_break_or_skew_a_run_rejected(self, field, value):
        with pytest.raises(MigrationError, match=field):
            MigrationConfig(**{field: value})


class TestReplace:
    def test_replace_returns_modified_copy(self):
        cfg = MigrationConfig()
        limited = cfg.replace(rate_limit=1e6)
        assert limited.rate_limit == 1e6
        assert cfg.rate_limit is None

    def test_replace_validates(self):
        with pytest.raises(MigrationError):
            MigrationConfig().replace(chunk_blocks=-1)
