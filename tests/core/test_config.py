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
        with pytest.raises(MigrationError):
            MigrationConfig(max_mem_rounds=0)

    def test_rate_limit_positive_when_set(self):
        with pytest.raises(MigrationError):
            MigrationConfig(rate_limit=0)
        MigrationConfig(rate_limit=1000)  # fine

    def test_push_chunk_positive(self):
        with pytest.raises(MigrationError):
            MigrationConfig(push_chunk_blocks=0)

    def test_dirty_rate_fraction_positive(self):
        with pytest.raises(MigrationError):
            MigrationConfig(dirty_rate_stop_fraction=0)

    def test_pipeline_depth_at_least_one(self):
        with pytest.raises(MigrationError):
            MigrationConfig(pipeline_depth=0)
        with pytest.raises(MigrationError):
            MigrationConfig(pipeline_depth=-3)
        assert MigrationConfig().pipeline_depth == 2
        assert MigrationConfig(pipeline_depth=1).pipeline_depth == 1
        assert MigrationConfig(pipeline_depth=8).pipeline_depth == 8

    def test_adaptive_stack_defaults_off(self):
        cfg = MigrationConfig()
        assert cfg.delta_cache_mb == 0.0
        assert cfg.multifd_channels == 1
        assert cfg.auto_converge is False
        assert cfg.compression_ratios is None

    def test_delta_knobs_validated(self):
        with pytest.raises(MigrationError):
            MigrationConfig(delta_cache_mb=-1.0)
        with pytest.raises(MigrationError):
            MigrationConfig(delta_ratio=0.9)
        with pytest.raises(MigrationError):
            MigrationConfig(delta_throughput=0)
        assert MigrationConfig(delta_cache_mb=64.0, delta_ratio=4.0)

    def test_multifd_channels_at_least_one(self):
        with pytest.raises(MigrationError):
            MigrationConfig(multifd_channels=0)
        with pytest.raises(MigrationError):
            MigrationConfig(multifd_channels=-2)
        assert MigrationConfig(multifd_channels=8).multifd_channels == 8

    def test_auto_converge_knobs_validated(self):
        with pytest.raises(MigrationError):
            MigrationConfig(auto_converge_start=1.0)  # must exceed 1x
        with pytest.raises(MigrationError):
            MigrationConfig(auto_converge_step=0.0)
        with pytest.raises(MigrationError):
            MigrationConfig(auto_converge_max_factor=1.5,
                            auto_converge_start=2.0)  # cap below start
        with pytest.raises(MigrationError):
            MigrationConfig(auto_converge_max_iterations=0)
        assert MigrationConfig(auto_converge=True)  # defaults are coherent

    def test_compression_ratios_validated(self):
        with pytest.raises(MigrationError):
            MigrationConfig(compression_ratios={"memory": 0.5})
        cfg = MigrationConfig(compression_ratios={"memory": 4.0,
                                                  "disk": 1.5})
        assert cfg.compression_ratios["memory"] == 4.0


class TestReplace:
    def test_replace_returns_modified_copy(self):
        cfg = MigrationConfig()
        limited = cfg.replace(rate_limit=1e6)
        assert limited.rate_limit == 1e6
        assert cfg.rate_limit is None

    def test_replace_validates(self):
        with pytest.raises(MigrationError):
            MigrationConfig().replace(chunk_blocks=-1)
