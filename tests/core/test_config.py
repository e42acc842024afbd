"""Unit tests for MigrationConfig validation."""

import ast
import dataclasses
from pathlib import Path

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


class TestReplace:
    def test_replace_returns_modified_copy(self):
        cfg = MigrationConfig()
        limited = cfg.replace(rate_limit=1e6)
        assert limited.rate_limit == 1e6
        assert cfg.rate_limit is None

    def test_replace_validates(self):
        with pytest.raises(MigrationError):
            MigrationConfig().replace(chunk_blocks=-1)



#: Trees whose code counts as a real caller of ``MigrationConfig``.
CALLER_TREES = ("src", "benchmarks", "tools", "examples", "perfbench")
#: Fields no real caller needs to set, each with the test file that does.
TEST_ONLY_FIELDS = {
    # The migration property test draws it to vary chunk interleavings.
    "chunk_blocks": "tests/property/test_migration_props.py",
    # The one migration-level run of a multi-leaf layered bitmap.
    "leaf_bits": "tests/integration/test_stress.py",
    # With no memory send, a pre-harvest crash reaches the harvest check.
    "include_memory": "tests/cluster/test_sharded_faults.py",
}


def keywords_set(paths) -> set[str]:
    """Keyword names passed to ``MigrationConfig(...)`` or a ``.replace``
    call in the given Python files."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            callee = (func.id if isinstance(func, ast.Name)
                      else func.attr if isinstance(func, ast.Attribute)
                      else None)
            if callee in ("MigrationConfig", "replace"):
                names.update(kw.arg for kw in node.keywords if kw.arg)
    return names


class TestEveryFieldHasACaller:
    def test_every_field_is_set_outside_tests(self):
        """A field no real caller sets is a knob nothing turns: its value
        belongs in a constant next to its reader."""
        repo = Path(__file__).resolve().parents[2]
        used = keywords_set(path for tree in CALLER_TREES
                            for path in (repo / tree).rglob("*.py"))
        fields = {f.name for f in dataclasses.fields(MigrationConfig)}
        assert fields - used <= set(TEST_ONLY_FIELDS)
        for name, test_file in TEST_ONLY_FIELDS.items():
            assert name in keywords_set([repo / test_file])
