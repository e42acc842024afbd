"""Tests for tools/check_md_links.py, the Markdown link checker."""

import subprocess
import sys
from pathlib import Path

CHECKER = Path(__file__).resolve().parent.parent / "tools" / "check_md_links.py"


def run_checker(root):
    return subprocess.run([sys.executable, str(CHECKER), str(root)],
                          capture_output=True, text=True)


def test_good_anchor_passes_and_dangling_anchor_fails(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "GUIDE.md").write_text(
        "# Guide\n\n## Delta compression (XBZRLE-style)\n\ntext\n")
    (tmp_path / "README.md").write_text(
        "# Readme\n\n"
        "## The `sim` engine\n\n"
        "See [the engine](#the-sim-engine) and\n"
        "[delta](docs/GUIDE.md#delta-compression-xbzrle-style).\n"
        "Gone: [old](docs/GUIDE.md#coalesced-guest-writes).\n")
    result = run_checker(tmp_path)
    assert result.returncode == 1
    broken = [line for line in result.stdout.splitlines()
              if ": broken link -> " in line]
    assert broken == [
        "README.md:7: broken link -> docs/GUIDE.md#coalesced-guest-writes"]


def test_repeated_headings_get_numbered_anchors(tmp_path):
    (tmp_path / "README.md").write_text(
        "# Notes\n\n## Setup\n\n## Setup\n\n"
        "[first](#setup) [second](#setup-1) [third](#setup-2)\n")
    result = run_checker(tmp_path)
    assert result.returncode == 1
    assert "README.md:7: broken link -> #setup-2" in result.stdout
    assert "#setup-1" not in result.stdout
