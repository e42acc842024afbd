#!/usr/bin/env python3
"""Check that every migration scheme is exercised by tests.

Loads the scheme table (``repro.core.SCHEMES``), then scans every
``*.py`` file under ``tests/`` and ``benchmarks/`` for string literals
naming each scheme.  A scheme that no test mentions is a coverage hole:
someone added it to the table without wiring it into the
parity/comparison suites, so it would ship without ever having been run
through ``Migrator.migrate``.

Also fails when a test tree passes ``scheme=`` a name that is *not* in
the table — usually a typo'd string that would only surface as a
runtime ``unknown migration scheme`` error.

Exit status 0 when every scheme is covered and every reference resolves,
1 otherwise.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCAN_DIRS = ("tests", "benchmarks")

#: String literals that look like scheme names: lowercase words joined
#: by dashes (matches every scheme name; plain words like "tpm" too).
NAME_RE = re.compile(r"""["']([a-z][a-z0-9]*(?:-[a-z0-9]+)*)["']""")


def table_names() -> set[str]:
    """The names in the scheme table."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.core import SCHEMES

    return set(SCHEMES)


def scan_literals() -> dict[str, set[str]]:
    """Scheme-shaped string literal -> files containing it."""
    found: dict[str, set[str]] = {}
    for dirname in SCAN_DIRS:
        for path in sorted((ROOT / dirname).rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            text = path.read_text(encoding="utf-8")
            rel = str(path.relative_to(ROOT))
            for match in NAME_RE.finditer(text):
                found.setdefault(match.group(1), set()).add(rel)
    return found


def main() -> int:
    names = table_names()
    literals = scan_literals()

    errors = []
    for name in sorted(names):
        if name not in literals:
            errors.append(
                f"scheme {name!r} is in the table but no test or benchmark "
                f"under {'/'.join(SCAN_DIRS)} mentions it")
        else:
            files = sorted(literals[name])
            print(f"{name}: covered by {len(files)} file(s) "
                  f"(e.g. {files[0]})")

    # Literals that *look like* scheme usage but do not resolve.  Only
    # flag dashed names passed near a scheme= keyword to avoid false
    # positives on ordinary strings.
    usage_re = re.compile(
        r"""scheme\s*=\s*["']([a-z0-9-]+)["']""")
    for dirname in SCAN_DIRS:
        for path in sorted((ROOT / dirname).rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            for match in usage_re.finditer(
                    path.read_text(encoding="utf-8")):
                name = match.group(1)
                if name not in names:
                    errors.append(
                        f"{path.relative_to(ROOT)}: scheme={name!r} "
                        f"is not a migration scheme")

    for err in errors:
        print(f"ERROR: {err}")
    print(f"check_scheme_coverage: {len(names)} schemes, "
          f"{len(errors)} problem(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
