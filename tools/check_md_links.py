#!/usr/bin/env python3
"""Check that intra-repository Markdown links resolve.

Scans every ``*.md`` file under the repository root (skipping ``.git``
and other generated directories) for inline links and verifies that each
relative target exists on disk, resolved against the linking file's
directory.  External links (``http://``, ``https://``, ``mailto:``) are
ignored.  An anchor (``#section`` in the same file, or
``OTHER.md#section``) must name a heading of the Markdown file it points
at, spelled as GitHub slugs it: lower case, punctuation dropped, spaces
turned into hyphens, and ``-1``, ``-2``, ... appended to repeats.

Exit status 0 when every link resolves, 1 otherwise (with one line per
broken link: ``file:line: broken link -> target``).
"""

from __future__ import annotations

import re
import sys
from functools import cache
from pathlib import Path

SKIP_DIRS = {".git", ".pytest_cache", "__pycache__", ".benchmarks",
             "node_modules", ".claude"}

#: Inline Markdown links: ``[text](target)``, target captured lazily so
#: titles (``[t](x "title")``) keep only the path part.
LINK_RE = re.compile(r"\[[^\]]*\]\(\s*<?([^)<>\s]+)>?(?:\s+\"[^\"]*\")?\s*\)")

EXTERNAL_PREFIXES = ("http://", "https://", "mailto:", "ftp://")

#: ATX headings (``## Title``), with any closing ``#`` run dropped.
HEADING_RE = re.compile(r"^ {0,3}#{1,6}\s+(.*?)(?:\s+#+)?\s*$")
#: Characters GitHub drops from a slug: all but letters, digits, ``_``,
#: ``-`` and spaces.
SLUG_DROP_RE = re.compile(r"[^\w\- ]")


def iter_markdown_files(root: Path):
    for path in sorted(root.rglob("*.md")):
        if not any(part in SKIP_DIRS for part in path.parts):
            yield path


def strip_fences(text: str) -> str:
    """Blank out fenced code blocks so example links are not checked."""
    out, fenced = [], False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            fenced = not fenced
            out.append("")
        else:
            out.append("" if fenced else line)
    return "\n".join(out)


def slug(heading: str) -> str:
    """GitHub's anchor for a heading's text (before de-duplication)."""
    return SLUG_DROP_RE.sub("", heading.strip().lower()).replace(" ", "-")


@cache
def anchors(path: Path) -> set[str]:
    """Every heading anchor of the Markdown file at ``path``."""
    seen: dict[str, int] = {}
    out = set()
    for line in strip_fences(path.read_text(encoding="utf-8")).splitlines():
        match = HEADING_RE.match(line)
        if match is None:
            continue
        base = slug(match.group(1))
        count = seen.get(base, 0)
        seen[base] = count + 1
        out.add(f"{base}-{count}" if count else base)
    return out


def check_file(path: Path, root: Path) -> list[str]:
    errors = []
    text = strip_fences(path.read_text(encoding="utf-8"))
    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in LINK_RE.finditer(line):
            target = match.group(1)
            if target.startswith(EXTERNAL_PREFIXES):
                continue
            target_path, _, fragment = target.partition("#")
            resolved = (path.parent / target_path).resolve() \
                if target_path else path.resolve()
            if not resolved.exists():
                ok = False
            elif fragment and resolved.suffix == ".md":
                ok = fragment in anchors(resolved)
            else:
                ok = True
            if not ok:
                rel = path.relative_to(root)
                errors.append(f"{rel}:{lineno}: broken link -> {target}")
    return errors


def main() -> int:
    root = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 \
        else Path(__file__).resolve().parent.parent
    errors: list[str] = []
    nfiles = 0
    for path in iter_markdown_files(root):
        nfiles += 1
        errors.extend(check_file(path, root))
    for err in errors:
        print(err)
    print(f"check_md_links: {nfiles} files scanned, "
          f"{len(errors)} broken link(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
