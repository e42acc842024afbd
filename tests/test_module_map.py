"""The docs/ARCHITECTURE.md module map must list every module exactly.

The map is the fenced tree under "## Module map": top-level entries
(``├── sim/``, ``├── cli.py``) sit in column 0, a package's files one
level in.  The test fails when a ``src/repro/**/*.py`` file (other than
``__init__.py``) is missing from the map, or the map names a file that
does not exist.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
ENTRY = re.compile(r"(?:├──|└──) (\S+)")


def mapped_modules(text: str) -> set[str]:
    block = text.split("## Module map", 1)[1].split("```", 2)[1]
    modules = set()
    package = ""
    for line in block.splitlines():
        match = ENTRY.search(line)
        if match is None:
            continue
        name = match.group(1)
        if match.start() == 0:
            if name.endswith("/"):
                package = name
                continue
            modules.add(name)
        else:
            modules.add(package + name)
    return modules


def package_modules() -> set[str]:
    return {path.relative_to(PACKAGE).as_posix()
            for path in PACKAGE.rglob("*.py") if path.name != "__init__.py"}


def test_parser_reads_nested_and_top_level_entries():
    text = ("## Module map\n\n```\nsrc/repro/\n"
            "├── sim/            engine\n"
            "│   ├── engine.py       Environment\n"
            "│   └── events.py       Event, with a continuation\n"
            "│                       line that names no file.py\n"
            "├── units.py        constants\n"
            "└── cli.py          repro-sim\n```\n")
    assert mapped_modules(text) == {"sim/engine.py", "sim/events.py",
                                    "units.py", "cli.py"}


def test_module_map_matches_the_package():
    text = (ROOT / "docs" / "ARCHITECTURE.md").read_text(encoding="utf-8")
    mapped = mapped_modules(text)
    actual = package_modules()
    assert sorted(actual - mapped) == [], "modules missing from the map"
    assert sorted(mapped - actual) == [], "map names files that do not exist"
