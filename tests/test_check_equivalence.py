"""tools/check_equivalence.py: a fixture scenario reruns identically."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "check_equivalence.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("check_equivalence", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fault_retry_reruns_identically_in_one_process():
    """Twice in one process, the fault-retry scenario (a failed attempt
    and an incremental retry) gives the same result: no state leaks
    between runs, through module-level caches, say."""
    scenario = load_tool().scenarios()["fault-retry:incremental"]
    first = json.loads(json.dumps(scenario()))
    assert json.loads(json.dumps(scenario())) == first
