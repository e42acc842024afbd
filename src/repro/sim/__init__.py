"""A small, self-contained discrete-event simulation engine.

The engine drives every experiment in this reproduction: simulated time is
what turns byte counts and bandwidths into the downtimes and migration times
the paper reports.  The API follows the familiar SimPy shape (generator
processes yielding events) but is implemented from scratch here.
"""

from .engine import Environment
from .events import AllOf, Event, Interrupt, Timeout, NORMAL, URGENT
from .process import Process
from .resources import Request, Resource, Spindle, Store
from .sharded import Shard, ShardedEngine

__all__ = [
    "AllOf",
    "Environment",
    "Event",
    "Interrupt",
    "NORMAL",
    "Process",
    "Request",
    "Resource",
    "Shard",
    "ShardedEngine",
    "Spindle",
    "Store",
    "Timeout",
    "URGENT",
]
