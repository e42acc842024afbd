"""Block I/O trace capture and replay.

The synthetic workloads are calibrated to the paper's reported rates, but
a downstream user evaluating migration policies will often want to drive
the testbed with *their own* I/O trace.  This module provides:

* :class:`IOTrace` — a columnar (NumPy) trace of timed block requests,
  with summary statistics and ``.npz`` persistence;
* :class:`TraceRecorder` — captures every request a backend driver
  applies (register before starting the workload);
* :class:`TraceReplay` — a :class:`~repro.workloads.base.Workload` that
  re-issues a trace against a domain with the original timing (optionally
  time-scaled or looped).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

import numpy as np

from ..errors import ReproError
from ..storage.blkback import BackendDriver
from ..storage.block import IOKind, IORequest
from .base import Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import Environment

#: Column encoding of the operation kind.
KIND_READ = 0
KIND_WRITE = 1


@dataclass
class IOTrace:
    """A timed sequence of block I/O requests (columnar storage)."""

    times: np.ndarray     #: float64 seconds, non-decreasing
    kinds: np.ndarray     #: uint8, KIND_READ or KIND_WRITE
    blocks: np.ndarray    #: int64 first block
    nblocks: np.ndarray   #: int32 extent length

    def __post_init__(self) -> None:
        n = len(self.times)
        for name in ("kinds", "blocks", "nblocks"):
            if len(getattr(self, name)) != n:
                raise ReproError(f"trace column {name!r} length mismatch")
        if n and np.any(np.diff(self.times) < 0):
            raise ReproError("trace times must be non-decreasing")

    def __len__(self) -> int:
        return int(len(self.times))

    @property
    def duration(self) -> float:
        """Seconds between the first and last request."""
        if len(self) < 2:
            return 0.0
        return float(self.times[-1] - self.times[0])

    @property
    def read_bytes(self) -> int:
        mask = self.kinds == KIND_READ
        return int(self.nblocks[mask].sum()) * 4096

    @property
    def write_bytes(self) -> int:
        mask = self.kinds == KIND_WRITE
        return int(self.nblocks[mask].sum()) * 4096

    def rewrite_fraction(self) -> float:
        """Fraction of write operations hitting a previously written block
        (the paper's §IV-A-2 locality metric, computed over the trace)."""
        seen: set[int] = set()
        ops = rewrites = 0
        for kind, block, count in zip(self.kinds, self.blocks, self.nblocks):
            if kind != KIND_WRITE:
                continue
            ops += 1
            extent = range(int(block), int(block + count))
            if any(b in seen for b in extent):
                rewrites += 1
            seen.update(extent)
        return rewrites / ops if ops else 0.0

    def shifted(self, t0: float = 0.0) -> "IOTrace":
        """A copy whose first request happens at ``t0``."""
        offset = (self.times[0] if len(self) else 0.0) - t0
        return IOTrace(self.times - offset, self.kinds.copy(),
                       self.blocks.copy(), self.nblocks.copy())

    # -- persistence -----------------------------------------------------

    def save(self, path) -> None:
        """Write the trace to an ``.npz`` file."""
        np.savez_compressed(path, times=self.times, kinds=self.kinds,
                            blocks=self.blocks, nblocks=self.nblocks)

    @classmethod
    def load(cls, path) -> "IOTrace":
        """Read a trace written by :meth:`save`."""
        with np.load(path) as data:
            return cls(data["times"], data["kinds"], data["blocks"],
                       data["nblocks"])

    @classmethod
    def from_lists(cls, records) -> "IOTrace":
        """Build from an iterable of ``(time, kind, block, nblocks)``."""
        rows = list(records)
        if not rows:
            return cls(np.empty(0), np.empty(0, np.uint8),
                       np.empty(0, np.int64), np.empty(0, np.int32))
        times, kinds, blocks, counts = zip(*rows)
        return cls(np.asarray(times, dtype=np.float64),
                   np.asarray(kinds, dtype=np.uint8),
                   np.asarray(blocks, dtype=np.int64),
                   np.asarray(counts, dtype=np.int32))


class TraceRecorder:
    """Captures every request a driver applies.

    Register before starting the workload::

        recorder = TraceRecorder(env, driver)
        ... run the experiment ...
        trace = recorder.trace()
    """

    def __init__(self, env: "Environment", driver: BackendDriver) -> None:
        self.env = env
        self._rows: list[tuple[float, int, int, int]] = []
        driver.request_observers.append(self._observe)

    def _observe(self, request: IORequest) -> None:
        kind = KIND_WRITE if request.kind is IOKind.WRITE else KIND_READ
        self._rows.append((self.env.now, kind, request.block,
                           request.nblocks))

    def __len__(self) -> int:
        return len(self._rows)

    def trace(self) -> IOTrace:
        """The trace captured so far."""
        return IOTrace.from_lists(self._rows)

    def clear(self) -> None:
        self._rows.clear()


class TraceReplay(Workload):
    """Replays an :class:`IOTrace` against the bound domain.

    Requests are issued at their recorded times (divided by
    ``time_scale``; 2.0 = replay twice as fast).  Replay is *open-loop* in
    arrival times but each request still runs through the full driver
    path, so contention and interception behave exactly as for a live
    workload.  With ``loop=True`` the trace repeats until stopped.
    """

    name = "replay"

    def __init__(self, trace: IOTrace, time_scale: float = 1.0,
                 loop: bool = False) -> None:
        super().__init__()
        if time_scale <= 0:
            raise ReproError(f"time_scale must be positive, got {time_scale}")
        self.trace = trace.shifted(0.0)
        self.time_scale = time_scale
        self.loop = loop
        #: Completed replay passes over the trace.
        self.passes = 0

    def run(self, env: "Environment") -> Generator:
        trace = self.trace
        block_size = None
        while True:
            start = env.now
            for i in range(len(trace)):
                due = start + float(trace.times[i]) / self.time_scale
                if env.now < due:
                    yield env.timeout(due - env.now)
                yield from self.domain.ensure_running()
                if block_size is None:
                    block_size = self.domain.vbd.block_size
                issue = (self.write if trace.kinds[i] == KIND_WRITE
                         else self.read)
                yield from issue(int(trace.blocks[i]), int(trace.nblocks[i]))
                self.account(int(trace.nblocks[i]) * block_size)
            self.passes += 1
            if not self.loop:
                return
