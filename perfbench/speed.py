"""Host seconds at a fixed reference speed, from a probe run inside the
timed interval.

On a shared machine the same code runs up to twice as slow for a few
hundred milliseconds to a few seconds at a time, while neighbours are
busy.  The process is not descheduled (its CPU time tracks its wall time
within 1 %): the CPU itself runs slower.  A calibration run between
samples cannot follow changes that fast, so :class:`ScaledTimer` runs a
small fixed probe kernel from a wall-clock timer *during* the interval it
times, every :data:`PERIOD` seconds, and once at its start.  The
interval's scaled seconds are its wall seconds without the probes' time,
multiplied by ``REFERENCE_S / mean probe time``.  On a quiet machine,
where the probe takes :data:`REFERENCE_S`, scaled seconds equal raw
seconds; while the machine is slow the probe is slow too, and the factor
cancels most of it.

The probe is pure Python shaped like the simulator's hot path --
generator resumption, heap scheduling, small-object allocation and dict
updates -- and imports nothing from ``repro``, so no change under
``src/`` can change it.  It runs with the garbage collector off, so the
size of the process's own heap does not slow it.
"""

from __future__ import annotations

import gc
import heapq
import signal
from time import perf_counter

#: The probe's time on the quiet 2-CPU machine the benchmark was defined
#: on; scaled timings are "seconds at that machine's quiet speed".
REFERENCE_S = 0.0021
#: Wall seconds between probes inside a timed interval.
PERIOD = 0.05

PROCESSES = 50
EVENTS = 2_000


class _Record:
    __slots__ = ("owner", "value")

    def __init__(self, owner: int, value: int) -> None:
        self.owner = owner
        self.value = value


def _kernel() -> int:
    table: dict[int, _Record] = {}

    def process(owner: int):
        x = owner
        while True:
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            table[x & 4095] = _Record(owner, x)
            yield ((x & 1023) + 1) * 1e-3

    procs = [process(i) for i in range(PROCESSES)]
    heap = [(next(p), i, i) for i, p in enumerate(procs)]
    heapq.heapify(heap)
    for seq in range(PROCESSES, PROCESSES + EVENTS):
        now, owner, _ = heapq.heappop(heap)
        heapq.heappush(heap, (now + procs[owner].send(None), owner, seq))
    return len(table)


def probe_seconds() -> float:
    """Host seconds one run of the probe kernel takes now."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        _kernel()
        return perf_counter() - started
    finally:
        if was_enabled:
            gc.enable()


class ScaledTimer:
    """Times one interval at a time, bracketed by :meth:`start` and
    :meth:`stop`.  It owns ``SIGALRM`` and ``ITIMER_REAL`` while
    started."""

    def __init__(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        self._started = 0.0
        self._probe_s = 0.0
        self._probes = 0

    def _probe(self) -> None:
        self._probe_s += probe_seconds()
        self._probes += 1

    def _on_alarm(self, signum, frame) -> None:
        self._probe()

    def start(self) -> None:
        self._probe_s = 0.0
        self._probes = 0
        self._started = perf_counter()
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> tuple[float, float, float]:
        """``(raw seconds, scaled seconds, mean probe seconds)`` of the
        interval; raw seconds leave out the probes' own time."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        raw = perf_counter() - self._started - self._probe_s
        probe = self._probe_s / self._probes
        return raw, raw * REFERENCE_S / probe, probe
