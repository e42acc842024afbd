"""A statistical stack sampler that charges host CPU time to ``repro`` layers.

``signal.setitimer(ITIMER_PROF)`` interrupts the process every
millisecond of CPU time it consumes.  The handler walks the interrupted
Python stack and charges the sample to the innermost frame that belongs
to a ``repro`` package or to the benchmark's own workload code.  A signal
handler runs only between bytecodes, so time spent inside numpy or any
other C code lands on the Python frame that called it -- the layer that
asked for the work.

Why a sampler and not :mod:`cProfile`: cProfile adds a cost to every
Python call and none to C code, which inflates call-heavy layers (the
event loop) and hides numpy time in an unattributed bucket.  A 1 ms
sampler costs one stack walk per millisecond wherever the time goes.

The sampler also counts, per sample, whether each public entry point in
:data:`ENTRY_POINTS` is anywhere on the stack; that share of samples is
the entry point's inclusive time.
"""

from __future__ import annotations

import importlib
import inspect
import os
import signal
from collections import Counter

#: The packages under ``src/repro`` that are layers of their own.
PACKAGE_LAYERS = ("sim", "vm", "storage", "bitmap", "core", "net",
                  "cluster", "persist", "faults", "workloads", "obs")
#: Every bucket a sample can land in: the layers; ``other`` for the rest
#: of ``repro`` (analysis, baselines, units, errors, cli); ``bench`` for
#: the benchmark's workload code such as the tickers; ``ext`` for samples
#: with neither on the stack.
LAYERS = PACKAGE_LAYERS + ("other", "bench", "ext")
#: Frames of the speed probe (see :mod:`speed`); samples that land in it
#: are dropped, as its time is left out of the timings too.
PROBE = "probe"

#: Metric name -> ``(module, qualified name)`` of each public entry point
#: whose inclusive time is reported.
ENTRY_POINTS = {
    "vm.io.incl_s": [("repro.vm.domain", "Domain.io")],
    "storage.submit.incl_s": [("repro.storage.blkback",
                               "BackendDriver.submit")],
    "storage.disk_io.incl_s": [("repro.storage.disk", "PhysicalDisk.io")],
    "storage.vbd_write.incl_s": [("repro.storage.vbd",
                                  "VirtualBlockDevice.write")],
    "bitmap.dirty_indices.incl_s": [
        ("repro.bitmap.base", "BlockBitmap.dirty_indices"),
        ("repro.bitmap.flat", "FlatBitmap.dirty_indices"),
        ("repro.bitmap.layered", "LayeredBitmap.dirty_indices")],
    "core.split_chunks.incl_s": [("repro.core.transfer", "split_chunks")],
    "net.channel_send.incl_s": [("repro.net.channel", "Channel.send")],
    "net.link_transmit.incl_s": [("repro.net.link", "Link.transmit")],
    "cluster.select.incl_s": [("repro.cluster.hostmanager",
                               "HostManager.select")],
    "persist.record_set.incl_s": [("repro.persist.store",
                                   "BitmapStore.record_set")],
}

#: Sampling period in seconds of process CPU time.
INTERVAL = 1e-3


def _code_of(module: str, qualname: str):
    """The code object of ``module.qualname``, or None if it is missing
    (an older or newer ``src`` may not have it)."""
    try:
        obj = importlib.import_module(module)
        for part in qualname.split("."):
            obj = getattr(obj, part)
    except (ImportError, AttributeError):
        return None
    return getattr(inspect.unwrap(obj), "__code__", None)


class StackSampler:
    """Charges ``ITIMER_PROF`` samples to layers and entry points.

    :meth:`start` and :meth:`stop` bracket the code to measure; counts
    accumulate across brackets.  The handler stays installed once set
    (a ``SIGPROF`` arriving after :meth:`stop` must not reach the
    default action, which kills the process) and ignores signals while
    stopped.
    """

    def __init__(self, repro_dir: str, bench_files: tuple[str, ...],
                 probe_file: str) -> None:
        self._repro_dir = os.path.realpath(repro_dir) + os.sep
        self._bench_files = {os.path.realpath(f) for f in bench_files}
        self._probe_file = os.path.realpath(probe_file)
        self._entries = {}
        for metric, targets in ENTRY_POINTS.items():
            for module, qualname in targets:
                code = _code_of(module, qualname)
                if code is not None:
                    self._entries[code] = metric
        #: code object -> (layer or None, entry metric or None).
        self._cache: dict = {}
        self.samples = 0
        self.self_counts: Counter = Counter()
        self.incl_counts: Counter = Counter()
        self._armed = False
        self._installed = False

    def layer_of(self, filename: str):
        """The bucket a frame of ``filename`` belongs to, :data:`PROBE`,
        or None for a frame that does not count (harness, stdlib, third
        party)."""
        path = os.path.realpath(filename)
        if path in self._bench_files:
            return "bench"
        if path == self._probe_file:
            return PROBE
        if not path.startswith(self._repro_dir):
            return None
        head = path[len(self._repro_dir):].split(os.sep, 1)[0]
        return head if head in PACKAGE_LAYERS else "other"

    def _classify(self, code) -> tuple:
        return (self.layer_of(code.co_filename), self._entries.get(code))

    def _on_signal(self, signum, frame) -> None:
        if not self._armed:
            return
        cache = self._cache
        layer = None
        entries = set()
        while frame is not None:
            code = frame.f_code
            info = cache.get(code)
            if info is None:
                info = cache[code] = self._classify(code)
            if info[0] == PROBE:
                return  # the speed probe's time is not the run's
            if layer is None:
                layer = info[0]
            if info[1] is not None:
                entries.add(info[1])
            frame = frame.f_back
        self.samples += 1
        self.self_counts[layer or "ext"] += 1
        self.incl_counts.update(entries)

    def start(self) -> None:
        if not self._installed:
            signal.signal(signal.SIGPROF, self._on_signal)
            self._installed = True
        self._armed = True
        signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        self._armed = False

    def shares(self) -> dict[str, float]:
        """Fraction of samples charged to each bucket (all of
        :data:`LAYERS`; they sum to 1 when any sample was taken)."""
        total = self.samples
        return {layer: (self.self_counts[layer] / total if total else 0.0)
                for layer in LAYERS}

    def inclusive_shares(self) -> dict[str, float]:
        """Fraction of samples with each entry point on the stack."""
        total = self.samples
        return {metric: (self.incl_counts[metric] / total if total else 0.0)
                for metric in ENTRY_POINTS}
