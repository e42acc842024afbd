"""Time-series metrics: counters, gauges, and histograms.

Every instrument stamps its samples with the *simulated* clock, so a
metric is a timeline, not just a final number: bytes on the wire per
link, dirty-bitmap population over pre-copy iterations, post-copy
push/pull/cancel counts, retry backoff delays.  Recording never yields
or advances the clock, so an instrumented run is numerically identical
to a bare one.

Like the tracer, the registry has a no-op twin (:data:`NULL_METRICS`)
installed on every environment by default; instrumented code calls
``env.metrics.counter("x").inc(n)`` unconditionally and pays one no-op
method call when metrics are off.

Instrument semantics:

* :class:`Counter` — monotone accumulator; samples are ``(t, total)``
  after each increment, so deltas between any two times are exact.
* :class:`Gauge` — last-write-wins level; samples are ``(t, value)``.
* :class:`Histogram` — value distribution; samples are ``(t, value)``
  per observation, with count/sum/min/max and percentiles on demand.

Each instrument stores its samples as two ``array('d')`` columns,
``times`` and ``values``, so a long-running series costs 16 bytes a
sample.  :mod:`repro.analysis.throughput` reads them back as rates.
"""

from __future__ import annotations

import math
from array import array
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import Environment


class _Instrument:
    """Shared sample storage: parallel ``times`` and ``values`` columns."""

    kind = "instrument"

    def __init__(self, env: "Environment", name: str) -> None:
        self.env = env
        self.name = name
        #: Simulated time of each sample, in record order.
        self.times = array("d")
        #: Value of each sample, parallel to :attr:`times`.
        self.values = array("d")

    def _record(self, value: float) -> None:
        self.times.append(self.env.now)
        self.values.append(value)

    @property
    def samples(self) -> list[tuple[float, float]]:
        """``(simulated time, value)`` pairs in record order."""
        return list(zip(self.times, self.values))

    def summary(self) -> dict:
        return {"kind": self.kind, "samples": len(self.times)}


class Counter(_Instrument):
    """Monotone accumulator (bytes sent, blocks pushed, events processed)."""

    kind = "counter"

    def __init__(self, env: "Environment", name: str) -> None:
        super().__init__(env, name)
        self.total = 0.0

    def inc(self, value: float = 1.0) -> None:
        if value < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.total += value
        self._record(self.total)

    def summary(self) -> dict:
        return {**super().summary(), "total": self.total}


class Gauge(_Instrument):
    """Last-write-wins level (dirty-set size, queue depth, backoff delay)."""

    kind = "gauge"

    def __init__(self, env: "Environment", name: str) -> None:
        super().__init__(env, name)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)
        self._record(value)

    def summary(self) -> dict:
        return {**super().summary(), "value": self.value}


class Histogram(_Instrument):
    """Distribution of observed values (stall times, chunk sizes)."""

    kind = "histogram"

    def __init__(self, env: "Environment", name: str) -> None:
        super().__init__(env, name)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        self._record(value)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The ``q``-quantile (0..1) of all observations, 0.0 when empty."""
        if not self.values:
            return 0.0
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        ordered = sorted(self.values)
        idx = min(int(q * len(ordered)), len(ordered) - 1)
        return ordered[idx]

    def summary(self) -> dict:
        return {**super().summary(), "count": self.count, "sum": self.sum,
                "min": self.min if self.count else 0.0,
                "max": self.max if self.count else 0.0,
                "mean": self.mean,
                "p50": self.percentile(0.5),
                "p99": self.percentile(0.99)}


class MetricsRegistry:
    """Owns every named instrument of one environment."""

    enabled = True

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self._instruments: dict[str, _Instrument] = {}

    def _get(self, name: str, cls) -> _Instrument:
        inst = self._instruments.get(name)
        if inst is None:
            inst = cls(self.env, name)
            self._instruments[name] = inst
        elif not isinstance(inst, cls):
            raise TypeError(
                f"metric {name!r} is a {inst.kind}, not a "
                f"{cls.kind}")
        return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def get(self, name: str) -> Optional[_Instrument]:
        """The instrument by name, or None if never touched."""
        return self._instruments.get(name)

    def names(self, prefix: str = "") -> list[str]:
        return sorted(n for n in self._instruments if n.startswith(prefix))

    def snapshot(self) -> dict:
        """``{name: summary dict}`` for every instrument."""
        return {name: inst.summary()
                for name, inst in sorted(self._instruments.items())}

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments


# ---------------------------------------------------------------------------
# The disabled path.
# ---------------------------------------------------------------------------


class _NullInstrument:
    __slots__ = ()
    kind = "null"
    name = ""
    samples: list = []
    total = 0.0
    value = 0.0
    count = 0
    sum = 0.0
    min = 0.0
    max = 0.0
    mean = 0.0

    def inc(self, value: float = 1.0) -> None:
        return None

    def set(self, value: float) -> None:
        return None

    def observe(self, value: float) -> None:
        return None

    def percentile(self, q: float) -> float:
        return 0.0

    def summary(self) -> dict:
        return {}


NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """No-op registry installed by default; records nothing."""

    enabled = False

    def counter(self, name: str) -> _NullInstrument:
        return NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return NULL_INSTRUMENT

    def histogram(self, name: str) -> _NullInstrument:
        return NULL_INSTRUMENT

    def get(self, name: str) -> None:
        return None

    def names(self, prefix: str = "") -> list:
        return []

    def snapshot(self) -> dict:
        return {}

    def __len__(self) -> int:
        return 0

    def __contains__(self, name: str) -> bool:
        return False


NULL_METRICS = NullMetrics()
