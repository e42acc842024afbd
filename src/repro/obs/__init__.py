"""Observability: structured tracing and time-series metrics.

The paper's results are all time-series claims — downtime, per-phase
duration, degradation under load — so this package turns one simulated
migration into data you can *look at*:

* :class:`~repro.obs.tracer.Tracer` — hierarchical spans
  (migration → phase → iteration → chunk transfer) keyed to simulated
  time, plus point instants (faults, retries, pulls);
* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges, and
  histograms with timestamped samples (wire bytes per link, dirty-set
  population, push/pull/cancel counts, backoff delays);
* exporters for plain JSON and the Chrome trace-event format
  (``chrome://tracing`` / Perfetto), see :mod:`repro.obs.export`.

Recording never advances the simulated clock, and the disabled path is
a pair of no-op singletons — an environment without observability
installed behaves byte-identically to one that predates this package.

Enable it on any environment::

    from repro.obs import install

    tracer, metrics = install(env)
    ...                                  # run the experiment
    dump_chrome_trace("run.trace.json", tracer, metrics)

or pass ``observe=True`` to :func:`repro.analysis.build_testbed` (and
the ``run_*_experiment`` helpers), or use ``repro-sim migrate --trace``
from the shell.
"""

from .export import (
    SCHEMA_VERSION,
    dump_chrome_trace,
    dump_json,
    phase_durations,
    to_chrome_trace,
    to_json,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
    NullMetrics,
)
from .tracer import Instant, NULL_TRACER, NullTracer, Span, Tracer


def install(env) -> tuple[Tracer, MetricsRegistry]:
    """Attach a fresh tracer + registry to ``env``; returns both.

    Idempotent: if the environment already carries live instances they
    are returned unchanged (so helpers can call it defensively).
    """
    if not env.tracer.enabled:
        env.tracer = Tracer(env)
    if not env.metrics.enabled:
        env.metrics = MetricsRegistry(env)
    return env.tracer, env.metrics


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Instant",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_TRACER",
    "NullMetrics",
    "NullTracer",
    "SCHEMA_VERSION",
    "Span",
    "Tracer",
    "dump_chrome_trace",
    "dump_json",
    "install",
    "phase_durations",
    "to_chrome_trace",
    "to_json",
]
