"""Trace and metrics exporters.

Two formats:

* **Chrome trace-event JSON** (:func:`to_chrome_trace`) — loadable in
  ``chrome://tracing`` or https://ui.perfetto.dev.  Spans become complete
  (``"ph": "X"``) events, instants become instant (``"ph": "i"``) events,
  and counters become counter (``"ph": "C"``) tracks.  Timestamps are
  simulated *microseconds* (the format's native unit), so one simulated
  second reads as 1 s on the tracing timeline.
* **Plain JSON** (:func:`to_json`) — the full span tree, instants, and
  per-metric sample series, for programmatic post-processing (pandas,
  plotting, CI assertions).

Both functions accept the null tracer/registry and emit empty documents,
so export call sites need no enabled-checks.

The file schema is documented in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import json
from typing import Optional

from .metrics import MetricsRegistry, NullMetrics
from .tracer import Tracer

#: Synthetic process/thread ids for the tracing UI's lanes.
TRACE_PID = 1
SPAN_TID = 1
INSTANT_TID = 2

#: Trace-file schema version, bumped on incompatible layout changes.
SCHEMA_VERSION = 1


def _span_events(tracer: Tracer) -> list[dict]:
    events = []
    for span in tracer.spans:
        end = span.end if span.end is not None else span.start
        events.append({
            "name": span.name,
            "cat": span.category,
            "ph": "X",
            "ts": span.start * 1e6,
            "dur": (end - span.start) * 1e6,
            "pid": TRACE_PID,
            "tid": SPAN_TID,
            "args": {**span.args, "sid": span.sid, "parent": span.parent},
        })
    return events


def _instant_events(tracer: Tracer) -> list[dict]:
    return [{
        "name": inst.name,
        "cat": inst.category,
        "ph": "i",
        "s": "p",  # process-scoped: draws a line across the lane
        "ts": inst.at * 1e6,
        "pid": TRACE_PID,
        "tid": INSTANT_TID,
        "args": dict(inst.args),
    } for inst in tracer.instants]


def _counter_events(metrics: MetricsRegistry) -> list[dict]:
    events = []
    for name in metrics.names():
        inst = metrics.get(name)
        if inst is None or inst.kind == "histogram":
            continue  # histograms have no sensible counter-track rendering
        for t, value in zip(inst.times, inst.values):
            events.append({
                "name": name,
                "cat": inst.kind,
                "ph": "C",
                "ts": t * 1e6,
                "pid": TRACE_PID,
                "args": {"value": value},
            })
    return events


def to_chrome_trace(tracer: Tracer,
                    metrics: Optional[MetricsRegistry] = None) -> dict:
    """The trace as a ``chrome://tracing``-loadable document (a dict)."""
    events = _span_events(tracer) + _instant_events(tracer)
    if metrics is not None and not isinstance(metrics, NullMetrics):
        events += _counter_events(metrics)
    events.sort(key=lambda e: (e["ts"], 0 if e["ph"] == "X" else 1))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema_version": SCHEMA_VERSION,
            "producer": "repro.obs",
            "clock": "simulated-seconds",
        },
    }


def to_json(tracer: Tracer,
            metrics: Optional[MetricsRegistry] = None) -> dict:
    """The full observability record as plain JSON-serializable data."""
    doc: dict = {
        "schema_version": SCHEMA_VERSION,
        "clock": "simulated-seconds",
        "spans": [{
            "sid": s.sid,
            "parent": s.parent,
            "name": s.name,
            "category": s.category,
            "start": s.start,
            "end": s.end,
            "duration": s.duration,
            "args": dict(s.args),
        } for s in tracer.spans],
        "instants": [{
            "name": i.name,
            "category": i.category,
            "at": i.at,
            "args": dict(i.args),
        } for i in tracer.instants],
        "metrics": {},
    }
    if metrics is not None:
        doc["metrics"] = {
            name: {**metrics.get(name).summary(),
                   "series": [list(pair)
                              for pair in metrics.get(name).samples]}
            for name in metrics.names()
        }
    return doc


def dump_chrome_trace(path: str, tracer: Tracer,
                      metrics: Optional[MetricsRegistry] = None) -> str:
    """Write the Chrome trace to ``path``; returns the path."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_chrome_trace(tracer, metrics), fh, default=str)
    return path


def dump_json(path: str, tracer: Tracer,
              metrics: Optional[MetricsRegistry] = None) -> str:
    """Write the plain-JSON record to ``path``; returns the path."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_json(tracer, metrics), fh, indent=2, default=str)
    return path


def phase_durations(tracer: Tracer) -> dict[str, float]:
    """Summed duration of every ``phase:*`` span, keyed by phase name.

    Multiple migrations (e.g. retry attempts) in one trace sum per
    phase; compare single-attempt values against the corresponding
    :class:`~repro.core.metrics.MigrationReport` fields for an exact
    match.
    """
    totals: dict[str, float] = {}
    for span in tracer.find(category="phase"):
        name = span.name.split(":", 1)[1] if ":" in span.name else span.name
        totals[name] = totals.get(name, 0.0) + span.duration
    return totals
