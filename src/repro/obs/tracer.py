"""Hierarchical span tracing keyed to simulated time.

A :class:`Tracer` records what the migration machinery *did* and *when*
(in simulated seconds) as a tree of spans::

    migration:domU                          <- root, one per attempt
      phase:init
      phase:precopy-disk
        iteration:1
          chunk ...                         <- one per streamed chunk
        iteration:2
      phase:precopy-mem
        round:1
      phase:freeze
      phase:postcopy
      phase:verify

plus point-in-time *instants* (faults firing, retry backoffs, pull
requests).  Spans never advance the clock — recording is free in
simulated time, so a traced run reports numbers identical to an
untraced one.

Disabled tracing costs (almost) nothing: :data:`NULL_TRACER` is a
no-allocation sink installed on every
:class:`~repro.sim.engine.Environment` by default; instrumented code
calls it unconditionally and every method is a one-line no-op.  Install
a real tracer with :func:`repro.obs.install` (or set ``env.tracer``
directly) to start recording.

Span timestamps are read from ``env.now`` at the same statements that
stamp :class:`~repro.core.metrics.MigrationReport`, so per-phase span
durations equal the report's phase durations *exactly* — the invariant
``tests/obs/test_trace_integration.py`` locks down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import Environment


@dataclass
class Span:
    """One named interval of simulated time, possibly nested in another."""

    sid: int
    parent: Optional[int]
    name: str
    category: str
    start: float
    end: Optional[float] = None
    args: dict = field(default_factory=dict)

    @property
    def open(self) -> bool:
        return self.end is None

    @property
    def duration(self) -> float:
        """Simulated seconds covered; 0.0 while still open."""
        return 0.0 if self.end is None else self.end - self.start

    def note(self, **args) -> "Span":
        """Attach key/value annotations to the span."""
        self.args.update(args)
        return self


@dataclass
class Instant:
    """A point event (a fault firing, a retry backoff, a pull request)."""

    name: str
    category: str
    at: float
    args: dict = field(default_factory=dict)


class _SpanContext:
    """Context manager closing one span on exit (error-annotating it)."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, _tb) -> bool:
        if exc is not None:
            self._span.note(error=str(exc))
        self._tracer.end(self._span)
        return False


class Tracer:
    """Records spans and instants against an environment's clock."""

    enabled = True

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Every span ever begun, in start order (open ones included).
        self.spans: list[Span] = []
        #: Point events, in record order.
        self.instants: list[Instant] = []
        #: Currently open spans, outermost first.
        self._stack: list[Span] = []
        self._next_sid = 0

    # -- recording ---------------------------------------------------------

    def begin(self, name: str, category: str = "migration", **args) -> Span:
        """Open a span now; its parent is the innermost open span."""
        self._next_sid += 1
        span = Span(
            sid=self._next_sid,
            parent=self._stack[-1].sid if self._stack else None,
            name=name,
            category=category,
            start=self.env.now,
            args=args,
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span, at: Optional[float] = None, **args) -> Span:
        """Close ``span`` (idempotent).  ``at`` overrides the end time —
        used where the logical end precedes the current clock (e.g. the
        post-copy phase ends at synchronization, not when its processes
        finish winding down)."""
        if args:
            span.note(**args)
        if span.end is None:
            span.end = self.env.now if at is None else at
        try:
            self._stack.remove(span)
        except ValueError:
            pass
        return span

    def span(self, name: str, category: str = "migration",
             **args) -> _SpanContext:
        """``with tracer.span(...) as s:`` — begin now, end on exit."""
        return _SpanContext(self, self.begin(name, category, **args))

    def instant(self, name: str, category: str = "event", **args) -> Instant:
        """Record a point event at the current simulated time."""
        inst = Instant(name=name, category=category, at=self.env.now,
                       args=args)
        self.instants.append(inst)
        return inst

    def close_open(self, **args) -> None:
        """Close every open span, innermost first (failure/abort paths)."""
        while self._stack:
            self.end(self._stack[-1], **args)

    # -- queries -----------------------------------------------------------

    @property
    def open_spans(self) -> list[Span]:
        return list(self._stack)

    def find(self, name: Optional[str] = None,
             category: Optional[str] = None) -> list[Span]:
        """Completed-or-open spans matching the given name/category."""
        return [s for s in self.spans
                if (name is None or s.name == name)
                and (category is None or s.category == category)]

    def walk(self) -> Iterator[tuple[int, Span]]:
        """Yield ``(depth, span)`` in start order."""
        depth: dict[Optional[int], int] = {None: -1}
        for span in self.spans:
            d = depth.get(span.parent, -1) + 1
            depth[span.sid] = d
            yield d, span

    def __len__(self) -> int:
        return len(self.spans) + len(self.instants)


# ---------------------------------------------------------------------------
# The disabled path: no events, no allocations, no clock effect.
# ---------------------------------------------------------------------------


class _NullSpan:
    """Inert span: annotations are discarded, duration is always zero."""

    __slots__ = ()
    sid = 0
    parent = None
    name = ""
    category = ""
    start = 0.0
    end = 0.0
    open = False
    duration = 0.0

    @property
    def args(self) -> dict:
        return {}

    def note(self, **args) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class _NullSpanContext:
    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return NULL_SPAN

    def __exit__(self, *exc) -> bool:
        return False


_NULL_CTX = _NullSpanContext()


class NullTracer:
    """No-op tracer installed by default; records nothing."""

    enabled = False
    spans: list = []
    instants: list = []

    def begin(self, name: str, category: str = "migration",
              **args) -> _NullSpan:
        return NULL_SPAN

    def end(self, span, at=None, **args):
        return span

    def span(self, name: str, category: str = "migration",
             **args) -> _NullSpanContext:
        return _NULL_CTX

    def instant(self, name: str, category: str = "event", **args) -> None:
        return None

    def close_open(self, **args) -> None:
        return None

    @property
    def open_spans(self) -> list:
        return []

    def find(self, name=None, category=None) -> list:
        return []

    def walk(self):
        return iter(())

    def __len__(self) -> int:
        return 0


NULL_TRACER = NullTracer()
